"""The runtime shape-contract decorator and its contract parser.

``repro.contracts.parse_contract`` is the one parser of the ``@shaped``
grammar; the parser tests pin what it accepts and rejects.  The remaining
tests pin the runtime semantics of ``@shaped``: shared name bindings
across parameters and return, wildcards, alternatives and the non-array
skip.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.contracts import (
    ShapeContractError,
    format_alternatives,
    parse_contract,
    shaped,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# The contract grammar
# ----------------------------------------------------------------------

VALID_CONTRACTS = [
    "(n_rx, n_samples)",
    "(n_rx, fft_size) | (n_rx, n_symbols, fft_size)",
    "(4, 2)",
    "(_, n)",
    "(..., fft_size)",
    "(n_streams, ...)",
    "()",
    "(n,)",
    "( n_rx , n_tx )",
    "(a, _, 8) | (a,) | (...,)",
]

MALFORMED_CONTRACTS = [
    "n_rx, n_samples",          # not parenthesised
    "(n rx, 4)",                # bad identifier
    "(a, ..., b, ...)",         # two rank wildcards
    "",                         # no alternative at all
    "(a) | b,",                 # second alternative unparenthesised
    "(3.5,)",                   # non-integer literal
]


@pytest.mark.parametrize("text", VALID_CONTRACTS)
def test_valid_contracts_parse_and_round_trip(text):
    alternatives = parse_contract(text)
    assert alternatives
    assert parse_contract(format_alternatives(alternatives)) == alternatives


@pytest.mark.parametrize("text", MALFORMED_CONTRACTS)
def test_malformed_contracts_are_rejected(text):
    with pytest.raises(ValueError):
        parse_contract(text)


def test_parsed_structure_uses_the_documented_encoding():
    (alt,) = parse_contract("(_, 4, ..., n)")
    assert alt == (None, 4, Ellipsis, "n")
    assert parse_contract("( n_rx , n_tx ) | ()") == (("n_rx", "n_tx"), ())


def test_format_alternatives_renders_the_canonical_spelling():
    text = "(n_rx, fft_size) | (n_rx, n_symbols, fft_size)"
    assert format_alternatives(parse_contract(text)) == text
    assert format_alternatives(parse_contract("(_, ...)")) == "(_, ...)"


# ----------------------------------------------------------------------
# Runtime semantics of @shaped
# ----------------------------------------------------------------------

def test_matching_call_passes_and_contract_is_introspectable():
    @shaped("(n, m)", block="(n, m)")
    def identity(block):
        return block

    x = np.zeros((3, 5))
    assert identity(x) is x
    assert set(identity.__shape_contract__) == {"block", "return"}


def test_rank_mismatch_raises_with_a_readable_message():
    @shaped(block="(n_streams, n_symbols, fft_size)")
    def modulate(block):
        return block

    with pytest.raises(ShapeContractError) as excinfo:
        modulate(np.zeros((4, 64)))
    message = str(excinfo.value)
    assert "modulate" in message
    assert "(4, 64)" in message
    assert "(n_streams, n_symbols, fft_size)" in message


def test_bindings_are_shared_across_parameters():
    @shaped(received="(n_rx, k)", weights="(k, n_rx)")
    def combine(received, weights):
        return received

    combine(np.zeros((2, 8)), np.zeros((8, 2)))
    with pytest.raises(ShapeContractError):
        combine(np.zeros((2, 8)), np.zeros((8, 3)))  # n_rx rebound 2 -> 3


def test_bindings_are_shared_with_the_return_contract():
    @shaped("(n, n)", block="(n, m)")
    def gram(block):
        return np.zeros((block.shape[1], block.shape[1]))

    with pytest.raises(ShapeContractError):
        gram(np.zeros((3, 5)))  # returns (5, 5) but n is bound to 3
    assert gram(np.zeros((4, 4))).shape == (4, 4)


def test_alternatives_wildcards_and_ellipsis():
    @shaped(x="(n_rx, fft_size) | (n_rx, _, fft_size)")
    def flexible(x):
        return x

    flexible(np.zeros((2, 64)))
    flexible(np.zeros((2, 7, 64)))
    with pytest.raises(ShapeContractError):
        flexible(np.zeros((2, 3, 7, 64)))

    @shaped(x="(..., fft_size)")
    def tail(x):
        return x

    tail(np.zeros(64))
    tail(np.zeros((9, 2, 64)))


def test_non_array_arguments_are_skipped():
    @shaped(x="(n, m)")
    def tolerant(x):
        return x

    assert tolerant(None) is None
    assert tolerant(3.0) == 3.0


def test_shaped_rejects_unknown_parameter_at_decoration_time():
    with pytest.raises(TypeError):

        @shaped(nonexistent="(n,)")
        def f(x):
            return x


def test_shape_contract_error_is_a_value_error():
    # Stages used to hand-roll `raise ValueError` for shape validation;
    # callers catching ValueError must keep working under contracts.
    assert issubclass(ShapeContractError, ValueError)


def test_py_typed_marker_ships_with_the_package():
    # The annotations and contracts are only visible to downstream
    # checkers when the PEP 561 marker is packaged.
    import tomllib

    assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    package_data = pyproject["tool"]["setuptools"]["package-data"]
    assert "py.typed" in package_data["repro"]
