"""The runtime shape-contract decorator and its linter-twin parser.

``repro.contracts.parse_contract`` and ``repro_lint.dataflow.parse_contract``
are deliberately duplicated (the runtime package must not import the lint
tree and vice versa); the agreement tests here hold the two grammars
bit-identical so a contract accepted by one can never be rejected by the
other.  The remaining tests pin the runtime semantics of ``@shaped``:
shared name bindings across parameters and return, wildcards, alternatives,
the non-array skip, and the ``REPRO_SHAPE_CHECKS=0`` escape hatch.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.contracts import (
    ShapeContractError,
    format_alternatives,
    parse_contract,
    shape_checks_enabled,
    shaped,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools" / "lint"))

from repro_lint import dataflow  # noqa: E402


# ----------------------------------------------------------------------
# Parser agreement: the runtime and the linter share one grammar
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
def test_parsers_agree_on_valid_contracts(text):
    assert parse_contract(text) == dataflow.parse_contract(text)


@pytest.mark.parametrize("text", MALFORMED_CONTRACTS)
def test_parsers_agree_on_malformed_contracts(text):
    with pytest.raises(ValueError):
        parse_contract(text)
    with pytest.raises(ValueError):
        dataflow.parse_contract(text)


def test_parsed_structure_uses_the_shared_encoding():
    (alt,) = parse_contract("(_, 4, ..., n)")
    assert alt == (None, 4, Ellipsis, "n")
    assert dataflow.parse_contract("(_, 4, ..., n)") == (alt,)


def test_format_alternatives_round_trips_through_both_parsers():
    text = "(n_rx, fft_size) | (n_rx, n_symbols, fft_size)"
    rendered = format_alternatives(parse_contract(text))
    assert parse_contract(rendered) == parse_contract(text)
    assert dataflow.parse_contract(rendered) == dataflow.parse_contract(text)


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
        modulate(np.zeros((4, 64)))  # reprolint: disable=SHAPE001 -- intentional violation; this test asserts the raise
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
        combine(np.zeros((2, 8)), np.zeros((8, 3)))  # n_rx rebound 2 -> 3  # reprolint: disable=SHAPE001 -- intentional violation; this test asserts the raise


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
        flexible(np.zeros((2, 3, 7, 64)))  # reprolint: disable=SHAPE001 -- intentional violation; this test asserts the raise

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


def test_env_var_disables_runtime_checks():
    env = dict(os.environ)
    env["REPRO_SHAPE_CHECKS"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    script = (
        "import numpy as np\n"
        "from repro.contracts import shaped, shape_checks_enabled\n"
        "assert not shape_checks_enabled()\n"
        "@shaped(x='(n, m)')\n"
        "def f(x):\n"
        "    return x\n"
        "f(np.zeros(5))  # rank violation, but checks are off\n"
        "print('ok')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
    # In this process (checks on by default) the same call must raise.
    assert shape_checks_enabled()


def test_py_typed_marker_ships_with_the_package():
    # The annotations and contracts are only visible to downstream
    # checkers when the PEP 561 marker is packaged.
    import tomllib

    assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    package_data = pyproject["tool"]["setuptools"]["package-data"]
    assert "py.typed" in package_data["repro"]
