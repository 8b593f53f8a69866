"""Import layering of the air path, read from the source with ``ast``.

The channel is the bottom of the link: it may not import the transceiver
(``repro.core``), the sweep engine (``repro.sim``) or the streaming
service (``repro.stream``).  The stream reaches the air through
``repro.core.transceiver`` and may not import the sweep engine.  The
link's stages (``core``, ``mimo``, ``coding``, ``dsp``, ``modulation``,
``sync``) import none of the hardware models, the sweep or the stream:
the hardware models read their sizes from the link, not the other way.  A
runtime ``sys.modules`` check cannot show this, because ``import repro``
already loads ``repro.sim``; parsing each module's imports can.

The same parse keeps the sweep's early-stopping rule in one place: in
``repro.sim`` only ``spec.py`` reads ``target_errors``; and the burst
format: in ``repro`` only ``core/preamble.py`` builds a ``BurstLayout`` or
sizes a code block with ``coded_length``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The link's stages sit below the hardware models, which read their
#: sizes from a ``TransceiverConfig``, and below the sweep and the stream.
_LINK_ABOVE = ("repro.hardware", "repro.sim", "repro.stream")

FORBIDDEN = {
    "channel": ("repro.core", "repro.sim", "repro.stream"),
    "stream": ("repro.sim",),
    **{
        package: _LINK_ABOVE
        for package in ("core", "mimo", "coding", "dsp", "modulation", "sync")
    },
}


def imported_modules(path: Path) -> list:
    """Every module an ``import`` or ``from ... import`` in ``path`` names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return names


def test_imported_modules_reads_every_import_form(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import repro.sim.engine as engine\n"
        "from repro.core import transceiver\n"
        "def late():\n"
        "    from repro.stream.scheduler import FRAMES_PER_PUSH\n",
        encoding="utf-8",
    )
    assert imported_modules(module) == ["repro.sim.engine", "repro.core", "repro.stream.scheduler"]


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_package_imports_no_higher_layer(package):
    modules = sorted((PACKAGE / package).glob("*.py"))
    assert modules
    offending = [
        f"{path.name}: {name}"
        for path in modules
        for name in imported_modules(path)
        if any(name == layer or name.startswith(layer + ".") for layer in FORBIDDEN[package])
    ]
    assert offending == []


def target_errors_reads(path: Path) -> list:
    """Line numbers where ``path`` reads a ``.target_errors`` attribute.

    Keyword arguments (``subset(target_errors=None)``) and assignments are
    not reads.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr == "target_errors"
        and isinstance(node.ctx, ast.Load)
    ]


def test_target_errors_reads_skips_keywords_and_stores(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "spec.subset(target_errors=None)\n"
        "spec.target_errors = 3\n"
        "limit = spec.target_errors\n",
        encoding="utf-8",
    )
    assert target_errors_reads(module) == [3]


def test_only_the_spec_reads_the_stop_target():
    # The early-stopping rule lives in SweepSpec.stops_at; the scheduler,
    # the fold and the work unit ask it instead of restating it.
    modules = sorted((PACKAGE / "sim").glob("*.py"))
    assert modules
    offending = [
        f"{path.name}:{line}"
        for path in modules
        if path.name != "spec.py"
        for line in target_errors_reads(path)
    ]
    assert offending == []


def burst_format_calls(path: Path) -> list:
    """Line numbers where ``path`` calls ``BurstLayout(...)`` or a
    ``coded_length(...)``.

    Reading a layout's ``coded_length`` field, or passing it as a keyword,
    is not a call.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("BurstLayout", "coded_length")
    ]


def test_burst_format_calls_skips_reads_and_keywords(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "layout = preamble.BurstLayout(coded_length=4)\n"
        "n = code.coded_length(96)\n"
        "m = layout.coded_length\n"
        "values(coded_length=m)\n",
        encoding="utf-8",
    )
    assert burst_format_calls(module) == [1, 2]


def test_only_the_preamble_module_sizes_a_burst():
    # The burst format lives in burst_layout; the transmitter, the receiver
    # and the stream detector read its record instead of restating it.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    offending = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in modules
        if path != PACKAGE / "core" / "preamble.py"
        for line in burst_format_calls(path)
    ]
    assert offending == []
