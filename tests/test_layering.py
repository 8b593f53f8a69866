"""Import layering of the air path, read from the source with ``ast``.

The channel is the bottom of the link: it may not import the transceiver
(``repro.core``), the sweep engine (``repro.sim``) or the streaming
service (``repro.stream``).  The stream reaches the air through
``repro.core.transceiver`` and may not import the sweep engine.  A
runtime ``sys.modules`` check cannot show this, because ``import repro``
already loads ``repro.sim``; parsing each module's imports can.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

FORBIDDEN = {
    "channel": ("repro.core", "repro.sim", "repro.stream"),
    "stream": ("repro.sim",),
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
