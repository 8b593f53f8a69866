"""The documentation gate of ``tools/docs_check.py`` holds on the tree.

``make docs-check`` runs the same gate from the command line; this test
keeps it in the tier-1 suite, so a module without a docstring, a
required doc page that loses its section, a doc citing a ``repro`` name
or an exported class's member that no longer resolves, or a docstring
cross-referencing one, fails the tests.  The PEP 561
marker that publishes the package's annotations is checked here too.
"""

import importlib.util
import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
TOOL = REPO_ROOT / "tools" / "docs_check.py"


def _docs_check():
    spec = importlib.util.spec_from_file_location("docs_check", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_module_has_a_docstring():
    docs_check = _docs_check()
    modules = docs_check.public_modules(docs_check.PACKAGE_ROOT)
    assert docs_check.missing_docstrings(modules) == []


def test_required_doc_pages_are_present_and_linked():
    assert _docs_check().missing_required_docs() == []


def test_every_cited_repro_name_resolves():
    docs_check = _docs_check()
    assert docs_check.unresolved_names(docs_check.doc_pages()) == []


def test_a_page_citing_a_missing_name_is_caught(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "Live: `repro.sim.SweepSpec`, `repro.dsp.fft`, "
        "`repro.core.transceiver.air_round(transmitter, cells, n_info_bits)`.\n"
        "Gone: `repro.sim.no_such_name`, `repro.no_such_module.thing`.\n",
        encoding="utf-8",
    )
    assert _docs_check().unresolved_names([page]) == [
        "page.md: repro.sim.no_such_name",
        "page.md: repro.no_such_module.thing",
    ]


def test_a_page_citing_a_missing_member_is_caught(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "Live: `ReceiveResult.total_bit_errors`, `ReceiveResult.decoded_bits`, "
        "`MimoReceiver.receive_stack(samples, n_info_bits)`, `np.sum`, "
        "`frame.outcome.decoded_bits`.\n"
        "Gone: `ReceiveResult.streams`, `MimoReceiver.front_end_stack(samples, 96)`.\n",
        encoding="utf-8",
    )
    assert _docs_check().unresolved_names([page]) == [
        "page.md: ReceiveResult.streams",
        "page.md: MimoReceiver.front_end_stack",
    ]


def test_every_docstring_cross_reference_resolves():
    docs_check = _docs_check()
    sources = sorted(docs_check.PACKAGE_ROOT.rglob("*.py"))
    assert docs_check.unresolved_cross_references(sources) == []


def test_a_docstring_cross_referencing_a_missing_name_is_caught(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""Live: :class:`repro.sim.SweepSpec`, :mod:`repro.dsp.fft`,\n'
        ":meth:`~repro.core.receiver.MimoReceiver.decode`,\n"
        ":attr:`~repro.core.frame.FrontEndResult.coded`.\n"
        "Gone: :func:`~repro.channel.impairments.apply_sample_delay`,\n"
        ':class:`repro.hardware.clock.ThroughputModel`.\n"""\n',
        encoding="utf-8",
    )
    assert _docs_check().unresolved_cross_references([module]) == [
        "module.py: repro.channel.impairments.apply_sample_delay",
        "module.py: repro.hardware.clock.ThroughputModel",
    ]


def test_py_typed_marker_ships_with_the_package():
    # The annotations are only visible to downstream checkers when the
    # PEP 561 marker is packaged.
    assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    package_data = pyproject["tool"]["setuptools"]["package-data"]
    assert "py.typed" in package_data["repro"]


def test_the_version_is_stated_once():
    # The project metadata takes its version from ``repro.__version__``,
    # so the two cannot disagree.
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    dynamic = pyproject["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}
