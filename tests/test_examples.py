"""Smoke tests that the example scripts run and produce their key output."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return result.stdout


def test_quickstart_decodes_without_error():
    output = _run("quickstart.py")
    assert "bit error rate" in output
    assert "decoded without error" in output


def test_resource_report_reproduces_tables():
    output = _run("resource_report.py")
    assert "33,423" in output  # Table 1 ALUTs
    assert "183,957" in output  # Table 3 ALUTs
    assert "(paper: 86% and 77%)" in output


def test_hardware_pipeline_reports_qrd_latency():
    output = _run("hardware_pipeline.py")
    assert "440 cycles" in output
    assert "required data FIFO depth    : 1586 samples" in output


@pytest.mark.slow
def test_ber_waterfall_small_run():
    output = _run("ber_waterfall.py", "--bursts", "1", "--bits", "100")
    assert "1 Gbps headline" in output


@pytest.mark.slow
def test_resumable_sweep_small_run():
    output = _run("resumable_sweep.py", "--bursts", "2", "--bits", "64")
    assert "resume of the full grid" in output
    assert "warm re-run: 0 bursts simulated [store" in output
    assert "Wilson interval" in output


@pytest.mark.slow
def test_streaming_downlink_small_payload():
    output = _run("streaming_downlink.py", "--kilobytes", "1")
    assert "goodput" in output


@pytest.mark.slow
def test_multiuser_load_small_population():
    output = _run(
        "multiuser_load.py", "--users", "12", "--frames", "2", "--rate", "5000"
    )
    assert "sustained rate" in output
    assert "per-user latency percentiles" in output


@pytest.mark.slow
def test_impairment_sensitivity_small_run():
    output = _run("impairment_sensitivity.py", "--bursts", "1", "--bits", "100")
    assert "BER vs normalised CFO" in output
    assert "BER vs TX/RX sample word length" in output
