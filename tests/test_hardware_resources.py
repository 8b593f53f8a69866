"""Tests for repro.hardware.resources."""

import pytest

from repro.hardware.estimator import STRATIX_IV_DEVICE
from repro.hardware.resources import ResourceReport, ResourceUsage


class TestResourceUsage:
    def test_addition(self):
        total = ResourceUsage(aluts=10, registers=20) + ResourceUsage(
            aluts=5, memory_bits=100, dsp_blocks=2
        )
        assert total == ResourceUsage(aluts=15, registers=20, memory_bits=100, dsp_blocks=2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceUsage(aluts=-1)

    def test_as_dict(self):
        usage = ResourceUsage(aluts=1, registers=2, memory_bits=3, dsp_blocks=4)
        assert usage.as_dict() == {
            "aluts": 1,
            "registers": 2,
            "memory_bits": 3,
            "dsp_blocks": 4,
        }


class TestResourceReport:
    def _report(self) -> ResourceReport:
        report = ResourceReport(name="test")
        report.add_entity("fft", ResourceUsage(aluts=100, dsp_blocks=8))
        report.add_entity("viterbi", ResourceUsage(aluts=50, memory_bits=1000))
        report.glue = {"aluts": 10}
        return report

    def test_total_includes_glue(self):
        assert self._report().total().aluts == 160

    def test_negative_glue_clips_at_zero(self):
        report = self._report()
        report.glue = {"aluts": -40, "memory_bits": -5_000}
        assert report.total() == ResourceUsage(aluts=110, memory_bits=0, dsp_blocks=8)

    def test_add_entity_accumulates(self):
        report = self._report()
        report.add_entity("fft", ResourceUsage(aluts=100))
        assert report.entities["fft"].aluts == 200

    def test_utilization_percentages(self):
        report = self._report()
        utilization = report.utilization(STRATIX_IV_DEVICE)
        assert utilization["aluts"] == pytest.approx(100.0 * 160 / STRATIX_IV_DEVICE.aluts)

    def test_entity_share(self):
        report = self._report()
        share = report.entity_share(["fft"])
        assert share["aluts"] == pytest.approx(100 / 160)
        assert share["dsp_blocks"] == pytest.approx(1.0)

    def test_entity_share_unknown_entity(self):
        with pytest.raises(KeyError):
            self._report().entity_share(["unknown"])
