"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table, figure-level claim or ablation from
the paper's evaluation (the file name says which: ``test_table*``,
``test_claim_*``, ``test_ablation_*``) and prints the reproduced rows next
to the paper's reported values, so the textual output of
``pytest benchmarks/ -s`` doubles as the reproduction report.  Each case
runs its workload once; throughput is measured by ``perfbench/``, not here.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import pytest


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print an aligned table to stdout (shown by ``pytest -s``)."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    separator = "-+-".join("-" * widths[i] for i in range(len(headers)))
    print()
    print(f"=== {title} ===")
    print(line)
    print(separator)
    for row in rows:
        print(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def relative_error(measured: float, reported: float) -> float:
    """Relative error of a measured value against the paper's reported value."""
    if reported == 0:
        return abs(measured)
    return abs(measured - reported) / abs(reported)


@pytest.fixture
def table_printer():
    """Fixture exposing :func:`print_table` to benchmarks."""
    return print_table
