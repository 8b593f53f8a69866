"""Shipped rule modules — importing this package registers every rule."""

from __future__ import annotations

from repro_lint.rules import (  # noqa: F401  (import-for-side-effect)
    determinism,
    exceptions,
    seam,
)
