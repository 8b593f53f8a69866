"""Content-hash keys and the result-cache directory.

:func:`content_key` is the one canonical hash of a JSON-serialisable
payload; the result store keys every sweep point with it.  :func:`default_cache_dir` is
the root under which :class:`~repro.sim.store.ResultStore` keeps its
records: ``~/.cache/repro-sim`` unless the ``REPRO_SIM_CACHE_DIR``
environment variable overrides it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

_ENV_VAR = "REPRO_SIM_CACHE_DIR"

#: The canonical form behind :func:`content_key`, built once: sorted keys,
#: compact separators (what ``json.dumps`` with those arguments writes).
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def content_key(payload: dict, prefix: str = "") -> str:
    """Content hash of a JSON-serialisable payload, usable as a cache key.

    The single canonicalisation recipe (sorted keys, compact separators,
    SHA-256, 20 hex chars) behind :meth:`repro.sim.spec.SweepPoint.content_key`,
    so keying behaviour has one definition.
    """
    canonical = _CANONICAL.encode(payload)
    return prefix + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment or the home dir."""
    override = os.environ.get(_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-sim"
