"""Sharded, append-friendly per-point result store.

Rather than one opaque file per whole :class:`~repro.sim.spec.SweepSpec`,
this store keeps one *record* per ``(engine_version, point_key)`` — the content hash a
:meth:`~repro.sim.spec.SweepPoint.content_key` computes from the cell's
physics and budget.  Records live in 256 hash-sharded JSONL files, each
appended to with an atomic per-record commit, which buys three properties
the scale-out sweep layer needs:

* **sharing** — two overlapping grids hash their common cells to the same
  keys, so the intersection is simulated once and read twice;
* **resumability** — every finished point is durable the moment its record
  is committed; an interrupted sweep re-run loads the finished points and
  simulates only the remainder;
* **concurrency** — appends take an exclusive ``flock`` on the shard, a
  record is written with a single ``write`` + ``fsync``, and the reader
  skips torn or foreign lines, so multiple runners can share one store
  directory without corrupting it.

The store is append-only: a re-put of an existing key appends a newer
record and readers take the last one (the engine is deterministic, so
duplicate records for a key carry identical payloads).  ``clear()`` or an
occasional directory wipe is the only compaction it needs.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

try:  # POSIX shard locking; other platforms fall back to the thread lock.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.sim.cache import default_cache_dir

#: Number of hex characters of the key hash that select a shard (two chars
#: = 256 shards, plenty for millions of point-sized records).
_SHARD_CHARS = 2


def default_store_dir() -> Path:
    """The shared store directory: ``<cache dir>/points``.

    Lives inside the :func:`~repro.sim.cache.default_cache_dir` tree (and
    therefore honours ``REPRO_SIM_CACHE_DIR``) in its own subdirectory, so
    its ``*.jsonl`` shards never mix with other files in the cache root.
    """
    return default_cache_dir() / "points"


class ResultStore:
    """Content-keyed record store over hash-sharded JSONL files.

    Every record is one JSON line ``{"key": ..., "payload": {...}}``; the
    shard a key lives in is derived from a hash of the key string, so the
    key's own format (prefixes included) never skews the distribution.

    Parameters
    ----------
    directory:
        Shard directory; defaults to :func:`default_store_dir`.
    """

    def __init__(self, directory: Union[None, str, Path] = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_store_dir()
        )
        self._lock = threading.Lock()

    # -- layout --------------------------------------------------------
    def shard_path(self, key: str) -> Path:
        """Shard file holding ``key``'s records."""
        shard = hashlib.sha256(key.encode("utf-8")).hexdigest()[:_SHARD_CHARS]
        return self.directory / f"{shard}.jsonl"

    @staticmethod
    def _iter_shard(path: Path) -> Iterator[Tuple[str, dict]]:
        """Yield ``(key, payload)`` for every intact record of one shard.

        Torn lines (a writer died mid-``write``), foreign files and records
        without the expected shape are skipped, never raised: corruption in
        an append-only store means "this record is missing", not "the sweep
        crashes".
        """
        try:
            # Records are ASCII JSON; undecodable bytes can only belong to
            # foreign or damaged lines, which then fail to parse below.
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if (
                isinstance(record, dict)
                and isinstance(record.get("key"), str)
                and isinstance(record.get("payload"), dict)
            ):
                yield record["key"], record["payload"]

    # -- reads ---------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Latest payload stored under ``key``, or ``None``."""
        found = None
        for record_key, payload in self._iter_shard(self.shard_path(key)):
            if record_key == key:
                found = payload
        return found

    def get_many(self, keys: Iterable[str]) -> Dict[str, dict]:
        """Latest payloads for every present key, reading each shard once.

        This is the resume fast path: a whole grid's worth of keys usually
        maps onto a handful of shards, so a warm re-run costs a few file
        reads instead of one per point.
        """
        wanted = set(keys)
        by_shard: Dict[Path, set] = {}
        for key in wanted:
            by_shard.setdefault(self.shard_path(key), set()).add(key)
        found: Dict[str, dict] = {}
        for shard, shard_keys in by_shard.items():
            for record_key, payload in self._iter_shard(shard):
                if record_key in shard_keys:
                    found[record_key] = payload
        return found

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> set:
        """Every distinct key with at least one intact record."""
        found = set()
        if self.directory.is_dir():
            for shard in sorted(self.directory.glob("*.jsonl")):
                for key, _ in self._iter_shard(shard):
                    found.add(key)
        return found

    def __len__(self) -> int:
        return len(self.keys())

    # -- writes --------------------------------------------------------
    def put(self, key: str, payload: dict) -> Path:
        """Append one record atomically; returns the shard path.

        The commit is a single ``write`` of the full line under an
        exclusive shard lock, followed by ``fsync``.  If a previous writer
        died mid-line (the shard's last byte is not a newline), a newline
        is appended first so the torn tail can never concatenate with — and
        corrupt — this record.
        """
        line = json.dumps(
            {"key": key, "payload": payload}, sort_keys=True, separators=(",", ":")
        )
        data = (line + "\n").encode("utf-8")
        path = self.shard_path(key)
        with self._lock:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                try:
                    size = os.fstat(fd).st_size
                    if size > 0:
                        os.lseek(fd, size - 1, os.SEEK_SET)
                        if os.read(fd, 1) != b"\n":
                            os.write(fd, b"\n")
                    os.write(fd, data)
                    os.fsync(fd)
                finally:
                    if fcntl is not None:
                        fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
        return path

    def clear(self) -> int:
        """Delete every shard; returns the number of intact records removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for shard in self.directory.glob("*.jsonl"):
            removed += sum(1 for _ in self._iter_shard(shard))
            try:
                shard.unlink()
            except OSError:
                pass
        return removed
