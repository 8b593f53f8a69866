"""Append-only, content-keyed per-point result store.

Rather than one opaque file per whole :class:`~repro.sim.spec.SweepSpec`,
this store keeps one *record* per ``(engine_version, point_key)`` — the content hash a
:meth:`~repro.sim.spec.SweepPoint.content_key` computes from the cell's
physics and budget.  Records live in one append-only JSONL log per store
directory (``records.jsonl``), and a commit appends a whole batch of them
with one ``write`` + ``fsync``, which buys three properties the scale-out
sweep layer needs:

* **sharing** — two overlapping grids hash their common cells to the same
  keys, so the intersection is simulated once and read twice;
* **resumability** — every record is durable the moment its commit
  returns; the runner commits the points that finished in each drain
  step, so an interrupted sweep re-run loads the finished points and
  simulates only the remainder;
* **concurrency** — commits take an exclusive ``flock`` on the log, write
  their lines with a single ``write`` + ``fsync``, and the reader skips
  torn or foreign lines, so multiple runners can share one store
  directory without corrupting it.

Every read is one pass over the log's complete lines: nothing is kept
between reads, so a read always sees every commit that returned before it
started.  Lines of keys not asked for are passed over unparsed, so a small
grid resumes from a large shared store without holding it in memory.  The
price is that a large store is scanned again on each read (about 0.2 s at
110,000 records); the runner reads once per drain, at its resume.

The store is append-only: a re-put of an existing key appends a newer
record and readers take the last one (the engine is deterministic, so
duplicate records for a key carry identical payloads).  ``clear()`` or an
occasional directory wipe is the only compaction it needs.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple, Union

try:  # POSIX log locking; other platforms fall back to the thread lock.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.sim.cache import default_cache_dir

#: File name of the append-only record log inside the store directory.
LOG_NAME = "records.jsonl"

#: Start of every line ``put`` writes: ``sort_keys`` puts ``"key"`` first.
_KEY_PREFIX = b'{"key":"'


def default_store_dir() -> Path:
    """The shared store directory: ``<cache dir>/points``.

    Lives inside the :func:`~repro.sim.cache.default_cache_dir` tree (and
    therefore honours ``REPRO_SIM_CACHE_DIR``) in its own subdirectory, so
    its record log never mixes with other files in the cache root.
    """
    return default_cache_dir() / "points"


def _record(line: bytes) -> Optional[Tuple[str, dict]]:
    """``(key, payload)`` of one intact record line, or ``None`` for anything else.

    Torn lines (a writer died mid-``write``), foreign lines, undecodable
    bytes and records without the expected shape are skipped, never
    raised: corruption in an append-only store means "this record is
    missing", not "the sweep crashes".
    """
    try:
        record = json.loads(line)
    except ValueError:  # UnicodeDecodeError included
        return None
    if (
        isinstance(record, dict)
        and isinstance(record.get("key"), str)
        and isinstance(record.get("payload"), dict)
    ):
        return record["key"], record["payload"]
    return None


class ResultStore:
    """Content-keyed record store over one append-only JSONL log.

    Every record is one JSON line ``{"key": ..., "payload": {...}}``.

    Parameters
    ----------
    directory:
        Store directory; defaults to :func:`default_store_dir`.
    """

    def __init__(self, directory: Union[None, str, Path] = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_store_dir()
        )
        self.log_path = self.directory / LOG_NAME
        self._lock = threading.Lock()

    def _scan(self, wanted: Optional[Set[str]] = None) -> Iterator[Tuple[str, dict]]:
        """``(key, payload)`` of every intact record of a ``wanted`` key
        (``None``: every key), in log order, in one pass over the log.

        Each of those lines is parsed once.  A line ``put`` wrote starts
        with its key, so the lines of other keys are passed over without
        being parsed.  A partly written last line is left for a read after
        an append completes it.
        """
        try:
            log = open(self.log_path, "rb")
        except OSError:
            return
        with log:
            for line in log:
                if not line.endswith(b"\n"):
                    break
                if wanted is not None and line.startswith(_KEY_PREFIX):
                    end = line.find(b'"', len(_KEY_PREFIX))
                    claimed = line[len(_KEY_PREFIX) : end]
                    if (
                        end > 0
                        and claimed.isascii()
                        and b"\\" not in claimed
                        and claimed.decode("ascii") not in wanted
                    ):
                        continue
                record = _record(line)
                if record is not None and (wanted is None or record[0] in wanted):
                    yield record

    # -- reads ---------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Latest payload stored under ``key``, or ``None``."""
        return dict(self._scan({key})).get(key)

    def get_many(self, keys: Iterable[str]) -> Dict[str, dict]:
        """Latest payloads for every present key, in one pass over the log.

        This is the resume fast path: a warm re-run of a whole grid costs
        one read of the log instead of one per point.
        """
        return dict(self._scan(set(keys)))

    def __contains__(self, key: str) -> bool:
        return any(self._scan({key}))

    def keys(self) -> set:
        """Every distinct key with at least one intact record."""
        return {key for key, _ in self._scan()}

    def __len__(self) -> int:
        return len(self.keys())

    # -- writes --------------------------------------------------------
    def put(self, records: Mapping[str, dict]) -> Path:
        """Commit ``{key: payload}`` records atomically; returns the log path.

        The commit is a single ``write`` of every record's line under an
        exclusive lock on the log, followed by one ``fsync``.  If a
        previous writer died mid-line (the log's last byte is not a
        newline), the write starts with a newline so the torn tail can
        never concatenate with — and corrupt — the first record.
        """
        if not records:
            return self.log_path
        data = b"".join(
            json.dumps(
                {"key": key, "payload": payload}, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            + b"\n"
            for key, payload in records.items()
        )
        with self._lock:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.log_path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                try:
                    size = os.fstat(fd).st_size
                    if size > 0:
                        os.lseek(fd, size - 1, os.SEEK_SET)
                        if os.read(fd, 1) != b"\n":
                            data = b"\n" + data
                    os.write(fd, data)
                    os.fsync(fd)
                finally:
                    if fcntl is not None:
                        fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
        return self.log_path

    def clear(self) -> int:
        """Delete the log; returns the number of keys removed."""
        with self._lock:
            removed = len(self.keys())
            try:
                self.log_path.unlink()
            except OSError:
                pass
        return removed
