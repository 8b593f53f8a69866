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

Reads are incremental: each :class:`ResultStore` keeps an in-memory index
holding the raw line of the latest record of every key asked for so far,
together with the log's inode and the offset of its last complete line,
and a read indexes only the bytes appended since the previous one — a
read of an unchanged log costs one ``stat``.  Lines of keys never asked
for are passed over unparsed, so a small grid resumes from a large shared
store without holding it in memory; asking for a new key re-reads the log
once (``keys()`` and ``len()`` cover every key).

The store is append-only: a re-put of an existing key appends a newer
record and readers take the last one (the engine is deterministic, so
duplicate records for a key carry identical payloads).  ``clear()`` or an
occasional directory wipe is the only compaction it needs.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterable, Iterator, Mapping, Optional, Set, Union

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


def _record_key(line: bytes) -> Optional[str]:
    """Key of one intact record line, or ``None`` for anything else.

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
        return record["key"]
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
        #: Keys the index covers: every key asked for so far (``None``:
        #: every key in the store).
        self._wanted: Optional[Set[str]] = set()
        #: Raw line of each covered key's latest intact record; ``None``
        #: until the next read rebuilds it.
        self._lines: Optional[Dict[str, bytes]] = None
        #: The indexed log, opened for reading, its inode (``None``: no log
        #: yet) and the offset just past its last indexed line.  Holding
        #: the file open keeps the inode from being reused by a re-created
        #: log.
        self._file: Optional[BinaryIO] = None
        self._close: Callable[[], object] = lambda: None
        self._inode: Optional[int] = None
        self._offset = 0

    # -- index ---------------------------------------------------------
    def _index(self, lines: Iterable[bytes]) -> None:
        """Index the intact record lines of covered keys; later lines win.

        A line ``put`` wrote starts with its key, so the lines of keys the
        index does not cover are passed over without being parsed.
        """
        wanted = self._wanted
        for line in lines:
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
            key = _record_key(line)
            if key is not None and (wanted is None or key in wanted):
                self._lines[key] = line

    def _appended_lines(self) -> Iterator[bytes]:
        """The log's complete lines past the indexed offset, advancing it.

        A partly written last line is left for a read after an append
        completes it.
        """
        self._file.seek(self._offset)
        for line in self._file:
            if not line.endswith(b"\n"):
                return
            self._offset += len(line)
            yield line

    def _refresh(self, keys: Optional[Iterable[str]] = None) -> Dict[str, bytes]:
        """Bring the index up to date for ``keys`` (``None``: every key).

        Reads only the bytes appended since the last call, so a call on an
        unchanged log costs one ``stat``.  The index is rebuilt from
        scratch on the first call, when it must cover a key it did not
        cover so far, when the log's inode changes (it was deleted and
        re-created) and when the log shrinks.  Call with ``self._lock``
        held.
        """
        if self._wanted is not None:
            if keys is None:
                self._wanted, self._lines = None, None
            elif not self._wanted.issuperset(keys):
                self._wanted.update(keys)
                self._lines = None
        try:
            stat = os.stat(self.log_path)
            inode, size = stat.st_ino, stat.st_size
        except OSError:
            inode, size = None, 0
        if self._lines is None or inode != self._inode or size < self._offset:
            self._lines = {}
            self._close()
            self._file, self._inode, self._offset = None, None, 0
            if inode is None:
                return self._lines
            try:
                self._file = open(self.log_path, "rb")
            except OSError:
                return self._lines
            self._close = weakref.finalize(self, self._file.close)
            self._inode = os.fstat(self._file.fileno()).st_ino
        if size > self._offset:
            self._index(self._appended_lines())
        return self._lines

    # -- reads ---------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Latest payload stored under ``key``, or ``None``."""
        with self._lock:
            line = self._refresh([key]).get(key)
        return None if line is None else json.loads(line)["payload"]

    def get_many(self, keys: Iterable[str]) -> Dict[str, dict]:
        """Latest payloads for every present key, in one index refresh.

        This is the resume fast path: a warm re-run of a whole grid costs
        one read of the log's new bytes instead of one per point.
        """
        keys = set(keys)
        with self._lock:
            index = self._refresh(keys)
            lines = {key: index[key] for key in keys if key in index}
        return {key: json.loads(line)["payload"] for key, line in lines.items()}

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._refresh([key])

    def keys(self) -> set:
        """Every distinct key with at least one intact record."""
        with self._lock:
            return set(self._refresh())

    def __len__(self) -> int:
        with self._lock:
            return len(self._refresh())

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
            removed = len(self._refresh())
            try:
                self.log_path.unlink()
            except OSError:
                pass
            self._close()
            self._lines, self._wanted = None, set()
        return removed
