"""Tests for repro.sim.store: one append-only log, group commits, one pass per read."""

import json
import multiprocessing
import os
import threading

import pytest

from repro.sim.cache import default_cache_dir
import repro.sim.store as store_module
from repro.sim.store import ResultStore, default_store_dir


class TestLayout:
    def test_default_dir_nests_inside_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
        assert default_store_dir() == default_cache_dir() / "points"
        assert ResultStore().directory == tmp_path / "points"

    def test_log_path_is_one_jsonl_file_in_the_directory(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.log_path == tmp_path / "records.jsonl"
        assert store.log_path.suffix == ".jsonl"

    def test_every_record_lands_in_the_one_log(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(200):
            store.put({f"pt-{i:020d}": {"i": i}})
        assert [path.name for path in tmp_path.iterdir()] == ["records.jsonl"]
        assert len(store.log_path.read_text().splitlines()) == 200
        assert len(store) == 200


class TestRoundTrip:
    def test_get_put_contains_len(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("missing") is None
        assert "missing" not in store
        store.put({"a": {"value": 1}})
        store.put({"b": {"value": 2}})
        assert store.get("a") == {"value": 1}
        assert "b" in store
        assert store.keys() == {"a", "b"}
        assert len(store) == 2

    def test_re_put_appends_and_last_record_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put({"k": {"value": 1}})
        store.put({"k": {"value": 2}})
        assert store.get("k") == {"value": 2}
        assert len(store) == 1  # one distinct key, two appended records
        lines = store.log_path.read_text().splitlines()
        assert len(lines) == 2

    def test_a_cold_read_parses_only_the_lines_of_the_keys_asked_for(
        self, tmp_path, monkeypatch
    ):
        # A small grid resuming from a large shared store must not parse
        # (or hold) the records of every other grid in it.
        writer = ResultStore(tmp_path)
        writer.put({f"key-{i}": {"i": i} for i in range(200)})
        writer.put({"key-7": {"i": "again"}})
        parsed = []
        original = store_module._record

        def counting(line):
            parsed.append(line)
            return original(line)

        monkeypatch.setattr(store_module, "_record", counting)
        reader = ResultStore(tmp_path)
        assert reader.get_many(["key-3", "key-7", "absent"]) == {
            "key-3": {"i": 3},
            "key-7": {"i": "again"},
        }
        assert len(parsed) == 3  # key-3 and both records of key-7
        parsed.clear()
        assert reader.get("key-150") == {"i": 150}  # each read is its own pass
        assert len(parsed) == 1
        assert len(reader) == 200 and reader.get("key-7") == {"i": "again"}

    def test_a_read_parses_each_wanted_line_once(self, tmp_path, monkeypatch):
        # The line parsed to validate a record also yields its payload.
        writer = ResultStore(tmp_path)
        writer.put({f"key-{i}": {"i": i} for i in range(20)})
        writer.put({"key-7": {"i": "again"}})
        parsed = []
        loads = json.loads

        def counting(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(store_module.json, "loads", counting)
        reader = ResultStore(tmp_path)
        assert reader.get_many(["key-3", "key-7", "absent"]) == {
            "key-3": {"i": 3},
            "key-7": {"i": "again"},
        }
        assert len(parsed) == 3  # key-3 and both records of key-7
        parsed.clear()
        assert reader.get("key-7") == {"i": "again"}
        assert len(parsed) == 2
        parsed.clear()
        # A key listing still validates every line: a torn line is no key.
        assert len(reader) == 20 and len(parsed) == 21

    def test_get_many_last_record_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put({"k": {"value": 1}})
        store.put({"k": {"value": 2}})
        store.put({"j": {"value": 3}})
        assert store.get_many(["k", "j"]) == {"k": {"value": 2}, "j": {"value": 3}}

    def test_float_payloads_round_trip_exactly(self, tmp_path):
        # Cached sweep points must come back bit-identical to a fresh run.
        values = [0.1, 1e-300, 2.0 ** -1074, 1.0 / 3.0, -0.0, 1e308]
        store = ResultStore(tmp_path)
        store.put({"k": {"ber": values, "nested": {"per": values[3]}}})
        payload = store.get("k")
        assert payload["ber"] == values
        assert [repr(v) for v in payload["ber"]] == [repr(v) for v in values]
        assert payload["nested"]["per"] == values[3]

    def test_put_fsyncs_the_record(self, tmp_path, monkeypatch):
        # The records are durable before put() returns: one fsync follows
        # one write of all their lines on the same descriptor.
        events = []
        real_write, real_fsync = os.write, os.fsync
        monkeypatch.setattr(
            "repro.sim.store.os.write",
            lambda fd, data: (events.append(("write", fd)), real_write(fd, data))[1],
        )
        monkeypatch.setattr(
            "repro.sim.store.os.fsync",
            lambda fd: (events.append(("fsync", fd)), real_fsync(fd))[1],
        )
        store = ResultStore(tmp_path)
        store.put({"k": {"value": 1}})
        assert [kind for kind, _ in events] == ["write", "fsync"]
        assert events[0][1] == events[1][1]
        events.clear()
        batch = {f"key-{i}": {"value": i} for i in range(25)}
        store.put(batch)
        assert [kind for kind, _ in events] == ["write", "fsync"]
        assert events[0][1] == events[1][1]
        assert store.get_many(batch) == batch
        assert len(store.log_path.read_text().splitlines()) == 26

    def test_empty_commit_touches_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put({})
        assert not store.log_path.exists()

    def test_concurrent_puts_keep_every_record(self, tmp_path):
        store = ResultStore(tmp_path)

        def writer(base):
            for i in range(25):
                store.put({f"key-{base + i}": {"i": base + i}})

        threads = [threading.Thread(target=writer, args=(100 * t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(store) == 100
        assert store.get("key-324") == {"i": 324}

    def test_clear_counts_and_removes(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put({"a": {}})
        store.put({"b": {}})
        assert store.clear() == 2
        assert store.get("a") is None
        assert list(tmp_path.glob("*.jsonl")) == []
        assert store.clear() == 0

    def test_index_is_rebuilt_after_clear_and_log_recreation(self, tmp_path):
        store = ResultStore(tmp_path)
        other = ResultStore(tmp_path)
        store.put({"a": {"value": 1}, "b": {"value": 2}})
        assert other.keys() == {"a", "b"}
        # Cleared and re-created by this instance...
        assert store.clear() == 2
        assert store.keys() == set()
        store.put({"c": {"value": 3}})
        assert store.keys() == {"c"}
        # ...and seen by another instance, which read the log before both.
        assert other.get("a") is None
        assert other.keys() == {"c"}
        # A re-created log longer than the one read before is read whole.
        other.clear()
        store.put({f"key-{i}": {"i": i} for i in range(10)})
        assert store.get("c") is None
        assert len(store) == 10

    def test_returned_payloads_are_fresh(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put({"k": {"value": 1, "nested": {"per": 0.5}}})
        payload = store.get("k")
        payload["value"] = 99
        payload["nested"]["per"] = 1.0
        many = store.get_many(["k"])
        many["k"]["value"] = 77
        assert store.get("k") == {"value": 1, "nested": {"per": 0.5}}
        assert store.get_many(["k"]) == {"k": {"value": 1, "nested": {"per": 0.5}}}

    def test_processes_commit_into_one_store_at_once(self, tmp_path):
        # More writers than a small host has cores, released together by a
        # barrier so that their commits interleave.
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(3)
        writers = [
            context.Process(target=_commit_batches, args=(str(tmp_path), base, barrier))
            for base in (0, 1000, 2000)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        store = ResultStore(tmp_path)
        expected = {
            f"key-{base + i}": {"i": base + i} for base in (0, 1000, 2000) for i in range(120)
        }
        assert store.get_many(expected) == expected
        assert len(store) == len(expected)
        lines = store.log_path.read_text().splitlines()
        assert len(lines) == len(expected)  # no torn or merged line
        assert all(json.loads(line)["key"] in expected for line in lines)


def _commit_batches(directory: str, base: int, barrier) -> None:
    """Commit 120 records in batches of 4 (a spawned process's target)."""
    store = ResultStore(directory)
    barrier.wait(timeout=30)
    for start in range(0, 120, 4):
        store.put({f"key-{base + i}": {"i": base + i} for i in range(start, start + 4)})


class TestCorruptionTolerance:
    def test_torn_last_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put({"k": {"value": 1}})
        log = store.log_path
        with log.open("a") as handle:
            handle.write('{"key": "torn", "payl')  # writer died mid-record
        assert store.get("k") == {"value": 1}
        assert store.get("torn") is None

    def test_partial_last_line_is_read_once_an_append_completes_it(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put({"k": {"value": 1}})
        line = '{"key":"late","payload":{"value":2}}\n'
        with store.log_path.open("a") as handle:
            handle.write(line[:15])  # a writer part-way through its write
        assert store.get("late") is None
        assert store.keys() == {"k"}
        with store.log_path.open("a") as handle:
            handle.write(line[15:])
        assert store.get("late") == {"value": 2}
        assert store.keys() == {"k", "late"}

    def test_put_repairs_a_torn_tail_before_appending(self, tmp_path):
        # Without the newline repair the fresh record would concatenate
        # with the torn tail and both would be lost.
        store = ResultStore(tmp_path)
        log = store.log_path
        log.parent.mkdir(parents=True, exist_ok=True)
        log.write_text('{"key": "dead", "payl')
        store.put({"k": {"value": 9}})
        assert store.get("k") == {"value": 9}
        lines = log.read_text().splitlines()
        assert len(lines) == 2  # torn tail isolated on its own line

    def test_foreign_and_malformed_lines_are_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put({"good": {"value": 1}})
        log = store.log_path
        with log.open("a") as handle:
            handle.write("[1, 2, 3]\n")  # valid JSON, wrong shape
            handle.write('{"key": 7, "payload": {}}\n')  # non-string key
            handle.write('{"key": "x", "payload": []}\n')  # non-dict payload
            handle.write("\n")
        assert store.get("good") == {"value": 1}
        assert store.keys() == {"good"}

    @pytest.mark.parametrize("payload", ["[1, 2, 3]", '"a string"', "42", "null"])
    def test_non_dict_payload_is_a_miss(self, tmp_path, payload):
        # put() only ever stores dicts; a record parsing to anything else
        # cannot be a point record (SweepRunner._result_from_record reads
        # named fields), so it is a miss.
        store = ResultStore(tmp_path)
        log = store.log_path
        log.parent.mkdir(parents=True, exist_ok=True)
        log.write_text(f'{{"key": "odd", "payload": {payload}}}\n')
        assert store.get("odd") is None
        assert store.get_many(["odd"]) == {}
        assert "odd" not in store

    def test_undecodable_bytes_are_misses_not_errors(self, tmp_path):
        # Regression: bytes that are not UTF-8 raised UnicodeDecodeError out
        # of every read of the file, hiding its intact records too.
        store = ResultStore(tmp_path)
        store.put({"good": {"value": 1}})
        log = store.log_path
        with log.open("ab") as handle:
            handle.write(b"not json{\n\xff\xfe\n")
        assert store.get("good") == {"value": 1}
        assert store.keys() == {"good"}
        assert store.clear() == 1

    def test_interrupted_put_keeps_the_previous_record(self, tmp_path, monkeypatch):
        # A writer killed halfway through its line leaves a torn tail; the
        # previous record stays readable and the next put isolates the tear.
        store = ResultStore(tmp_path)
        store.put({"k": {"value": "old"}})
        real_write = os.write

        def torn_write(fd, data):
            if data != b"\n":
                real_write(fd, data[: len(data) // 2])
                raise KeyboardInterrupt
            return real_write(fd, data)

        monkeypatch.setattr("repro.sim.store.os.write", torn_write)
        with pytest.raises(KeyboardInterrupt):
            store.put({"k": {"value": "new"}})
        monkeypatch.undo()
        assert store.get("k") == {"value": "old"}
        store.put({"k": {"value": "newer"}})
        assert store.get("k") == {"value": "newer"}

    def test_missing_directory_reads_as_empty(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.get("k") is None
        assert store.get_many(["a", "b"]) == {}
        assert store.keys() == set()
        assert len(store) == 0

