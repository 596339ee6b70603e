import json
import os
import random

import pytest

from iccamon.store import (
    CHUNK_BYTES,
    Measurement,
    NdjsonLog,
    StationRecord,
    StorageError,
    TimeSeriesStore,
    UnknownStationError,
)

from .helpers import log_data, register

STATION = StationRecord(
    station_id="utec-01", display_name="San Salvador Centro", lat=13.70, lon=-89.20,
    token="tok-a", report_period_s=1200)


@pytest.fixture
def store(tmp_path):
    s = TimeSeriesStore(register(tmp_path / "data", STATION))
    yield s
    s.close()


def m(seq, ts=None, pm25=10.0, station="utec-01"):
    return Measurement(station_id=station, seq=seq, ts=ts if ts is not None else seq * 1200,
                       pm25=pm25, pm10=20.0, temp_c=25.0)


class TestAppend:
    def test_offsets_increase_monotonically(self, store):
        offsets = [store.append(m(i)) for i in range(1, 6)]
        assert offsets == [0, 1, 2, 3, 4]

    def test_duplicate_seq_leaves_store_unchanged(self, store):
        assert store.append(m(1)) == 0
        assert store.append(m(1, pm25=99.0)) is None
        assert store.count("utec-01") == 1
        assert store.latest("utec-01").pm25 == 10.0

    def test_unknown_station(self, store):
        with pytest.raises(UnknownStationError):
            store.append(m(1, station="ghost"))

    def test_five_stations_72_each(self, tmp_path):
        ids = [f"st-{i}" for i in range(5)]
        s = TimeSeriesStore(register(tmp_path / "data", *(
            StationRecord(sid, sid, 13.7, -89.2, f"tok-{sid}") for sid in ids)))
        for sid in ids:
            for seq in range(1, 73):
                s.append(m(seq, station=sid))
        assert [s.count(sid) for sid in ids] == [72] * 5
        s.close()


class TestQuery:
    def test_empty_range(self, store):
        store.append(m(1, ts=1000))
        assert store.query_range("utec-01", 2000, 3000) == []

    def test_invalid_range(self, store):
        with pytest.raises(ValueError):
            store.query_range("utec-01", 10, 5)

    def test_unknown_station(self, store):
        with pytest.raises(UnknownStationError):
            store.query_range("ghost", 0, 10)

    def test_full_day_in_order(self, store):
        for seq in range(1, 73):
            store.append(m(seq))
        records = store.query_range("utec-01", 0, 72 * 1200)
        assert len(records) == 72
        assert [r.ts for r in records] == sorted(r.ts for r in records)

    def test_matches_linear_scan_oracle(self, store):
        rng = random.Random(4)
        all_ts = rng.sample(range(0, 100000), 60)
        for seq, ts in enumerate(sorted(all_ts), start=1):
            store.append(m(seq, ts=ts))
        everything = store.query_range("utec-01", 0, 100000)
        for _ in range(100):
            t0 = rng.randint(-10, 100010)
            t1 = t0 + rng.randint(0, 50000)
            expect = [r for r in everything if t0 <= r.ts <= t1]
            assert store.query_range("utec-01", t0, t1) == expect

    def test_latest(self, store):
        assert store.latest("utec-01") is None
        for seq in range(1, 5):
            store.append(m(seq))
            assert store.latest("utec-01").seq == seq
        tail = store.query_range("utec-01", 0, 10**9)[-1]
        assert store.latest("utec-01") == tail


class TestRecovery:
    def test_reopen_preserves_records_and_seq(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        for seq in range(1, 11):
            s.append(m(seq))
        s = TimeSeriesStore(data)
        assert s.count("utec-01") == 10
        assert s.last_seq("utec-01") == 10
        # duplicate suppression survives the restart
        assert s.append(m(7)) is None
        assert s.append(m(11)) == 10

    def test_torn_tail_discarded(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        for seq in range(1, 6):
            s.append(m(seq))
        log = data / "series" / "utec-01.ndjson"
        log.write_bytes(log_data(log) + b'{"station_id":"utec-01","seq":6')
        s = TimeSeriesStore(data)
        assert s.count("utec-01") == 5
        # appending after recovery starts a clean line
        assert s.append(m(6)) == 5
        s = TimeSeriesStore(data)
        assert s.count("utec-01") == 6

    def test_truncation_at_any_byte_yields_whole_record_prefix(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        for seq in range(1, 21):
            s.append(m(seq))
        log = data / "series" / "utec-01.ndjson"
        raw = log.read_bytes()
        records_bytes = log_data(log)
        rng = random.Random(8)
        # cut inside the records, not the padding after them; the bytes past
        # the cut are lost (a log without padding) or padding (a padded one)
        for cut in sorted(rng.sample(range(len(records_bytes)), 40)):
            expect = raw[:cut].count(b"\n")
            for torn in (raw[:cut], raw[:cut] + b" " * (len(raw) - cut)):
                log.write_bytes(torn)
                s = TimeSeriesStore(data)
                records = s.query_range("utec-01", 0, 10**9)
                assert len(records) == expect
                assert [r.seq for r in records] == list(range(1, expect + 1))
            log.write_bytes(raw)

    def test_retried_append_line_kept_once(self, tmp_path, monkeypatch):
        # an fsync failure after the write leaves the line on disk; the
        # retry writes it again, and recovery keeps the first copy only
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        s.append(m(1))
        with monkeypatch.context() as patch:
            patch.setattr("os.fsync", lambda fd: (_ for _ in ()).throw(OSError("EIO")))
            with pytest.raises(StorageError):
                s.append(m(2))
        assert s.append(m(2)) == 1
        assert s.append(m(3)) == 2
        log = data / "series" / "utec-01.ndjson"
        assert log_data(log).count(b'"seq":2,') == 2
        # the retry reused the padding: one chunk past the first line, no more
        first = len(log_data(log).splitlines(keepends=True)[0])
        assert os.path.getsize(log) == first + CHUNK_BYTES
        s = TimeSeriesStore(data)
        assert [r.seq for r in s.query_range("utec-01", 0, 10**9)] == [1, 2, 3]
        assert s.last_seq("utec-01") == 3

    def test_seq_zero_is_a_real_first_seq(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        assert s.lookup("utec-01") == ("tok-a", None)
        assert s.append(m(0)) == 0
        assert s.append(m(0)) is None
        assert s.lookup("utec-01") == ("tok-a", 0)
        s = TimeSeriesStore(data)
        assert s.lookup("utec-01") == ("tok-a", 0)
        assert s.lookup("ghost") is None
        assert s.append(m(0)) is None
        assert s.append(m(1)) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        for seq in range(1, 4):
            s.append(m(seq))
        log = data / "series" / "utec-01.ndjson"
        lines = log.read_bytes().splitlines(keepends=True)
        lines[1] = b"not json at all\n"
        log.write_bytes(b"".join(lines))
        with pytest.raises(StorageError):
            TimeSeriesStore(data)

    def test_recovery_reads_one_record_per_line(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        for seq in range(1, 4):
            s.append(m(seq))
        log = data / "series" / "utec-01.ndjson"
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(lines[0] + b"\n" + lines[1] + lines[2])  # a blank line is skipped
        s = TimeSeriesStore(data)
        assert [r.seq for r in s.query_range("utec-01", 0, 10**9)] == [1, 2, 3]
        log.write_bytes(lines[0] + lines[1].rstrip(b"\n") + b"," + lines[2])
        with pytest.raises(StorageError, match=r"utec-01\.ndjson:2: corrupt record"):
            TimeSeriesStore(data)


class TestPaddedLog:
    @staticmethod
    def written(tmp_path, n):
        """A data dir whose station log holds records 1..n, and that log."""
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        for seq in range(1, n + 1):
            s.append(m(seq))
        return data, data / "series" / "utec-01.ndjson"

    @staticmethod
    def seqs(data):
        s = TimeSeriesStore(data)
        return [r.seq for r in s.query_range("utec-01", 0, 10**9)]

    def test_log_is_records_then_one_chunk_of_spaces(self, tmp_path):
        data, log = self.written(tmp_path, 3)
        raw = log.read_bytes()
        records = log_data(log)
        # allocated at the first append: its line and one chunk of spaces
        assert len(raw) == len(records.splitlines(keepends=True)[0]) + CHUNK_BYTES
        assert raw == records + b" " * (len(raw) - len(records))
        # JSON allows the padding as whitespace after the last value
        assert [json.loads(line)["seq"] for line in records.splitlines()] == [1, 2, 3]
        assert len(json.loads(b"[" + b",".join(records.splitlines()) + b"]" + raw[len(records):])) == 3

    def test_format_matches_unpadded_lines(self, tmp_path):
        # with its padding removed, a log holds the same bytes as one written
        # a line at a time with json.dumps, as unpadded logs were
        data = register(tmp_path / "data", STATION)
        ms = [m(1), m(2, pm25=600.5), Measurement("utec-01", 3, 3600, 0.1, 1e-05, 0.0,
                                                  frozenset({"b", "a"}))]
        s = TimeSeriesStore(data)
        for x in ms:
            s.append(x)
        unpadded = b"".join(
            (json.dumps(x.to_json_obj(), separators=(",", ":"), ensure_ascii=False) + "\n")
            .encode() for x in ms)
        assert log_data(data / "series" / "utec-01.ndjson") == unpadded
        assert unpadded.startswith(
            b'{"station_id":"utec-01","seq":1,"ts":1200,"pm25":10.0,"pm10":20.0,'
            b'"temp_c":25.0,"flags":[]}\n')
        log = NdjsonLog(tmp_path / "alerts.ndjson")
        event = {"category": "Dañina a la Salud", "ts": 1}
        log.append(event)
        assert log_data(log.path) == (json.dumps(event, separators=(",", ":"), ensure_ascii=False)
                                      + "\n").encode()

    def test_partial_line_before_padding_is_blanked(self, tmp_path, caplog):
        data, log = self.written(tmp_path, 5)
        raw = log.read_bytes()
        end = len(log_data(log))
        torn = b'{"station_id":"utec-01","seq":6,"ts":72'  # the line's end never reached disk
        log.write_bytes(raw[:end] + torn + raw[end + len(torn):])
        assert self.seqs(data) == [1, 2, 3, 4, 5]
        assert "torn record tail" in caplog.text
        # blanked in place: the file keeps its size and holds records then spaces
        assert log.read_bytes() == raw
        s = TimeSeriesStore(data)
        assert s.append(m(6)) == 5
        assert self.seqs(data) == [1, 2, 3, 4, 5, 6]

    def test_final_line_whose_start_was_lost_is_blanked(self, tmp_path, caplog):
        data, log = self.written(tmp_path, 5)
        raw = log.read_bytes()
        lines = log_data(log).splitlines(keepends=True)
        start = sum(map(len, lines[:4]))
        # the earlier sector of the last write still holds padding, the later one its end
        lost = raw[:start] + b" " * 20 + raw[start + 20:]
        log.write_bytes(lost)
        assert self.seqs(data) == [1, 2, 3, 4]
        assert "torn record start" in caplog.text
        assert log.read_bytes() == raw[:start] + b" " * (len(raw) - start)
        s = TimeSeriesStore(data)
        assert s.append(m(5, pm25=11.0)) == 4
        assert s.append(m(6)) == 5
        assert self.seqs(data) == [1, 2, 3, 4, 5, 6]
        assert log_data(log).splitlines(keepends=True)[:4] == lines[:4]

    def test_unpadded_log_recovers_takes_appends_and_reopens(self, tmp_path):
        data, log = self.written(tmp_path, 4)
        unpadded = log_data(log)
        log.write_bytes(unpadded)  # as logs were written before padding
        s = TimeSeriesStore(data)
        assert s.count("utec-01") == 4
        assert s.append(m(5)) == 4
        assert self.seqs(data) == [1, 2, 3, 4, 5]
        raw = log.read_bytes()
        assert raw.startswith(unpadded)
        assert raw == log_data(log) + b" " * CHUNK_BYTES  # padded from its first append
        # an unpadded log with a torn tail too: the tail is blanked, not cut
        log.write_bytes(unpadded + b'{"station_id":"ut')
        assert self.seqs(data) == [1, 2, 3, 4]
        assert log.read_bytes() == unpadded + b" " * 17

    def test_append_crossing_a_chunk_boundary(self, tmp_path):
        path = tmp_path / "x.ndjson"
        log = NdjsonLog(path, fsync=False)
        obj = m(10**6).to_json_obj()
        line = len(json.dumps(obj, separators=(",", ":"))) + 1
        sizes = []
        n = CHUNK_BYTES // line + 3  # the first append allocates one chunk past its line
        for seq in range(n):
            log.append({**obj, "seq": 10**6 + seq})  # every line the same length
            sizes.append(os.path.getsize(path))
        # the file grew at the first append and at the one that did not fit
        fits = CHUNK_BYTES // line + 1
        assert sizes[:fits] == [line + CHUNK_BYTES] * fits
        assert sizes[fits] == (fits + 1) * line + CHUNK_BYTES
        assert len(set(sizes)) == 2
        raw = path.read_bytes()
        assert raw == log_data(path) + b" " * (len(raw) - n * line)
        assert [o["seq"] - 10**6 for o in NdjsonLog(path).read(dict, "record")] == list(range(n))

    def test_short_write_is_overwritten_by_the_next_append(self, tmp_path, monkeypatch):
        data = register(tmp_path / "data", STATION)
        real = os.pwrite
        s = TimeSeriesStore(data)
        s.append(m(1))
        with monkeypatch.context() as patch:
            patch.setattr("os.pwrite", lambda fd, buf, pos: real(fd, buf[:30], pos))
            with pytest.raises(StorageError, match="wrote 30 of"):
                s.append(m(2, ts=10**6))
        assert s.append(m(2)) == 1
        assert s.append(m(3)) == 2
        assert self.seqs(data) == [1, 2, 3]
        assert len(log_data(data / "series" / "utec-01.ndjson").splitlines()) == 3


class TestRegistry:
    def test_bad_station_records_rejected(self):
        with pytest.raises(ValueError):
            StationRecord("x", "x", 95.0, 0.0, "t")
        with pytest.raises(ValueError):
            StationRecord("x", "x", 0.0, 0.0, "t", report_period_s=0)

    def test_registry_round_trip(self, tmp_path):
        s = TimeSeriesStore(register(tmp_path / "data", STATION))
        assert s.get_station("utec-01") == STATION
        assert s.token_registry() == {"utec-01": "tok-a"}

    def test_registry_kept_in_station_id_order(self, tmp_path):
        ids = ["zeta", "alpha", "mike", "bravo"]
        records = [StationRecord(sid, sid, 0.0, 0.0, "t") for sid in ids]
        # a repeated id: the later entry wins
        records.append(StationRecord("mike", "Mike 2", 0.0, 0.0, "t2"))
        s = TimeSeriesStore(register(tmp_path / "data", *records), fsync=False)
        assert s.station_ids() == ["alpha", "bravo", "mike", "zeta"]
        assert [r.station_id for r in s.stations()] == s.station_ids()
        assert s.get_station("mike").display_name == "Mike 2"
        s.append(m(1, station="mike"))
        s.append(m(2, station="mike"))
        s.append(m(1, station="zeta"))
        assert s.record_counts() == [0, 0, 2, 1]
