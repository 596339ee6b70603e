import random

import pytest

from iccamon.store import (
    Measurement,
    StationRecord,
    StorageError,
    TimeSeriesStore,
    UnknownStationError,
)

from .helpers import register

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
        with TimeSeriesStore(data) as s:
            for seq in range(1, 11):
                s.append(m(seq))
        with TimeSeriesStore(data) as s:
            assert s.count("utec-01") == 10
            assert s.last_seq("utec-01") == 10
            # duplicate suppression survives the restart
            assert s.append(m(7)) is None
            assert s.append(m(11)) == 10

    def test_torn_tail_discarded(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        with TimeSeriesStore(data) as s:
            for seq in range(1, 6):
                s.append(m(seq))
        log = data / "series" / "utec-01.ndjson"
        raw = log.read_bytes()
        log.write_bytes(raw + b'{"station_id":"utec-01","seq":6')
        with TimeSeriesStore(data) as s:
            assert s.count("utec-01") == 5
            # appending after recovery starts a clean line
            assert s.append(m(6)) == 5
        with TimeSeriesStore(data) as s:
            assert s.count("utec-01") == 6

    def test_truncation_at_any_byte_yields_whole_record_prefix(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        with TimeSeriesStore(data) as s:
            for seq in range(1, 21):
                s.append(m(seq))
        log = data / "series" / "utec-01.ndjson"
        raw = log.read_bytes()
        rng = random.Random(8)
        for cut in sorted(rng.sample(range(len(raw)), 40)):
            log.write_bytes(raw[:cut])
            expect = raw[:cut].count(b"\n")
            with TimeSeriesStore(data) as s:
                records = s.query_range("utec-01", 0, 10**9)
                assert len(records) == expect
                assert [r.seq for r in records] == list(range(1, expect + 1))
            log.write_bytes(raw)

    def test_retried_append_line_kept_once(self, tmp_path, monkeypatch):
        # an fsync failure after the write leaves the line on disk; the
        # retry writes it again, and recovery keeps the first copy only
        data = register(tmp_path / "data", STATION)
        with TimeSeriesStore(data) as s:
            s.append(m(1))
            with monkeypatch.context() as patch:
                patch.setattr("os.fsync", lambda fd: (_ for _ in ()).throw(OSError("EIO")))
                with pytest.raises(StorageError):
                    s.append(m(2))
            assert s.append(m(2)) == 1
            assert s.append(m(3)) == 2
        log = data / "series" / "utec-01.ndjson"
        assert log.read_bytes().count(b'"seq":2,') == 2
        with TimeSeriesStore(data) as s:
            assert [r.seq for r in s.query_range("utec-01", 0, 10**9)] == [1, 2, 3]
            assert s.last_seq("utec-01") == 3

    def test_seq_zero_is_a_real_first_seq(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        with TimeSeriesStore(data) as s:
            assert s.lookup("utec-01") == ("tok-a", None)
            assert s.append(m(0)) == 0
            assert s.append(m(0)) is None
            assert s.lookup("utec-01") == ("tok-a", 0)
        with TimeSeriesStore(data) as s:
            assert s.lookup("utec-01") == ("tok-a", 0)
            assert s.lookup("ghost") is None
            assert s.append(m(0)) is None
            assert s.append(m(1)) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        with TimeSeriesStore(data) as s:
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
        with TimeSeriesStore(data) as s:
            for seq in range(1, 4):
                s.append(m(seq))
        log = data / "series" / "utec-01.ndjson"
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(lines[0] + b"\n" + lines[1] + lines[2])  # a blank line is skipped
        with TimeSeriesStore(data) as s:
            assert [r.seq for r in s.query_range("utec-01", 0, 10**9)] == [1, 2, 3]
        log.write_bytes(lines[0] + lines[1].rstrip(b"\n") + b"," + lines[2])
        with pytest.raises(StorageError, match=r"utec-01\.ndjson:2: corrupt record"):
            TimeSeriesStore(data)


class TestRegistry:
    def test_bad_station_records_rejected(self):
        with pytest.raises(ValueError):
            StationRecord("x", "x", 95.0, 0.0, "t")
        with pytest.raises(ValueError):
            StationRecord("x", "x", 0.0, 0.0, "t", report_period_s=0)

    def test_registry_round_trip(self, tmp_path):
        with TimeSeriesStore(register(tmp_path / "data", STATION)) as s:
            assert s.get_station("utec-01") == STATION
            assert s.token_registry() == {"utec-01": "tok-a"}
