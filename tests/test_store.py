import gc
import json
import math
import os
import random
import struct
import tracemalloc

import pytest

from iccamon.icca import CATEGORIES, IccaResult, Pollutant
from iccamon.rules import Rule, RuleEngine
from iccamon.service import ServerConfig, build_service
from iccamon.store import (
    BEYOND_SENSOR_RANGE,
    CHUNK_BYTES,
    MAX_TS,
    Measurement,
    NdjsonLog,
    StationRecord,
    StorageError,
    TimeSeriesStore,
    UnknownStationError,
    _encode,
)
from iccamon.telemetry import parse_and_validate

from .helpers import log_data, register, stored

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

    def test_watch_sets_take_each_appended_station(self, tmp_path):
        other = StationRecord("utec-02", "Other", 13.7, -89.2, "tok-b")
        s = TimeSeriesStore(register(tmp_path / "data", STATION, other), fsync=False)
        first, second = s.watch(), s.watch()
        assert first == second == {"utec-01", "utec-02"} and first is not second
        first.clear()
        s.append(m(1))
        s.append(m(2))
        assert s.append(m(2)) is None  # not appended, so not watched
        assert first == {"utec-01"}
        first.clear()
        s.append(m(1, station="utec-02"))
        assert first == {"utec-02"}
        # a set one caller drains leaves another's as it was
        assert second == {"utec-01", "utec-02"}

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
        records = stored(store, "utec-01", 0, 72 * 1200)
        assert len(records) == 72
        assert [r.ts for r in records] == sorted(r.ts for r in records)

    def test_matches_linear_scan_oracle(self, tmp_path):
        empty = StationRecord("utec-02", "Empty", 13.7, -89.2, "tok-b")
        store = TimeSeriesStore(register(tmp_path / "data", STATION, empty), fsync=False)
        rng = random.Random(4)
        all_ts = sorted(rng.sample(range(1000, 100000), 60))
        first, last = all_ts[0], all_ts[-1]
        # equal ts at both ends, then late records: one inside, one equal to
        # the first ts (it goes after the records it equals)
        all_ts = [first, *all_ts, last, rng.randint(first + 1, last - 1), first]
        appended = [m(seq, ts=ts, pm25=float(seq)) for seq, ts in enumerate(all_ts, start=1)]
        for rec in appended:
            store.append(rec)
        # sorted is stable: records of equal ts stay in the order they came
        oracle = sorted(appended, key=lambda r: r.ts)
        # each end exactly, one step off it and half a step off it
        edges = [t + d for t in (first, last) for d in (-1, -0.5, 0, 0.5, 1)]
        ranges = [(t0, t1) for t0 in edges for t1 in edges if t0 <= t1]
        ranges += [(0, MAX_TS), (-10, 0), (last + 1, MAX_TS)]
        for _ in range(100):
            t0 = rng.randint(-10, 100010)
            ranges.append((t0, t0 + rng.randint(0, 50000)))
        for t0, t1 in ranges:
            expect = [r for r in oracle if t0 <= r.ts <= t1]
            assert stored(store, "utec-01", t0, t1) == expect, (t0, t1)
            assert store.query_range("utec-02", t0, t1) == []
        assert len(stored(store, "utec-01", first, first)) == 3

    def test_latest(self, store):
        assert store.latest("utec-01") is None
        for seq in range(1, 5):
            store.append(m(seq))
            assert store.latest("utec-01").seq == seq
        tail = stored(store, "utec-01", 0, 10**9)[-1]
        assert store.latest("utec-01") == tail

    def test_latest_is_the_newest_by_ts(self, tmp_path):
        # a late record is not the latest; one with an equal ts comes after
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        first, late, equal = m(1, ts=100), m(2, ts=50), m(3, ts=100, pm25=30.0)
        s.append(first)
        s.append(late)
        assert s.latest("utec-01") == first
        assert TimeSeriesStore(data).latest("utec-01") == first
        s.append(equal)
        assert s.latest("utec-01") == equal
        assert TimeSeriesStore(data).latest("utec-01") == equal


class TestRecovery:
    def test_reopen_preserves_records_and_seq(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        for seq in range(1, 11):
            s.append(m(seq))
        s = TimeSeriesStore(data)
        assert s.count("utec-01") == 10
        assert s.lookup("utec-01")[1] == 10
        # duplicate suppression survives the restart
        assert s.append(m(7)) is None
        assert s.append(m(11)) == 10

    def test_reopened_store_equals_the_live_one(self, tmp_path, monkeypatch):
        # timestamps that run backwards, repeat and jump more than a day,
        # and one seq written twice by a retried append
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        s.window("utec-01", 86400)  # the live store keeps running 24-hour sums
        steps = [10, 11, 12, 9, 9, 8, 12, 12, 200, 201, 150, 201, 5, 202, 300, 299, 298, 300]
        for seq, step in enumerate(steps, 1):
            record = m(seq, ts=step * 1200, pm25=round(seq * 37.3 % 600, 1))
            if seq == 7:
                with monkeypatch.context() as patch:
                    patch.setattr("os.fsync", lambda fd: (_ for _ in ()).throw(OSError("EIO")))
                    with pytest.raises(StorageError):
                        s.append(record)
            assert s.append(record) is not None
            assert s.append(record) is None
            if seq % 5 == 0:
                s.window("utec-01", 86400)
        log = log_data(data / "series" / "utec-01.ndjson").splitlines()
        assert len(log) == len(steps) + 1
        live = (s.query_range("utec-01", 0, 10**9), s.lookup("utec-01")[1],
                s.window("utec-01", 86400), s.window("utec-01", 3600))
        # the log without its second seq 7 is not in ts order: recovery reorders it
        assert live[0] != log[:6] + log[7:]
        reopened = TimeSeriesStore(data)
        assert (reopened.query_range("utec-01", 0, 10**9), reopened.lookup("utec-01")[1],
                reopened.window("utec-01", 86400), reopened.window("utec-01", 3600)) == live

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
                records = stored(s, "utec-01", 0, 10**9)
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
        assert [r.seq for r in stored(s, "utec-01", 0, 10**9)] == [1, 2, 3]
        assert s.lookup("utec-01")[1] == 3

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
        assert [r.seq for r in stored(s, "utec-01", 0, 10**9)] == [1, 2, 3]
        log.write_bytes(lines[0] + lines[1].rstrip(b"\n") + b"," + lines[2])
        with pytest.raises(StorageError, match=r"utec-01\.ndjson:2: corrupt record"):
            TimeSeriesStore(data)

    def test_recovered_lines_are_the_log_lines(self, tmp_path):
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        for seq in range(1, 6):
            s.append(m(seq, ts=[5, 1, 3, 3, 2][seq - 1] * 1200, pm25=600.5 if seq == 2 else 10.0))
        appended = s.query_range("utec-01", 0, 10**9)
        lines = log_data(data / "series" / "utec-01.ndjson").splitlines()
        assert sorted(appended) == sorted(lines)  # append's lines are the log's
        reopened = TimeSeriesStore(data)
        assert reopened.query_range("utec-01", 0, 10**9) == appended
        # a record built from its line equals the one appended, hash included
        assert reopened.latest("utec-01") == s.latest("utec-01") == m(1, ts=5 * 1200)
        assert hash(reopened.latest("utec-01")) == hash(m(1, ts=5 * 1200))
        # by ts, equal ts in log order
        assert [json.loads(x)["seq"] for x in appended] == [2, 5, 3, 4, 1]
        # a record from the wire and the same record recovered from its line
        # are alike: one constructor builds both
        for seq, pm25, flagged in ((6, 10.0, False), (7, 600.5, True)):
            frame = json.dumps({"station_id": "utec-01", "token": "tok-a", "seq": seq,
                                "ts": 9000, "pm25": pm25, "pm10": 20.0, "temp_c": 25.0})
            validated = parse_and_validate(frame, reopened.lookup).measurement
            assert bool(validated.to_json_obj()["flags"]) is flagged
            reopened.append(validated)
            reopened = TimeSeriesStore(data)
            recovered = reopened.latest("utec-01")
            assert recovered == validated and type(recovered) is type(validated) is Measurement
            assert hash(recovered) == hash(validated)

    def test_hand_edited_flags_served_as_to_json_obj_lists_them(self, tmp_path):
        # the flags are derived from the readings: a hand-edited list is
        # re-encoded with the derived one, as any other hand edit is
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        s.append(m(1))
        s.append(m(2, pm25=600.0))
        log = data / "series" / "utec-01.ndjson"
        lines = log_data(log).splitlines()
        first, second = (json.loads(line) for line in lines)
        assert (first["flags"], second["flags"]) == ([], [BEYOND_SENSOR_RANGE])
        log.write_bytes(json.dumps({**first, "flags": ["z", "a", "z"]}).encode() + b"\n"
                        + json.dumps({**second, "flags": []}).encode() + b"\n")
        served = TimeSeriesStore(data).query_range("utec-01", 0, 10**9)
        assert served == lines
        assert [json.loads(line)["flags"] for line in served] == [[], [BEYOND_SENSOR_RANGE]]

    def test_record_key_swapped_for_another_is_corrupt(self, tmp_path):
        # seven keys, floats and flags [], but token in the place of seq
        data = register(tmp_path / "data", STATION)
        TimeSeriesStore(data).append(m(1))
        log = data / "series" / "utec-01.ndjson"
        record = json.loads(log_data(log))
        del record["seq"]
        log.write_bytes(json.dumps({**record, "token": "tok-a"}).encode() + b"\n")
        with pytest.raises(StorageError, match=r"utec-01\.ndjson:1: corrupt record"):
            TimeSeriesStore(data)

    def test_hand_edited_log_serves_joinable_records(self, tmp_path):
        # an editor's byte-order mark, CRLF line ends, a blank line, spaces
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        for seq in range(1, 4):
            s.append(m(seq))
        log = data / "series" / "utec-01.ndjson"
        lines = log_data(log).splitlines()
        log.write_bytes(b"\xef\xbb\xbf" + lines[0] + b"\r\n\r\n  " + lines[1] + b" \r\n"
                        + lines[2] + b"\r\n")
        served = TimeSeriesStore(data).query_range("utec-01", 0, 10**9)
        assert served == lines
        assert [r["seq"] for r in json.loads(b"[" + b",".join(served) + b"]")] == [1, 2, 3]
        # a log read line by line that also holds a line with a key the store
        # does not write: that line is served as to_json_obj renders its record
        edited = json.dumps({**json.loads(lines[1]), "token": "tok-a"}).encode()
        log.write_bytes(b"\xef\xbb\xbf" + b"\n".join([lines[0], edited, lines[2]]) + b"\n")
        served = TimeSeriesStore(data).query_range("utec-01", 0, 10**9)
        assert served == lines
        assert served[1] == json.dumps(m(2).to_json_obj(), separators=(",", ":")).encode()
        assert b"token" not in b"".join(served)

    @pytest.mark.parametrize("join, cut, split", [
        (b",", b',"ts"', b'\n"ts"'),  # a comma replaced by the line break
        (b",", b"_sensor", b"\n_sensor"),
        (b"],[", b"", b""),
        (b"],[", b"_sensor", b"\n_sensor"),
    ], ids=["comma", "cut-in-a-string", "brackets", "brackets-and-cut-in-a-string"])
    def test_records_moved_across_lines_are_corrupt(self, tmp_path, join, cut, split):
        # two records joined on one line and another split over two: the
        # records still parse from the whole log, but those lines are not one
        # record each, and a kept line would break every /history body
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        for seq in range(1, 4):
            s.append(m(seq))
        s.append(Measurement("utec-01", 4, 4800, 600.0, 20.0, 25.0))  # flagged
        log = data / "series" / "utec-01.ndjson"
        lines = log_data(log).splitlines()
        log.write_bytes(b"\n".join([lines[0], lines[1] + join + lines[2],
                                    lines[3].replace(cut, split, 1)]) + b"\n")
        with pytest.raises(StorageError, match=r"utec-01\.ndjson:2: corrupt record"):
            TimeSeriesStore(data)

    @pytest.mark.parametrize("old, new", [
        (b'"pm25":10.0', b'"pm25":NaN'),
        (b'"pm10":20.0', b'"pm10":Infinity'),
        (b'"temp_c":25.0', b'"temp_c":-1e400'),  # JSON's parser reads -inf
        (b'"pm25":10.0', b'"pm25":' + b"9" * 400),  # no float holds it
        (b'"flags":[]', b'"flags":' + b"[" * 4000 + b"]" * 4000),  # too deep to parse
        (b'"pm25":10.0', b'"pm25":-900.0'),
        (b'"pm10":20.0', b'"pm10":1000.0'),  # PM_MAX is outside
        (b'"temp_c":25.0', b'"temp_c":150.5'),
        (b'"station_id":"utec-01"', b'"station_id":"other"'),
        (b'"pm25":10.0', b'"pm25":"12.5"'),
        (b'"pm10":20.0', b'"pm10":true'),
        (b'"temp_c":25.0', b'"temp_c":"25"'),
    ], ids=["nan", "infinity", "overflowing-float", "400-digit-int", "nested-too-deep",
            "pm25-negative", "pm10-at-pm-max", "temp-above-max", "station-id-of-another-station",
            "pm25-string", "pm10-true", "temp-string"])
    def test_record_no_window_can_sum_is_corrupt(self, tmp_path, old, new):
        # a reading no frame could carry would break later windows of the
        # station, and so /icca and /v1/overview (a negative one makes the
        # index refuse its mean); another station's record would be served
        # as this one's: each is refused at open
        data = register(tmp_path / "data", STATION)
        TimeSeriesStore(data).append(m(1))
        log = data / "series" / "utec-01.ndjson"
        line = log_data(log)
        assert old in line
        log.write_bytes(line.replace(old, new))
        with pytest.raises(StorageError, match=r"utec-01\.ndjson:1: corrupt record"):
            TimeSeriesStore(data)

    def test_int_reading_opens_and_is_served_as_a_float(self, tmp_path):
        # a JSON int is a number the wire takes too: the line is re-encoded
        data = register(tmp_path / "data", STATION)
        TimeSeriesStore(data).append(m(1))
        log = data / "series" / "utec-01.ndjson"
        line = log_data(log).rstrip(b"\n")
        log.write_bytes(line.replace(b'"pm25":10.0', b'"pm25":12') + b"\n")
        reopened = TimeSeriesStore(data)
        assert reopened.query_range("utec-01", 0, 10**9) == [
            line.replace(b'"pm25":10.0', b'"pm25":12.0')]
        assert reopened.latest("utec-01") == m(1, pm25=12.0)

    @pytest.mark.parametrize("key, value", [
        ("ts", b'"x"'), ("ts", b"null"), ("ts", b"1.5"), ("ts", b"true"), ("ts", b"-1"),
        ("ts", str(2**63).encode()),
        ("seq", b'"x"'), ("seq", b"null"), ("seq", b"true"), ("seq", str(2**64).encode()),
        ("seq", b"-1"),
    ], ids=["ts-string", "ts-null", "ts-float", "ts-true", "ts-negative", "ts-past-int64",
            "seq-string", "seq-null", "seq-true", "seq-past-uint64", "seq-negative"])
    def test_record_no_frame_could_carry_is_corrupt(self, tmp_path, key, value):
        # a seq or ts outside the wire's range: a seq of 2**64 would refuse
        # every later frame as stale, and no ts column holds 2**63
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        s.append(m(1))
        s.append(m(2))
        log = data / "series" / "utec-01.ndjson"
        old = b'"%s":%d,' % (key.encode(), {"seq": 2, "ts": 2400}[key])
        first, second = log_data(log).splitlines()
        assert old in second
        log.write_bytes(first + b"\n" + second.replace(old, b'"%s":%s,' % (key.encode(), value))
                        + b"\n")
        with pytest.raises(StorageError, match=r"utec-01\.ndjson:2: corrupt record"):
            TimeSeriesStore(data)

    def test_reopened_station_holds_a_line_and_three_numbers_per_record(self, tmp_path):
        # a record is its log line (98 bytes here) and 8 bytes in each of
        # three columns, about 165 bytes with no object the collector tracks;
        # a Measurement held beside the line made it 445 and one object more
        n = 10_800
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data, fsync=False)
        for seq in range(1, n + 1):
            s.append(m(seq, pm25=seq % 5000 / 10))
        del s
        gc.collect()
        objects = len(gc.get_objects())
        tracemalloc.start()
        try:
            reopened = TimeSeriesStore(data, fsync=False)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert reopened.count("utec-01") == n
        assert held / n < 250
        assert len(gc.get_objects()) - objects < 100

    def test_reopen_peaks_at_most_twice_what_it_holds(self, tmp_path):
        # the log is parsed a line at a time: a reopen holds the file's bytes,
        # its lines and the index, never every record parsed at once (which
        # peaked at about five times what the station holds)
        n = 10_800
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data, fsync=False)
        for seq in range(1, n + 1):
            s.append(m(seq, pm25=seq % 5000 / 10))
        del s
        gc.collect()
        tracemalloc.start()
        try:
            reopened = TimeSeriesStore(data, fsync=False)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reopened.count("utec-01") == n
        assert peak <= 2 * held, (held / n, peak / n)


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
        return [r.seq for r in stored(s, "utec-01", 0, 10**9)]

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
        ms = [m(1), m(2, pm25=600.5), Measurement("utec-01", 3, 3600, 0.1, 1e-05, 0.0)]
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
        log.append(_encode(event))
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
            log.append(_encode({**obj, "seq": 10**6 + seq}))  # every line the same length
            sizes.append(os.path.getsize(path))
        # the file grew at the first append and at the one that did not fit
        fits = CHUNK_BYTES // line + 1
        assert sizes[:fits] == [line + CHUNK_BYTES] * fits
        assert sizes[fits] == (fits + 1) * line + CHUNK_BYTES
        assert len(set(sizes)) == 2
        raw = path.read_bytes()
        assert raw == log_data(path) + b" " * (len(raw) - n * line)
        objs, lines = zip(*NdjsonLog(path).read(dict, "record"))
        assert [o["seq"] - 10**6 for o in objs] == list(range(n))
        assert list(lines) == log_data(path).splitlines()

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


class TestDirectoryFsync:
    """A new log's directory entry is fsynced once, by the append that
    creates the log, and a new directory's by the open that creates it:
    fsync(2) of the file alone does not put it on disk."""

    @staticmethod
    def record_fsyncs(monkeypatch) -> list[int]:
        """The inode of each file or directory fsynced from now on."""
        synced = []
        real = os.fsync

        def fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real(fd)
        monkeypatch.setattr("iccamon.store.os.fsync", fsync)
        return synced

    def test_first_append_of_a_station_fsyncs_series_once(self, tmp_path, monkeypatch):
        data = register(tmp_path / "data", STATION)
        s = TimeSeriesStore(data)
        synced = self.record_fsyncs(monkeypatch)
        s.append(m(1))
        log, series = (os.stat(p).st_ino for p in (data / "series" / "utec-01.ndjson",
                                                   data / "series"))
        assert synced == [log, series]  # the line, then the new file's entry
        s.append(m(2))
        assert synced == [log, series, log]

    def test_a_reopened_log_fsyncs_no_directory(self, tmp_path, monkeypatch):
        data = register(tmp_path / "data", STATION)
        TimeSeriesStore(data).append(m(1))
        s = TimeSeriesStore(data)
        synced = self.record_fsyncs(monkeypatch)
        s.append(m(2))
        assert synced == [os.stat(data / "series" / "utec-01.ndjson").st_ino]

    def test_first_alert_event_fsyncs_the_data_directory(self, tmp_path, monkeypatch):
        data = register(tmp_path / "data", STATION)
        engine = RuleEngine([Rule("r1", 3)], alert_log=TimeSeriesStore(data).alert_log)
        synced = self.record_fsyncs(monkeypatch)
        top = IccaResult(500, CATEGORIES[-1], Pollutant.PM25)
        engine.observe("utec-01", top, ts=1)
        engine.observe("santa-ana", top, ts=1)
        log, folder = (os.stat(p).st_ino for p in (data / "alerts.ndjson", data))
        assert synced == [log, folder, log]

    def test_open_that_makes_series_fsyncs_the_data_directory(self, tmp_path, monkeypatch):
        data = register(tmp_path / "data", STATION)
        synced = self.record_fsyncs(monkeypatch)
        TimeSeriesStore(data)
        assert synced == [os.stat(data).st_ino]
        TimeSeriesStore(data)  # series/ is there: nothing to fsync
        assert synced == [os.stat(data).st_ino]

    @pytest.mark.parametrize("opener", [
        TimeSeriesStore, lambda path: build_service(ServerConfig(data_dir=str(path)))[1]],
        ids=["store", "build_service"])
    def test_open_of_a_missing_data_directory_fsyncs_each_new_entry(self, tmp_path, monkeypatch,
                                                                    opener):
        synced = self.record_fsyncs(monkeypatch)
        data = tmp_path / "new" / "data"
        opener(data)
        parents = [os.stat(p).st_ino for p in (tmp_path, tmp_path / "new", data)]
        assert synced == parents  # top down: each parent right after its new entry
        opener(data)  # every directory is there: nothing to fsync
        assert synced == parents

    def test_no_fsync_store_fsyncs_no_directory(self, tmp_path, monkeypatch):
        synced = self.record_fsyncs(monkeypatch)
        s = TimeSeriesStore(register(tmp_path / "data", STATION), fsync=False)
        s.append(m(1))
        s.alert_log.append(b"{}")
        assert synced == []


class TestStoredLine:
    """Measurement.stored_line is the store's encoder (_encode) of
    to_json_obj, byte for byte, built another way."""

    EDGES = (-0.0, 0.0, 1e-07, 5e-324, 0.1, 499.99999999999994, 500.0, 500.00000000000006,
             999.9, 1e16, 1.5e300)

    @pytest.mark.parametrize("value", EDGES)
    def test_edge_readings(self, value):
        for pm25, pm10, temp_c in ((value, 0.0, 0.0), (0.0, value, 0.0), (0.0, 0.0, value)):
            record = Measurement("utec-01", 7, 1200, pm25, pm10, temp_c)
            assert record.stored_line() == _encode(record.to_json_obj())

    @pytest.mark.parametrize("seq, ts", [(0, 0), (2**64 - 1, 2**63 - 1), (1, MAX_TS)])
    def test_edge_seq_and_ts(self, seq, ts):
        record = Measurement("utec-01", seq, ts, 10.0, 20.0, 25.0)
        assert record.stored_line() == _encode(record.to_json_obj())

    def test_random_records(self):
        rng = random.Random(28)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_-"
        for _ in range(1000):
            sid = "".join(rng.choices(alphabet, k=rng.randint(1, 64)))
            # a reading from the wire's range, or any finite double at all
            pm25, pm10, temp_c = (
                rng.choice((rng.uniform(0, 1000), rng.uniform(0, 1), float(rng.randint(0, 999)),
                            struct.unpack("<d", struct.pack("<Q", rng.getrandbits(63)))[0]))
                for _ in range(3))
            record = Measurement(sid, rng.getrandbits(64), rng.getrandbits(63), pm25, pm10, temp_c)
            if not all(map(math.isfinite, record[3:])):
                continue
            assert record.stored_line() == _encode(record.to_json_obj()), record


class TestRegistry:
    def test_bad_station_records_rejected(self):
        with pytest.raises(ValueError):
            StationRecord("x", "x", 95.0, 0.0, "t")
        with pytest.raises(ValueError):
            StationRecord("x", "x", 0.0, 0.0, "t", report_period_s=0)

    @pytest.mark.parametrize("kwargs", [
        {"station_id": "San Salvador"},  # outside the wire's [a-z0-9_-]{1,64}
        {"station_id": "x" * 65},
        {"station_id": 7},
        {"token": 12345},
        {"token": ""},
        {"display_name": None},
        {"lat": True},
        {"lon": False},
        {"report_period_s": 1200.9},
        {"report_period_s": True},
        {"created_at": 1.5},
    ])
    def test_station_record_refuses_what_the_wire_cannot_carry(self, kwargs):
        with pytest.raises((TypeError, ValueError)):
            StationRecord(**{"station_id": "x", "display_name": "x", "lat": 0.0, "lon": 0.0,
                             "token": "t", **kwargs})

    def test_registry_round_trip(self, tmp_path):
        s = TimeSeriesStore(register(tmp_path / "data", STATION))
        assert s.get_station("utec-01") == STATION
        assert s.token_registry() == {"utec-01": "tok-a"}

    def test_registry_kept_in_station_id_order(self, tmp_path):
        ids = ["zeta", "alpha", "mike", "bravo"]
        records = [StationRecord(sid, sid, 0.0, 0.0, "t") for sid in ids]
        s = TimeSeriesStore(register(tmp_path / "data", *records), fsync=False)
        assert s.station_ids() == ["alpha", "bravo", "mike", "zeta"]
        assert [r.station_id for r in s.stations()] == s.station_ids()
        s.append(m(1, station="mike"))
        s.append(m(2, station="mike"))
        s.append(m(1, station="zeta"))
        assert [s.count(sid) for sid in s.station_ids()] == [0, 0, 2, 1]

    def test_repeated_station_id_refused(self, tmp_path):
        # the later entry would silently replace the earlier one, token included
        records = [StationRecord(sid, sid, 0.0, 0.0, "t") for sid in ("zeta", "mike", "alpha")]
        records.append(StationRecord("mike", "Mike 2", 0.0, 0.0, "t2"))
        data = register(tmp_path / "data", *records)
        with pytest.raises(StorageError, match=r"stations\.json: station_id 'mike' appears twice"):
            TimeSeriesStore(data)
