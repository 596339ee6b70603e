import contextlib
import email.utils
import http.client
import itertools
import json
import logging
import random
import re
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

import pytest

from iccamon import icca
from iccamon import service as service_mod
from iccamon.rules import Rule, RuleEngine
from iccamon.service import (
    MAX_BODY_BYTES,
    HttpServer,
    MonitorService,
    ServerConfig,
    build_service,
    load_server_config,
)
from iccamon.store import Measurement, StationRecord, TimeSeriesStore, _encode
from iccamon.telemetry import MAX_TS, TelemetryFrame, serialize

from .helpers import fetch, log_data, register, stored
from .oracles import ORACLE_PM10, ORACLE_PM25, exact_mean, history_oracle, icca_oracle

START = 1700006400


def frame_text(station="utec-01", token="tok-a", seq=1, ts=START, pm25=12.3, pm10=20.0,
               temp_c=28.5):
    return serialize(TelemetryFrame(station, token, seq, ts, pm25, pm10, temp_c))


@pytest.fixture
def store(tmp_path):
    s = TimeSeriesStore(register(tmp_path / "data",
                                 StationRecord("utec-01", "San Salvador", 13.70, -89.19, "tok-a"),
                                 StationRecord("santa-ana", "Santa Ana", 13.99, -89.56, "tok-b")))
    yield s
    s.close()


@pytest.fixture
def service(store):
    return MonitorService(store)


@pytest.fixture
def server(service):
    with serving(service) as srv:
        yield srv


@contextlib.contextmanager
def serving(service):
    srv = HttpServer(service, port=0)
    srv.start()
    try:
        yield srv
    finally:
        srv.shutdown()


class TestIngest:
    def test_valid_frame_202_and_stored(self, service, store):
        status, body = service.ingest(frame_text())
        assert status == 202
        assert body == {"station_id": "utec-01", "seq": 1}
        assert store.count("utec-01") == 1

    def test_replay_409_store_unchanged(self, service, store):
        service.ingest(frame_text(seq=5))
        status, body = service.ingest(frame_text(seq=5))
        assert status == 409 and body["error"] == "duplicate_seq"
        assert store.count("utec-01") == 1

    def test_stale_seq_409(self, service):
        service.ingest(frame_text(seq=5))
        status, body = service.ingest(frame_text(seq=3))
        assert status == 409 and body["error"] == "stale_seq"

    def test_wrong_token_401_nothing_stored(self, service, store):
        status, _ = service.ingest(frame_text(token="nope"))
        assert status == 401
        assert store.count("utec-01") == 0

    def test_unknown_station_404(self, service):
        status, _ = service.ingest(frame_text(station="ghost", token="tok-a"))
        assert status == 404

    def test_station_id_with_trailing_newline_422(self, service, store):
        status, body = service.ingest(frame_text(station="utec-01\n"))
        assert (status, body) == (422, {"error": "malformed"})
        assert store.count("utec-01") == 0

    def test_out_of_range_422(self, service, store):
        status, body = service.ingest(frame_text(temp_c=151.0))
        assert status == 422 and body["error"] == "out_of_range"
        assert store.count("utec-01") == 0

    def test_malformed_422(self, service):
        assert service.ingest("not json")[0] == 422
        assert service.ingest('{"station_id": 5}')[0] == 422
        assert service.ingest('[]')[0] == 422

    def test_non_202_means_no_state_change(self, service, store):
        service.ingest(frame_text(seq=1))
        before = stored(store, "utec-01")
        for text in (frame_text(seq=1), frame_text(seq=9, token="x"),
                     frame_text(seq=9, temp_c=-4.0), "garbage"):
            status, _ = service.ingest(text)
            assert status != 202
            assert stored(store, "utec-01") == before

    def test_storage_failure_500_not_acknowledged(self, service, store, monkeypatch):
        from iccamon.store import StorageError

        def boom(m):
            raise StorageError("disk gone")

        monkeypatch.setattr(store, "append", boom)
        status, body = service.ingest(frame_text(seq=1))
        assert status == 500 and body["error"] == "storage_failure"
        # the seq was not consumed; a retry after recovery succeeds
        monkeypatch.undo()
        assert service.ingest(frame_text(seq=1))[0] == 202

    def test_unopenable_station_log_500(self, service, store):
        log = store.data_dir / "series" / "utec-01.ndjson"
        log.mkdir()  # after the store opened: the first append opens it
        assert service.ingest(frame_text(seq=1)) == (500, {"error": "storage_failure"})
        log.rmdir()
        assert service.ingest(frame_text(seq=1))[0] == 202

    def test_crash_after_fsync_before_reply_keeps_the_record_once(self, tmp_path, monkeypatch):
        data = register(tmp_path / "d", StationRecord("utec-01", "x", 0.0, 0.0, "tok-a"))
        s = TimeSeriesStore(data)
        svc = MonitorService(s)

        def crash(m):
            raise RuntimeError("killed between the fsync and the 202")

        monkeypatch.setattr(svc, "_post_accept", crash)
        with pytest.raises(RuntimeError):
            svc.ingest(frame_text(seq=1))
        s = TimeSeriesStore(data)
        assert MonitorService(s).ingest(frame_text(seq=1)) == (409, {"error": "duplicate_seq"})
        assert (data / "series" / "utec-01.ndjson").read_text().count('"seq":1,') == 1

    @pytest.mark.parametrize("fault", ["rolling_icca", "observe"])
    def test_index_or_rule_fault_after_the_append_still_answers_202(self, tmp_path, monkeypatch,
                                                                    caplog, fault):
        # one report a day: the first frame fills the window, so the rules run
        store = TimeSeriesStore(register(tmp_path / "data", StationRecord(
            "utec-01", "x", 0.0, 0.0, "tok-a", 86400)), fsync=False)
        engine = RuleEngine([Rule("r1", trigger_category_min=1)], alert_log=store.alert_log)
        service = MonitorService(store, rule_engine=engine)

        def fail(*args, **kwargs):
            raise RuntimeError(f"{fault} fault")

        owner = service if fault == "rolling_icca" else engine
        monkeypatch.setattr(owner, fault, fail)
        assert service.ingest(frame_text(seq=1)) == (202, {"station_id": "utec-01", "seq": 1})
        [record] = [r for r in caplog.records if r.name == "iccamon.service"]
        assert record.levelname == "ERROR" and record.exc_info[0] is RuntimeError
        # the record is stored once: the station's resend is a duplicate
        assert service.ingest(frame_text(seq=1)) == (409, {"error": "duplicate_seq"})
        monkeypatch.undo()
        assert service.ingest(frame_text(seq=2, ts=START + 86400))[0] == 202
        assert store.count("utec-01") == 2
        assert service.rolling_icca("utec-01").sufficient

    def test_accepted_frame_is_stored_without_a_record_dict(self, tmp_path, monkeypatch,
                                                            caplog):
        # the frame path formats the stored line from the record's fields:
        # with to_json_obj broken, a frame whose index raises an alert is
        # still taken, and its line is the bytes the store's encoder wrote
        data = register(tmp_path / "data",
                        StationRecord("utec-01", "x", 0.0, 0.0, "tok-a", report_period_s=86400))
        store = TimeSeriesStore(data)
        service = MonitorService(store, RuleEngine([Rule("r1", 3)], alert_log=store.alert_log))

        def refuse(self):
            raise AssertionError("to_json_obj called on the frame path")
        monkeypatch.setattr(Measurement, "to_json_obj", refuse)
        assert service.ingest(frame_text(pm25=612.0, pm10=-0.0))[0] == 202
        assert log_data(data / "series" / "utec-01.ndjson") == (
            b'{"station_id":"utec-01","seq":1,"ts":1700006400,"pm25":612.0,"pm10":-0.0,'
            b'"temp_c":28.5,"flags":["beyond_sensor_range"]}\n')
        assert b'"kind":"raised"' in log_data(data / "alerts.ndjson")
        assert "failed" not in caplog.text

    def test_read_your_writes(self, service, store):
        status, _ = service.ingest(frame_text(seq=1, ts=START + 60))
        assert status == 202
        assert store.latest("utec-01").ts == START + 60
        assert service.latest_payload("utec-01")["measurement"]["seq"] == 1

    def test_seq_state_rebuilt_after_restart(self, tmp_path):
        data = register(tmp_path / "d", StationRecord("utec-01", "x", 0.0, 0.0, "tok-a"))
        s = TimeSeriesStore(data)
        MonitorService(s).ingest(frame_text(seq=41))
        s = TimeSeriesStore(data)
        svc = MonitorService(s)
        assert svc.ingest(frame_text(seq=41))[0] == 409
        assert svc.ingest(frame_text(seq=40))[0] == 409
        assert svc.ingest(frame_text(seq=42))[0] == 202

    def test_concurrent_stations_keep_per_station_order(self, service, store):
        errors = []

        def pump(station, token):
            for seq in range(1, 51):
                status, _ = service.ingest(
                    frame_text(station=station, token=token, seq=seq, ts=START + seq))
                if status != 202:
                    errors.append((station, seq, status))

        threads = [threading.Thread(target=pump, args=("utec-01", "tok-a")),
                   threading.Thread(target=pump, args=("santa-ana", "tok-b"))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for sid in ("utec-01", "santa-ana"):
            seqs = [m.seq for m in stored(store, sid)]
            assert seqs == list(range(1, 51))


# ingests the frames on stdin under a lowered descriptor limit (argv[2]) and
# prints the count of each status; the limit holds for this child only
_INGEST_UNDER_FD_LIMIT = """
import collections, json, resource, sys
from iccamon.service import MonitorService
from iccamon.store import TimeSeriesStore
hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
resource.setrlimit(resource.RLIMIT_NOFILE, (int(sys.argv[2]), hard))
service = MonitorService(TimeSeriesStore(sys.argv[1]))
print(json.dumps(collections.Counter(service.ingest(line)[0] for line in sys.stdin)))
"""


class TestDescriptorUse:
    def test_more_stations_than_file_descriptors(self, tmp_path):
        # a log holds no descriptor between appends, so the stations that
        # have ever reported can outnumber the process's descriptor limit
        stations = [StationRecord(f"st-{i:03d}", f"Station {i}", 13.70, -89.19, f"tok-{i}")
                    for i in range(300)]
        data = register(tmp_path / "data", *stations)
        frames = "".join(frame_text(st.station_id, st.token) + "\n" for st in stations)
        child = subprocess.run(
            [sys.executable, "-c", _INGEST_UNDER_FD_LIMIT, str(data), "256"],
            input=frames, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == {"202": 300}, child.stderr[-2000:]


def _container_sizes(*roots):
    """Size of every dict and set reachable from the roots' attributes,
    following containers and the package's own objects, keyed by id."""
    sizes, seen = {}, set()
    todo = [(type(r).__name__, vars(r)) for r in roots]
    while todo:
        path, obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            sizes[id(obj)] = (path, len(obj))
            todo += [(f"{path}[{k!r}]", v) for k, v in obj.items()]
        elif isinstance(obj, (set, frozenset)):
            sizes[id(obj)] = (path, len(obj))
        elif isinstance(obj, (list, tuple)):
            todo += [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
        elif type(obj).__module__.startswith("iccamon") and hasattr(obj, "__dict__"):
            todo += [(f"{path}.{k}", v) for k, v in vars(obj).items()]
    return sizes


class TestStationStateOwnership:
    def test_racing_threads_accept_each_seq_once(self, store):
        engine = RuleEngine([Rule("r3", trigger_category_min=3)], alert_log=store.alert_log)
        emitted = []
        original = engine.observe
        engine.observe = lambda sid, icca, ts: emitted.extend(original(sid, icca, ts))  # type: ignore
        service = MonitorService(store, rule_engine=engine)
        barrier = threading.Barrier(8)
        results = [[] for _ in range(8)]

        def pump(k):
            barrier.wait()
            for seq in range(1, 121):
                if (seq + k) % 3 == 0:
                    continue
                for _ in range(2):  # every send is retried once
                    text = frame_text(seq=seq, ts=START + seq * 1200, pm25=100.0)
                    results[k].append((seq, service.ingest(text)[0]))

        threads = [threading.Thread(target=pump, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        statuses = [status for r in results for _, status in r]
        assert set(statuses) <= {202, 409}
        accepted = sorted(seq for r in results for seq, status in r if status == 202)
        kept = [m.seq for m in stored(store, "utec-01")]
        log = store.data_dir / "series" / "utec-01.ndjson"
        on_disk = [json.loads(line)["seq"] for line in log_data(log).splitlines()]
        assert on_disk == kept
        assert all(a < b for a, b in zip(kept, kept[1:]))
        assert accepted == kept
        assert kept[-1] == 120
        # racing sends can leave gaps; 60 gapless frames after them make a
        # sufficient window certain
        for seq in range(121, 181):
            assert service.ingest(frame_text(seq=seq, ts=START + seq * 1200, pm25=100.0))[0] == 202
        # the rule sees the accepted frames in seq order and raises once, at the
        # first one whose 24-h window holds 54 of its 72 expected samples
        ts = [START + m.seq * 1200 for m in stored(store, "utec-01")]
        first = next(t for i, t in enumerate(ts) if sum(t - 86400 < u for u in ts[:i + 1]) >= 54)
        assert [(e.kind.value, e.ts) for e in emitted] == [("raised", first)]

    def test_append_that_lost_a_race_answers_the_validators_reason(self, store, monkeypatch):
        # validation reads the station as it was before seq 5, as a request that
        # raced the one that appended seq 5 does; the append then refuses the frame
        service = MonitorService(store)
        before = store.lookup("utec-01")
        assert service.ingest(frame_text(seq=5, ts=START))[0] == 202
        lookup = store.lookup
        for seq, reason in [(5, "duplicate_seq"), (3, "stale_seq")]:
            stale = [before]  # for one call only
            monkeypatch.setattr(store, "lookup", lambda sid: stale.pop() if stale else lookup(sid))
            assert service.ingest(frame_text(seq=seq, ts=START + 1200)) == (409, {"error": reason})
            assert not stale
        assert store.count("utec-01") == 1

    def test_seq_zero_first_frame_survives_restart(self, tmp_path):
        data = register(tmp_path / "d", StationRecord("utec-01", "x", 0.0, 0.0, "tok-a"))
        s = TimeSeriesStore(data)
        svc = MonitorService(s)
        assert svc.ingest(frame_text(seq=0))[0] == 202
        assert svc.ingest(frame_text(seq=0)) == (409, {"error": "duplicate_seq"})
        s = TimeSeriesStore(data)
        svc = MonitorService(s)
        assert svc.ingest(frame_text(seq=0)) == (409, {"error": "duplicate_seq"})
        assert svc.ingest(frame_text(seq=1))[0] == 202
        assert [m.seq for m in stored(s, "utec-01")] == [0, 1]

    def test_unknown_station_ids_create_no_state(self, service, store):
        assert service.ingest(frame_text(seq=1))[0] == 202
        before = _container_sizes(service, store)
        for i in range(10_000):
            assert service.ingest(frame_text(station=f"ghost-{i}"))[0] == 404
        after = _container_sizes(service, store)
        grown = {path: size - before.get(key, (path, 0))[1] for key, (path, size) in after.items()}
        assert max(grown.values()) < 10_000, max(grown.items(), key=lambda kv: kv[1])


class TestRollingIcca:
    def fill_day(self, service, pm25=100.0, pm10=20.0, n=72):
        for k in range(n):
            status, _ = service.ingest(
                frame_text(seq=k + 1, ts=START + k * 1200, pm25=pm25, pm10=pm10))
            assert status == 202

    def test_constant_pm25_100_gives_169(self, service):
        # 151 + 49*(100-66)/(159-66) rounds half up to 169
        self.fill_day(service)
        snap = service.rolling_icca("utec-01")
        assert snap.sufficient
        assert snap.result.value == 169
        assert snap.result.category.name == "Dañina a la Salud"
        assert snap.result.dominant.value == "pm25"
        assert snap.pm25.mean == pytest.approx(100.0)
        assert snap.coverage == pytest.approx(1.0)

    def test_insufficient_window_reports_no_index(self, service):
        self.fill_day(service, n=10)
        snap = service.rolling_icca("utec-01")
        assert not snap.sufficient and snap.result is None
        assert snap.pm25.sample_count == 10

    def test_empty_station(self, service):
        snap = service.rolling_icca("utec-01")
        assert snap.window_end is None and not snap.sufficient

    def test_window_slides(self, service):
        # first 36 samples at 200, next 72 at 50: the 24h window at the end
        # only sees the 50s
        for k in range(36):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=200.0))
        for k in range(36, 108):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=50.0))
        snap = service.rolling_icca("utec-01")
        assert snap.pm25.mean == pytest.approx(50.0)


class TestIncrementalWindow:
    """Snapshots from the store's window sums (the 24-hour one kept as
    running sums) against a fresh recompute over every stored record."""

    STATIONS = {"utec-01": "tok-a", "santa-ana": "tok-b"}
    VALUES = (0.1, 12.3, 499.9, 0.7, 33.3)

    @staticmethod
    def recomputed(service, sid, window_s):
        records = stored(service.store, sid)
        if not records:
            return None, None, None
        end = records[-1].ts
        period = service.store.get_station(sid).report_period_s
        a25 = icca.rolling_average([(r.ts, r.pm25) for r in records], end, window_s, period, 0.75)
        a10 = icca.rolling_average([(r.ts, r.pm10) for r in records], end, window_s, period, 0.75)
        try:
            result = icca.overall_icca(a25, a10)
        except icca.InsufficientDataError:
            result = None
        return a25, a10, result

    def check(self, service):
        overview = {e["station_id"]: e for e in service.overview_payload()["stations"]}
        for sid in self.STATIONS:
            for window_s in (86400, 3600, 7 * 86400):
                snap = service.rolling_icca(sid, window_s)
                assert (snap.pm25, snap.pm10, snap.result) == self.recomputed(service, sid, window_s)
            body = service.icca_payload(sid)
            assert overview[sid]["icca"] == body["icca"]
            assert overview[sid]["coverage"] == body["coverage"]

    def value(self, rng):
        pick = rng.random()
        if pick < 0.3:
            return rng.choice(self.VALUES)
        if pick < 0.6:
            return round(rng.uniform(0, 600), 1)
        return rng.uniform(0, 999)

    def next_ts(self, rng, store, sid, period):
        records = stored(store, sid)
        if not records:
            return START
        latest = records[-1].ts
        pick = rng.random()
        if pick < 0.6:
            return latest + period
        if pick < 0.7:
            return latest - rng.randrange(86400)  # older, inside the window
        if pick < 0.8:
            return latest - 86400 - rng.randrange(3 * 86400)  # older than the window
        if pick < 0.9:
            return rng.choice(records).ts  # a ts already stored
        return latest + 86400 + rng.randrange(2 * 86400)  # a gap of more than a day

    def register(self, data_dir, periods):
        return register(data_dir, *(StationRecord(sid, sid, 13.7, -89.2, token, periods[sid])
                                    for sid, token in self.STATIONS.items()))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_recompute_after_every_frame(self, tmp_path, seed):
        rng = random.Random(seed)
        periods = {sid: 1200 for sid in self.STATIONS}
        data = self.register(tmp_path / "data", periods)
        store = TimeSeriesStore(data, fsync=False)
        engine = RuleEngine([Rule("r2", trigger_category_min=2)], alert_log=store.alert_log)
        service = MonitorService(store, rule_engine=engine)
        seqs = dict.fromkeys(self.STATIONS, 0)
        try:
            for step in range(400):
                if step in (150, 300):
                    store.close()
                    # the operator changes a station's period while it is down
                    sid = rng.choice(sorted(self.STATIONS))
                    periods[sid] = rng.choice((60, 300, 1200, 3600))
                    self.register(data, periods)
                    store = TimeSeriesStore(data, fsync=False)
                    # recovery leaves the window to its first use
                    assert all(st.win_start is None for st in store._stations.values())
                    service = MonitorService(store, rule_engine=engine)
                sid = rng.choice(sorted(self.STATIONS))
                seqs[sid] += 1
                ts = self.next_ts(rng, store, sid, periods[sid])
                text = frame_text(sid, self.STATIONS[sid], seqs[sid], ts, self.value(rng),
                                  self.value(rng))
                assert service.ingest(text)[0] == 202
                self.check(service)
        finally:
            store.close()

    def test_ingest_scans_no_window(self, service, monkeypatch):
        for k in range(72):
            assert service.ingest(frame_text(seq=k + 1, ts=START + k * 1200))[0] == 202
        service.rolling_icca("utec-01")  # the first use sums the window once
        calls = []
        # the store sums a window's records through islice
        monkeypatch.setattr("iccamon.store.islice",
                            lambda *a: calls.append(a) or itertools.islice(*a))
        service.rule_engine = RuleEngine([Rule("r1", trigger_category_min=1)],
                                         alert_log=service.store.alert_log)
        assert service.ingest(frame_text(seq=73, ts=START + 72 * 1200))[0] == 202
        service.icca_payload("utec-01")
        service.overview_payload()
        assert calls == []
        # a late frame inside the window, then one before it, keeps the sums
        for seq, ts in ((74, START + 30 * 1200 + 600), (75, START - 3600)):
            assert service.ingest(frame_text(seq=seq, ts=ts))[0] == 202
            service.icca_payload("utec-01")
            service.overview_payload()
            assert calls == []
        # another window is summed once per use
        service.icca_payload("utec-01", 3600)
        assert len(calls) == 1


def oracle_index(store, sid) -> tuple[int, str] | None:
    """(index, dominant pollutant) of the station's 24-hour window, from its
    stored records, the exact means and the oracle ladders; None when the
    window covers less than 75% of the expected samples."""
    records = stored(store, sid)
    end = records[-1].ts
    window = [r for r in records if end - 86400 < r.ts <= end]
    if len(window) / (86400 // store.get_station(sid).report_period_s) < 0.75:
        return None
    best = None
    for name, ladder, values in (("pm25", ORACLE_PM25, [r.pm25 for r in window]),
                                 ("pm10", ORACLE_PM10, [r.pm10 for r in window])):
        value, _ = icca_oracle(ladder, exact_mean(values))
        if best is None or value > best[0]:  # ties go to PM2.5
            best = (value, name)
    return best


class TestSnapshotMemo:
    """The 24-hour snapshot is computed once per window state, by the frame
    (or read) that first sees it, and served from the memo until the
    station's window sums change."""

    TOKENS = {"alpha": "tok-1", "bravo": "tok-2", "charlie": "tok-3"}

    def open(self, tmp_path, quiet=()):
        stations = [StationRecord(sid, sid, 13.7, -89.2, tok)
                    for sid, tok in {**self.TOKENS, **dict.fromkeys(quiet, "tok-q")}.items()]
        return TimeSeriesStore(register(tmp_path / "data", *stations), fsync=False)

    @staticmethod
    def engine(store):
        return RuleEngine([Rule("r1", trigger_category_min=1)], alert_log=store.alert_log)

    @staticmethod
    def count_index_calls(monkeypatch) -> list:
        calls = []
        original = icca.overall_icca
        monkeypatch.setattr(icca, "overall_icca", lambda *a: calls.append(a) or original(*a))
        return calls

    def test_reads_after_a_frame_compute_no_index(self, tmp_path, monkeypatch):
        store = self.open(tmp_path, quiet=["quiet"])
        service = MonitorService(store, rule_engine=self.engine(store))
        calls = self.count_index_calls(monkeypatch)
        try:
            for k in range(60):
                for sid, tok in self.TOKENS.items():
                    text = frame_text(sid, tok, k + 1, START + k * 1200, pm25=10.0 + k)
                    assert service.ingest(text)[0] == 202
            assert len(calls) == 180  # one per accepted frame
            calls.clear()
            overview = service.overview_payload()
            bodies = {sid: service.icca_payload(sid) for sid in self.TOKENS}
            assert calls == []
            for entry in overview["stations"]:
                if entry["station_id"] in bodies:
                    assert entry["icca"] == bodies[entry["station_id"]]["icca"] is not None
            for sid in self.TOKENS:
                service.icca_payload(sid, 3600)
                service.icca_payload(sid, 86400)
            assert len(calls) == 3  # another width is computed at each read
            for sid in self.TOKENS:
                assert service.icca_payload(sid) == bodies[sid]
            assert len(calls) == 3  # and it did not evict the 24-hour snapshot
            # at most one snapshot per station with records
            assert sorted(service._snapshots) == sorted(self.TOKENS)
        finally:
            store.close()

    def test_never_stale(self, tmp_path):
        store = self.open(tmp_path)
        data = store.data_dir
        service = MonitorService(store, rule_engine=self.engine(store))
        seqs = dict.fromkeys(self.TOKENS, 0)

        def send(service, sid, ts, pm25):
            seqs[sid] += 1
            text = frame_text(sid, self.TOKENS[sid], seqs[sid], ts, pm25=pm25)
            assert service.ingest(text)[0] == 202

        def check(service):
            for sid in ("alpha", "bravo"):
                snap = service.rolling_icca(sid)
                assert snap == MonitorService(service.store).rolling_icca(sid)
                got = (snap.result.value, snap.result.dominant.value) if snap.result else None
                assert got == oracle_index(service.store, sid)

        for k in range(72):
            send(service, "alpha", START + k * 1200, 20.0 + k % 7)
            send(service, "bravo", START + k * 1200, 60.0)
        check(service)
        # a late record inside the window moves the sums
        before = service.rolling_icca("alpha")
        send(service, "alpha", START + 40 * 1200 + 600, 300.0)
        check(service)
        assert service.rolling_icca("alpha") != before
        # a record before the window leaves them, and the index, as they are
        before = service.rolling_icca("alpha")
        send(service, "alpha", START - 86400, 480.0)
        assert service.rolling_icca("alpha") is before
        check(service)
        # a restart starts with an empty memo
        store.close()
        store = TimeSeriesStore(data, fsync=False)
        service = MonitorService(store, rule_engine=self.engine(store))
        check(service)
        send(service, "alpha", START + 72 * 1200, 35.0)
        check(service)
        # a second service over the same store: each sees the other's records
        other = MonitorService(store, rule_engine=self.engine(store))
        check(other)
        send(other, "bravo", START + 72 * 1200, 250.0)
        check(service)
        send(service, "bravo", START + 73 * 1200, 250.0)
        check(other)
        store.close()

    def test_failed_compute_fills_no_memo(self, tmp_path, monkeypatch):
        store = self.open(tmp_path)
        service = MonitorService(store, rule_engine=self.engine(store))
        original = icca.overall_icca

        def fail_once(*args):
            monkeypatch.setattr(icca, "overall_icca", original)
            raise RuntimeError("index fault")

        monkeypatch.setattr(icca, "overall_icca", fail_once)
        assert service.ingest(frame_text("alpha", "tok-1", 1, START))[0] == 202
        calls = self.count_index_calls(monkeypatch)
        service.rolling_icca("alpha")
        assert len(calls) == 1  # computed, not served from a memo
        service.rolling_icca("alpha")
        assert len(calls) == 1
        store.close()


class TestAlertWiring:
    def test_rolling_alert_raised_once(self, store):
        engine = RuleEngine([Rule("r3", trigger_category_min=3)], alert_log=store.alert_log)
        emitted = []
        original = engine.observe
        engine.observe = lambda sid, icca, ts: emitted.extend(original(sid, icca, ts))  # type: ignore
        service = MonitorService(store, rule_engine=engine)
        for k in range(72):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=100.0))
        # windows become sufficient at sample 54 with the mean already at 100,
        # so exactly one Raised comes out over the whole day
        assert [e.kind.value for e in emitted] == ["raised"]
        assert emitted[0].station_id == "utec-01" and emitted[0].icca_value == 169

    def test_late_frame_alert_is_stamped_with_the_window_end(self, store):
        engine = RuleEngine([Rule("r1", trigger_category_min=1)], alert_log=store.alert_log)
        emitted = []
        original = engine.observe
        engine.observe = lambda sid, icca, ts: emitted.extend(original(sid, icca, ts))  # type: ignore
        service = MonitorService(store, rule_engine=engine)
        for k in range(60):
            assert service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=10.0))[0] == 202
        assert emitted == []  # a sufficient window, still Buena
        # a late frame lifts the mean to Moderada; the index is over the
        # window ending at the newest record, not at the late frame's ts
        assert service.ingest(frame_text(seq=61, ts=START + 30 * 1200 + 600, pm25=400.0))[0] == 202
        [event] = emitted
        assert event.kind.value == "raised" and event.category == "Moderada"
        assert event.ts == service.rolling_icca("utec-01").window_end == START + 59 * 1200

    def test_restart_with_active_alert_raises_it_once(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [{"rule_id": "r3", "trigger_category_min": 3}]}))
        data_dir = register(tmp_path / "data", StationRecord("utec-01", "x", 0.0, 0.0, "tok-a"))
        config = ServerConfig(data_dir=str(data_dir), rules_path=str(rules))
        seq = 0
        for _run in range(2):
            service, store = build_service(config)
            try:
                for _ in range(80):
                    seq += 1
                    assert service.ingest(
                        frame_text(seq=seq, ts=START + seq * 1200, pm25=100.0))[0] == 202
            finally:
                store.close()
        lines = log_data(tmp_path / "data" / "alerts.ndjson").splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["raised"]

    def test_alert_log_failure_still_acknowledges_the_frame(self, tmp_path, caplog):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [{"rule_id": "r3", "trigger_category_min": 3}]}))
        data_dir = register(tmp_path / "data", StationRecord("utec-01", "x", 0.0, 0.0, "tok-a"))
        service, store = build_service(ServerConfig(data_dir=str(data_dir), rules_path=str(rules)))
        (data_dir / "alerts.ndjson").mkdir()  # every append to the alert log now fails
        try:
            for k in range(60):
                assert service.ingest(
                    frame_text(seq=k + 1, ts=START + k * 1200, pm25=100.0))[0] == 202
        finally:
            store.close()
        assert service.rule_engine.failed_deliveries == 1  # the one raised event
        assert [r.levelname for r in caplog.records if r.name == "iccamon.rules"] == ["ERROR"]

    def test_slow_sink_does_not_stall_reads(self, store):
        entered, release = threading.Event(), threading.Event()

        class BlockingSink:
            sink_id = "slow"

            def deliver(self, event):
                entered.set()
                release.wait(10.0)

        engine = RuleEngine([Rule("r3", trigger_category_min=3, sink_ids=("slow",))],
                            {"slow": BlockingSink()}, alert_log=store.alert_log)
        service = MonitorService(store, rule_engine=engine)
        for k in range(53):
            assert service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=100.0))[0] == 202
        # the 54th frame makes the window sufficient, which raises the alert
        statuses, reads = [], []
        ingest = threading.Thread(target=lambda: statuses.append(
            service.ingest(frame_text(seq=54, ts=START + 53 * 1200, pm25=100.0))[0]))
        reader = threading.Thread(target=lambda: reads.append(
            (service.overview_payload(), service.icca_payload("utec-01"))))
        ingest.start()
        try:
            assert entered.wait(5.0)
            reader.start()
            reader.join(5.0)
            assert not reader.is_alive()  # the reads did not wait for the sink
        finally:
            release.set()
            ingest.join(5.0)
            if reader.is_alive():
                reader.join(5.0)
        [(overview, snap)] = reads
        [entry] = [e for e in overview["stations"] if e["station_id"] == "utec-01"]
        assert entry["latest"]["seq"] == 54 and snap["icca"]["value"] == 169
        assert statuses == [202] and engine.failed_deliveries == 0

    def test_no_alerts_from_insufficient_windows(self, store):
        engine = RuleEngine([Rule("r1", trigger_category_min=1)], alert_log=store.alert_log)
        fired = []
        engine.observe = lambda sid, icca, ts: fired.append((sid, icca.value, ts))  # type: ignore
        service = MonitorService(store, rule_engine=engine)
        for k in range(10):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=400.0))
        assert fired == []


class TestHttpEndpoints:
    def test_post_telemetry_roundtrip(self, server, store):
        resp = fetch(f"{server.url}/v1/telemetry", frame_text().encode())
        assert resp.status == 202
        assert resp.json() == {"station_id": "utec-01", "seq": 1}
        assert store.count("utec-01") == 1
        dup = fetch(f"{server.url}/v1/telemetry", frame_text().encode())
        assert dup.status == 409

    def test_status_code_mapping(self, server):
        cases = [
            (frame_text(token="bad"), 401),
            (frame_text(station="ghost", token="tok-a"), 404),
            (frame_text(temp_c=-10), 422),
            ("{]", 422),
        ]
        for text, code in cases:
            resp = fetch(f"{server.url}/v1/telemetry", text.encode())
            assert resp.status == code, text

    def test_stations_listing_hides_tokens(self, server):
        resp = fetch(f"{server.url}/v1/stations")
        assert resp.status == 200
        stations = resp.json()
        # stations.json lists utec-01 first; the listing is by station_id
        assert [s["station_id"] for s in stations] == ["santa-ana", "utec-01"]
        assert all("token" not in s for s in stations)
        assert stations[0]["lat"] is not None

    def test_stations_body_is_the_registry_without_tokens(self, server, store):
        registry = json.loads((store.data_dir / TimeSeriesStore.REGISTRY_FILE).read_text())
        want = sorted(({key: value for key, value in rec.items() if key != "token"}
                       for rec in registry), key=lambda rec: rec["station_id"])
        assert fetch(f"{server.url}/v1/stations").json() == want

    def test_latest_endpoint(self, server):
        assert fetch(f"{server.url}/v1/stations/utec-01/latest").json() == {
            "station_id": "utec-01", "measurement": None}
        fetch(f"{server.url}/v1/telemetry", frame_text(seq=2).encode())
        body = fetch(f"{server.url}/v1/stations/utec-01/latest").json()
        assert body["measurement"]["seq"] == 2

    def test_history_endpoint(self, server):
        for k in range(5):
            fetch(f"{server.url}/v1/telemetry", frame_text(seq=k + 1, ts=START + k * 100).encode())
        url = f"{server.url}/v1/stations/utec-01/history"
        body = fetch(f"{url}?from={START}&to={START + 250}").json()
        assert body["count"] == 3
        assert [m["seq"] for m in body["measurements"]] == [1, 2, 3]
        # bounds optional: full history without params
        assert fetch(url).json()["count"] == 5

    def test_history_default_range_reaches_max_ts(self, server):
        url = f"{server.url}/v1/telemetry"
        assert fetch(url, frame_text(seq=1).encode()).status == 202
        assert fetch(url, frame_text(seq=2, ts=MAX_TS).encode()).status == 202
        assert fetch(url, frame_text(seq=3, ts=MAX_TS + 1).encode()).status == 422
        body = fetch(f"{server.url}/v1/stations/utec-01/history").json()
        assert [(m["seq"], m["ts"]) for m in body["measurements"]] == [(1, START), (2, MAX_TS)]

    def test_history_invalid_ranges(self, server):
        url = f"{server.url}/v1/stations/utec-01/history"
        assert fetch(f"{url}?from=10&to=5").status == 400
        assert fetch(f"{url}?from=x&to=5").status == 400

    def test_unknown_station_404(self, server):
        for leaf in ("latest", "history", "icca"):
            assert fetch(f"{server.url}/v1/stations/ghost/{leaf}").status == 404
        assert fetch(f"{server.url}/v1/nope").status == 404

    def test_icca_endpoint(self, server, service):
        for k in range(72):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=100.0, pm10=30.0))
        body = fetch(f"{server.url}/v1/stations/utec-01/icca").json()
        assert body["sufficient"] is True
        assert body["icca"]["value"] == 169
        assert body["icca"]["category"] == "Dañina a la Salud"
        assert body["icca"]["color"] == "red"
        assert body["icca"]["dominant"] == "pm25"
        assert body["coverage"] == pytest.approx(1.0)
        assert body["pm25"]["mean"] == pytest.approx(100.0)

    def test_icca_endpoint_insufficient(self, server):
        fetch(f"{server.url}/v1/telemetry", frame_text().encode())
        body = fetch(f"{server.url}/v1/stations/utec-01/icca").json()
        assert body["sufficient"] is False and body["icca"] is None

    def test_icca_window_param(self, server, service):
        for k in range(6):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=10.0))
        body = fetch(
            f"{server.url}/v1/stations/utec-01/icca?window_s=7200").json()
        assert body["window_s"] == 7200
        assert body["sufficient"] is True  # 6 of 6 expected in 2h window
        # a window shorter than the 1,200 s report period expects no sample:
        # the one it holds gives full coverage
        body = fetch(f"{server.url}/v1/stations/utec-01/icca?window_s=600").json()
        assert (body["window_s"], body["sufficient"], body["coverage"]) == (600, True, 1.0)
        assert body["pm25"] == {"mean": 10.0, "sample_count": 1, "expected_count": 0,
                                "coverage": 1.0, "sufficient": True}
        for window in ("-5", "0"):
            resp = fetch(f"{server.url}/v1/stations/utec-01/icca?window_s={window}")
            assert resp.status == 400
            assert resp.json() == {"error": "window_s must be positive"}

    def test_icca_body_bytes(self, server, service):
        # every key, its order and its value's rendering, for a window other
        # than 24 hours: 3 records, 20 minutes (the station's period) apart,
        # fill a 1-hour window
        for k, (pm25, pm10) in enumerate(((10.0, 50.0), (20.0, 60.0), (33.0, 70.5))):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=pm25, pm10=pm10))
        assert fetch(f"{server.url}/v1/stations/utec-01/icca?window_s=3600").body == (
            b'{"station_id":"utec-01","window_end":1700008800,"window_s":3600,"sufficient":true,'
            b'"coverage":1.0,"pm25":{"mean":21.0,"sample_count":3,"expected_count":3,'
            b'"coverage":1.0,"sufficient":true},"pm10":{"mean":60.166666666666664,'
            b'"sample_count":3,"expected_count":3,"coverage":1.0,"sufficient":true},'
            b'"icca":{"value":62,"category":"Moderada","color":"yellow","dominant":"pm25",'
            b'"beyond_scale":false}}')

    @pytest.mark.parametrize("window_s", [0, -5])
    def test_icca_window_not_positive_refused_in_process(self, service, window_s):
        service.ingest(frame_text())
        with pytest.raises(ValueError, match="^window_s must be positive$"):
            service.icca_payload("utec-01", window_s)

    def test_overview(self, server, service):
        for k in range(72):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=20.0))
        body = fetch(f"{server.url}/v1/overview").json()
        entries = {e["station_id"]: e for e in body["stations"]}
        assert list(entries) == ["santa-ana", "utec-01"]  # by station_id, not file order
        filled = entries["utec-01"]
        assert filled["icca"] is not None and filled["icca"]["category"] == "Moderada"
        assert filled["last_seen"] == START + 71 * 1200
        assert filled["location"] == {"lat": 13.7, "lon": -89.19}
        empty = entries["santa-ana"]
        assert empty["latest"] is None and empty["icca"] is None

    def test_record_reads_as_its_log_line_in_every_body(self, server, store):
        # one encoder: the station's last stored line, byte for byte, inside
        # /latest, the last /history record and the station's overview entry
        for seq, pm25 in ((1, 12.3), (2, 612.0)):  # the last one flagged
            resp = fetch(f"{server.url}/v1/telemetry",
                         frame_text(seq=seq, ts=START + seq, pm25=pm25).encode())
            assert resp.status == 202
        line = log_data(store.data_dir / "series" / "utec-01.ndjson").splitlines()[-1]
        assert b'"flags":["beyond_sensor_range"]' in line
        station = f"{server.url}/v1/stations/utec-01"
        assert fetch(f"{station}/latest").body \
            == b'{"station_id":"utec-01","measurement":%s}' % line
        assert fetch(f"{station}/history").body.endswith(b",%s]}" % line)
        assert b'"station_id":"utec-01","display_name":"San Salvador","location":' \
               b'{"lat":13.7,"lon":-89.19},"latest":%s,' % line \
            in fetch(f"{server.url}/v1/overview").body

    def test_non_ascii_tokens_over_http(self, tmp_path):
        data = register(tmp_path / "d", StationRecord("utec-01", "x", 0.0, 0.0, "clé-ñandú"))
        with serving(MonitorService(TimeSeriesStore(data, fsync=False))) as srv:
            for token, status in (("clave-ñandú", 401), ("\ud800", 401), ("clé-ñandú", 202)):
                # ASCII JSON, which carries the lone surrogate as an escape
                text = json.dumps(json.loads(frame_text(token=token)))
                resp = fetch(f"{srv.url}/v1/telemetry", text.encode())
                assert resp.status == status, token


class TestHistoryOracle:
    """/history bodies, over HTTP and in process, against an independent
    oracle over random frames, before and after the store is reopened."""

    STATIONS = {"utec-01": "tok-a", "santa-ana": "tok-b"}

    @staticmethod
    def frames(rng, sid, token, n):
        """n frames, valid but for some seqs: retried and stale seqs,
        repeated and out-of-order timestamps, integer and flagged values."""
        frames, seq, ts = [], 0, START
        for _ in range(n):
            pick = rng.random()
            if pick < 0.1 and frames:
                frames.append(dict(rng.choice(frames[-3:])))  # a retried send
                continue
            if pick < 0.15 and frames:
                frames.append({**frames[-1], "seq": max(0, seq - rng.randint(1, 3)),
                               "ts": ts + 7})  # stale
                continue
            seq += rng.randint(1, 3)
            pick = rng.random()
            if pick < 0.6:
                ts += 1200
            frame_ts = ts - rng.randrange(86400) if pick > 0.8 else ts  # older, or repeated
            values = [rng.choice((rng.uniform(0, 999), round(rng.uniform(0, 600), 1),
                                  rng.randint(0, 999), 500, 500.1, 0)) for _ in range(2)]
            frames.append({"station_id": sid, "token": token, "seq": seq, "ts": frame_ts,
                           "pm25": values[0], "pm10": values[1],
                           "temp_c": rng.choice((rng.uniform(0, 150), 25, 0.0))})
        return frames

    @staticmethod
    def canon(obj) -> str:
        # json.dumps tells 12 from 12.0, where == does not
        return json.dumps(obj, sort_keys=True)

    def check(self, rng, service, frames, edited=None):
        """Every station's history over random ranges and the whole range;
        edited maps (station_id, seq) to the record its hand-edited line
        must serve."""
        with serving(service) as srv:
            for sid, sent in frames.items():
                last = max(f["ts"] for f in sent)
                ranges = [(0, 2**62)] + [
                    (t0, t0 + rng.randint(0, 3 * 86400))
                    for t0 in (rng.randint(START - 90000, last + 100) for _ in range(25))]
                for t0, t1 in ranges:
                    expect = [(edited or {}).get((sid, r["seq"]), r)
                              for r in history_oracle(sent, t0, t1)]
                    body = fetch(
                        f"{srv.url}/v1/stations/{sid}/history?from={t0}&to={t1}").json()
                    assert self.canon(body) == self.canon({
                        "station_id": sid, "from": t0, "to": t1, "count": len(expect),
                        "measurements": expect})
                    payload = service.history_payload(sid, t0, t1)
                    assert payload["count"] == len(expect)
                    assert self.canon([json.loads(line) for line in payload["measurements"]]) \
                        == self.canon(expect)

    def test_bodies_match_oracle_before_and_after_restart(self, tmp_path):
        rng = random.Random(16)
        data = register(tmp_path / "d", *(StationRecord(sid, sid, 0.0, 0.0, token)
                                          for sid, token in self.STATIONS.items()))
        service = MonitorService(TimeSeriesStore(data, fsync=False))
        frames = {sid: self.frames(rng, sid, token, 150) for sid, token in self.STATIONS.items()}
        for sid, sent in frames.items():
            for frame in sent:
                assert service.ingest(json.dumps(frame))[0] in (202, 409)
        self.check(rng, service, frames)

        # a restart after a crash that tore the last write
        log = data / "series" / "utec-01.ndjson"
        log.write_bytes(log_data(log) + b'{"station_id":"utec-01","seq":9999,"ts":1')
        self.check(rng, MonitorService(TimeSeriesStore(data, fsync=False)), frames)

        # middle lines edited by hand; each is served as to_json_obj renders
        # its record: the seven keys, floats, the flags its readings give
        lines = log_data(log).splitlines(keepends=True)
        served = {}
        for k, edit in enumerate([
                lambda o: {**{key: v for key, v in o.items() if key != "flags"},
                           "pm25": 7, "token": "tok-a"},
                lambda o: {**o, "pm10": 9},  # flags kept: an integer value alone
                lambda o: {**o, "note": "recalibrated"}]):  # an extra key alone
            i = len(lines) // 2 + k
            obj = json.loads(lines[i])
            lines[i] = (json.dumps(edit(obj)) + "\n").encode()
            record = {**obj, **{key: float(v) for key, v in edit(obj).items()
                                if key in ("pm25", "pm10")}}
            served["utec-01", obj["seq"]] = {**record, "flags": [
                "beyond_sensor_range"] if max(record["pm25"], record["pm10"]) > 500 else []}
        log.write_bytes(b"".join(lines))
        service = MonitorService(TimeSeriesStore(data, fsync=False))
        self.check(rng, service, frames, served)
        # lines appended after the reopen are served beside the re-encoded ones
        for frame in self.frames(rng, "utec-01", "tok-a", 20):
            frame["seq"] += 10**6
            frames["utec-01"].append(frame)
            assert service.ingest(json.dumps(frame))[0] in (202, 409)
        self.check(rng, service, frames, served)

class TestOverviewCache:
    """Overview entries kept per station until its next accepted record,
    against a fresh service over the same store, whose cache is empty."""

    TOKENS = {"alpha": "tok-1", "bravo": "tok-2", "quiet": "tok-3"}  # quiet never reports

    def steps(self):
        """(frame text, expected status) for alpha (hourly) and bravo."""
        t = self.TOKENS
        ts = START
        for seq in range(1, 31):
            yield frame_text("alpha", t["alpha"], seq, ts, pm25=10.0 + seq), 202
            if seq % 10 == 0:
                yield frame_text("bravo", t["bravo"], seq // 10, ts + 60, pm25=30.0), 202
            ts += 3600
        latest = ts - 3600
        yield frame_text("alpha", t["alpha"], 30, latest), 409  # replay
        yield frame_text("alpha", t["alpha"], 28, latest), 409  # stale seq
        yield frame_text("alpha", "wrong", 31, latest + 3600), 401
        yield frame_text("quiet", "wrong", 1, latest), 401
        yield frame_text("alpha", t["alpha"], 31, latest - 5 * 3600 + 60, pm25=90.0), 202
        yield frame_text("alpha", t["alpha"], 32, latest - 3 * 86400, pm25=90.0), 202
        yield frame_text("bravo", t["bravo"], 4, latest + 120, pm25=612.0, pm10=700.0), 202
        # each slides the window past old records, the last past all but itself
        for seq, gap in ((33, 20 * 3600), (34, 3 * 3600), (35, 2 * 86400)):
            latest += gap
            yield frame_text("alpha", t["alpha"], seq, latest, pm25=40.0), 202

    def test_matches_a_fresh_service_after_every_step(self, tmp_path):
        stations = [StationRecord("quiet", "Quiet", 13.5, -88.9, self.TOKENS["quiet"]),
                    StationRecord("bravo", "Bravo", 13.6, -89.0, self.TOKENS["bravo"]),
                    StationRecord("alpha", "Alpha", 13.7, -89.2, self.TOKENS["alpha"], 3600)]
        store = TimeSeriesStore(register(tmp_path / "data", *stations), fsync=False)
        service = MonitorService(store)

        def record_counts():
            return [store.count(sid) for sid in store.station_ids()]

        try:
            prev = service.overview_payload()["stations"]
            prev_counts = record_counts()
            for text, status in self.steps():
                assert service.ingest(text)[0] == status, text
                got = service.overview_payload()
                want = MonitorService(store).overview_payload()
                assert got == want, text
                assert _encode(got) == _encode(want)
                counts = record_counts()
                for old, entry, before, now in zip(prev, got["stations"], prev_counts, counts):
                    # an entry is rebuilt exactly when its station took a record
                    assert (entry is old) == (before == now), (text, entry["station_id"])
                    sid = entry["station_id"]
                    body = service.icca_payload(sid)
                    assert (entry["icca"], entry["coverage"]) == (body["icca"], body["coverage"])
                    assert entry["latest"] == service.latest_payload(sid)["measurement"]
                prev, prev_counts = got["stations"], counts
            by_id = {e["station_id"]: e for e in prev}
            assert list(by_id) == ["alpha", "bravo", "quiet"]
            assert by_id["quiet"]["latest"] is None and by_id["quiet"]["coverage"] == 0.0
            assert by_id["bravo"]["latest"]["flags"] == ["beyond_sensor_range"]
            assert by_id["alpha"]["coverage"] == 1 / 24  # only the last frame is in its window
        finally:
            store.close()

    def test_entry_whose_rebuild_failed_is_built_by_the_next_overview(self, service,
                                                                         monkeypatch):
        assert service.ingest(frame_text(seq=1))[0] == 202

        def fail(*args, **kwargs):
            raise RuntimeError("index fault")

        monkeypatch.setattr(service, "rolling_icca", fail)
        with pytest.raises(RuntimeError):
            service.overview_payload()
        monkeypatch.undo()
        got = service.overview_payload()
        assert got == MonitorService(service.store).overview_payload()
        [entry] = [e for e in got["stations"] if e["station_id"] == "utec-01"]
        assert entry["latest"]["seq"] == 1 and entry["coverage"] > 0

    def test_concurrent_ingest_and_overview_reads(self, tmp_path):
        sids = [f"st-{i}" for i in range(4)]
        store = TimeSeriesStore(register(tmp_path / "data", *(
            StationRecord(sid, sid, 13.7, -89.2, "tok", 3600) for sid in reversed(sids))),
            fsync=False)
        service = MonitorService(store)
        # (station, seq) -> (icca, coverage) just after that seq was accepted;
        # only one thread writes each station, so nothing comes in between
        after = {}
        errors = []
        stale = []
        reads = []
        writing = threading.Event()
        writing.set()

        def ingest(sid):
            pos = sids.index(sid)
            for seq in range(1, 121):
                status, _ = service.ingest(frame_text(sid, "tok", seq, START + seq * 3600,
                                                      pm25=5.0 + seq))
                if status != 202:
                    errors.append((sid, seq, status))
                body = service.icca_payload(sid)
                after[(sid, seq)] = (body["icca"], body["coverage"])
                # an overview that starts after the 202 shows the record,
                # also while the reader thread is rebuilding this entry
                latest = service.overview_payload()["stations"][pos]["latest"]
                if latest is None or latest["seq"] < seq:
                    stale.append((sid, seq, latest))

        def read():
            while writing.is_set():
                reads.append(service.overview_payload()["stations"])

        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=ingest, args=(sid,)) for sid in sids]
        # switch threads often, so reads land inside ingests
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=30)
        finally:
            writing.clear()
            reader.join(timeout=30)
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in writers + [reader])
            assert errors == []
            assert stale == []
            assert len(reads) > 1
            for entries in reads:
                assert [e["station_id"] for e in entries] == sids
                for e in entries:
                    if e["latest"] is None:
                        assert (e["last_seen"], e["icca"], e["coverage"]) == (None, None, 0.0)
                        continue
                    assert e["last_seen"] == e["latest"]["ts"]
                    assert (e["icca"], e["coverage"]) == after[(e["station_id"], e["latest"]["seq"])]
            final = service.overview_payload()
            assert final == MonitorService(store).overview_payload()
            for e in final["stations"]:
                body = service.icca_payload(e["station_id"])
                assert (e["icca"], e["coverage"]) == (body["icca"], body["coverage"])
                assert e["latest"]["seq"] == 120
        finally:
            store.close()


    def test_two_services_over_one_store_each_see_every_record(self, tmp_path):
        stations = [StationRecord(sid, sid, 13.7, -89.2, tok, 3600)
                    for sid, tok in self.TOKENS.items()]
        store = TimeSeriesStore(register(tmp_path / "data", *stations), fsync=False)
        services = [MonitorService(store), MonitorService(store)]
        rng = random.Random(11)
        seqs = dict.fromkeys(self.TOKENS, 0)
        try:
            for step in range(120):
                sid = rng.choice(["alpha", "alpha", "bravo"])  # quiet never reports
                seqs[sid] += 1
                ts = START + seqs[sid] * 3600
                route = rng.randrange(3)
                if route < 2:  # through either service's ingest
                    text = frame_text(sid, self.TOKENS[sid], seqs[sid], ts, pm25=5.0 + step)
                    assert services[route].ingest(text)[0] == 202
                else:  # straight into the store
                    store.append(Measurement(sid, seqs[sid], ts, 5.0 + step, 20.0, 25.0))
                # each service reads at its own times, so records pile up
                # unread for one while the other drains its own set
                for service in services:
                    if step == 119 or rng.random() < 0.4:
                        got = service.overview_payload()
                        assert got == MonitorService(store).overview_payload(), step
                        for entry in got["stations"]:
                            latest = entry["latest"]
                            assert (latest["seq"] if latest else 0) == seqs[entry["station_id"]]
        finally:
            store.close()


class TestNoDelayedAckStall:
    @staticmethod
    def read_response(sock) -> bytes:
        """The head of one response; its body is read and dropped."""
        def more() -> bytes:
            chunk = sock.recv(4096)
            if not chunk:
                raise ConnectionError("server closed the connection")
            return chunk

        data = b""
        while b"\r\n\r\n" not in data:
            data += more()
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        while len(body) < length:
            body += more()
        return head

    def test_keep_alive_posts_answered_well_under_40ms(self, tmp_path):
        # headers and body are two writes; with Nagle's algorithm the body
        # waits for the client's delayed ACK of the headers, about 40 ms
        store = TimeSeriesStore(register(tmp_path / "data", StationRecord(
            "utec-01", "San Salvador", 13.70, -89.19, "tok-a")), fsync=False)
        srv = HttpServer(MonitorService(store), port=0)
        srv.start()
        try:
            times = []
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
                for seq in range(1, 21):
                    body = frame_text(seq=seq, ts=START + seq * 1200).encode()
                    head = (f"POST /v1/telemetry HTTP/1.1\r\nHost: x\r\n"
                            f"Content-Length: {len(body)}\r\n\r\n").encode()
                    started = time.perf_counter()
                    sock.sendall(head + body)
                    status_line = self.read_response(sock).split(b"\r\n", 1)[0]
                    times.append(time.perf_counter() - started)
                    assert status_line == b"HTTP/1.1 202 Accepted"
            assert statistics.median(times) < 0.015, times
        finally:
            srv.shutdown()
            store.close()


def raw_request(server, headers: str, body: bytes = b"", method: str = "POST") -> bytes:
    """Send a request with these header lines and body to /v1/telemetry and
    read until the server closes the connection."""
    head = (f"{method} /v1/telemetry HTTP/1.1\r\nHost: x\r\n"
            f"{headers}\r\n\r\n").encode("latin-1")
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(head + body)
        chunks = []
        while chunk := sock.recv(4096):
            chunks.append(chunk)
    return b"".join(chunks)


def read_to_eof(sock) -> bytes:
    """Everything the server sends until it closes the connection."""
    chunks = []
    while chunk := sock.recv(4096):
        chunks.append(chunk)
    return b"".join(chunks)


def raw_exchange(server, data: bytes) -> bytes:
    """Send these bytes on a new connection and read until the server closes."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(data)
        return read_to_eof(sock)


class TestHttpContentLength:
    @staticmethod
    def raw_post(server, content_length: str, body: bytes = b"") -> bytes:
        """Send a POST head and body and read until the server closes."""
        return raw_request(server, f"Content-Length: {content_length}", body)

    @pytest.mark.parametrize("value, status", [
        ("abc", 400), ("-1", 400), ("", 400), (str(MAX_BODY_BYTES + 1), 413), ("1048576", 413),
        pytest.param("9" * 5000, 413, id="5000-digits"),  # more digits than int() converts
    ])
    def test_bad_length_answered_and_closed(self, server, value, status):
        reply = self.raw_post(server, value)
        assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply
        assert b"\r\nConnection: close\r\n" in reply
        # the server still answers the next connection
        resp = fetch(f"{server.url}/v1/telemetry", frame_text().encode())
        assert resp.status == 202

    @pytest.mark.parametrize("value", ["1_0", "+5", "0x10", "\xb2", "1 0"])
    def test_length_not_ascii_digits_answered_and_closed(self, server, value):
        # int() reads each of these as a length; RFC 9110 allows digits only
        reply = self.raw_post(server, value, frame_text().encode())
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert reply.endswith(b'{"error":"bad_content_length"}')
        assert b"\r\nConnection: close\r\n" in reply

    def test_length_with_many_leading_zeros_accepted(self, server):
        # 1*DIGIT allows leading zeros, more of them than int() converts
        body = frame_text().encode()
        reply = raw_request(server, f"Content-Length: {'0' * 5000}{len(body)}\r\n"
                                    "Connection: close", body)
        assert reply.startswith(b"HTTP/1.1 202 "), reply

    def test_length_with_surrounding_blanks_accepted(self, server):
        body = frame_text().encode()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.putrequest("POST", "/v1/telemetry")
            conn.putheader("Content-Length", f"\t{len(body)} ")
            conn.endheaders(body)
            assert conn.getresponse().status == 202
        finally:
            conn.close()

    def test_differing_repeated_lengths_answered_and_closed(self, server, store):
        # RFC 9112 section 6.3: an unrecoverable framing error
        body = frame_text().encode()
        reply = raw_request(server, f"Content-Length: {len(body)}\r\nContent-Length: 5\r\n"
                                    "Connection: close", body)
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert reply.endswith(b'{"error":"bad_content_length"}')
        assert b"\r\nConnection: close\r\n" in reply
        assert store.count("utec-01") == 0

    def test_identical_repeated_lengths_accepted(self, server, store):
        body = frame_text().encode()
        reply = raw_request(server, f"Content-Length: {len(body)}\r\nContent-Length: {len(body)} "
                                    "\r\nConnection: close", body)
        assert reply.startswith(b"HTTP/1.1 202 "), reply
        assert store.count("utec-01") == 1

    def test_unrouted_post_body_is_consumed(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request("POST", "/v1/nope", body=frame_text().encode())
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 404
            # the same keep-alive connection carries the next request intact
            conn.request("POST", "/v1/telemetry", body=frame_text().encode())
            assert conn.getresponse().status == 202
        finally:
            conn.close()

    def test_get_body_is_not_read_as_a_request(self, server):
        # a GET's Content-Length frames a body too (RFC 9112 section 6)
        inner = b"GET /v1/nope HTTP/1.1\r\n\r\n"
        reply = raw_exchange(
            server,
            b"GET /v1/stations HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
            b"GET /v1/stations/utec-01/latest HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            % (len(inner), inner))
        assert re.findall(rb"HTTP/1\.1 (\d{3}) ", reply) == [b"200", b"200"], reply
        assert reply.endswith(b'{"station_id":"utec-01","measurement":null}')

    def test_limit_itself_is_accepted(self, server):
        body = frame_text().encode().ljust(MAX_BODY_BYTES)
        resp = fetch(f"{server.url}/v1/telemetry", body)
        assert resp.status == 202


class TestTransferEncoding:
    """Bodies are framed by Content-Length only; a request with any
    Transfer-Encoding is refused, so its body is never read as a request."""

    def test_chunked_post_answered_501_once_and_closed(self, server, store):
        body = frame_text().encode()
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        reply = raw_request(server, "Transfer-Encoding: chunked", chunked)
        assert reply.startswith(b"HTTP/1.1 501 "), reply
        assert reply.endswith(b'{"error":"transfer_encoding_not_supported"}')
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.count(b"HTTP/1.1 ") == 1  # the chunk bytes were not read as a request
        assert store.count("utec-01") == 0

    @pytest.mark.parametrize("method, headers", [
        ("POST", "Transfer-Encoding: chunked\r\nContent-Length: 5"),
        ("POST", "Transfer-Encoding: identity"),
        ("GET", "Transfer-Encoding: chunked"),
    ])
    def test_any_transfer_encoding_refused(self, server, method, headers):
        reply = raw_request(server, headers, b"0\r\n\r\n", method)
        assert reply.startswith(b"HTTP/1.1 501 "), reply
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in reply


class TestMisbehavingClients:
    def test_stalled_body_times_out(self, service, monkeypatch):
        monkeypatch.setattr(service_mod, "SOCKET_TIMEOUT_S", 0.2)
        srv = HttpServer(service, port=0)
        srv.start()
        try:
            head = b"POST /v1/telemetry HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
                sock.sendall(head)
                started = time.monotonic()
                assert sock.recv(4096) == b""  # closed by the server, no reply
                assert time.monotonic() - started < 1.0
            resp = fetch(f"{srv.url}/v1/telemetry", frame_text().encode())
            assert resp.status == 202
        finally:
            srv.shutdown()

    def test_stalled_body_does_not_delay_another_client(self, server):
        assert service_mod.SOCKET_TIMEOUT_S == 10.0
        head = b"POST /v1/telemetry HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as stalled:
            stalled.sendall(head)  # and never the body
            time.sleep(0.05)  # its handler thread is now waiting for the body
            started = time.monotonic()
            resp = fetch(f"{server.url}/v1/telemetry", frame_text().encode(), timeout=5)
            elapsed = time.monotonic() - started
        assert resp.status == 202
        assert elapsed < 1.0

    def test_client_hang_up_logged_without_traceback(self, capfd, caplog):
        caplog.set_level(logging.INFO, logger="iccamon.http")
        entered, release = threading.Event(), threading.Event()

        class SlowService:
            def ingest(self, text):
                entered.set()
                release.wait(5)
                return 202, {}

        srv = HttpServer(SlowService(), port=0)
        srv.start()
        try:
            sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
            body = frame_text().encode()
            sock.sendall(b"POST /v1/telemetry HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
            assert entered.wait(5)
            # reset the connection while the server is still working on the reply
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            time.sleep(0.05)  # let the reset land before the reply is written
            release.set()
            deadline = time.monotonic() + 5
            while not caplog.records and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)
        finally:
            srv.shutdown()
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "POST /v1/telemetry -> 202" in message and "client hung up" in message
        assert "Traceback" not in capfd.readouterr().err


def post_status(server) -> int | None:
    """POST one frame on a new connection; None if the server reset it."""
    body = frame_text().encode()
    try:
        reply = raw_request(server, f"Content-Length: {len(body)}\r\nConnection: close", body)
    except ConnectionError:
        return None
    return int(reply[9:12])


class TestFrontEndFaults:
    """Fault injection for the front end's bounds (at lowered limits) and
    error paths."""

    def test_trickling_head_closed_at_the_deadline(self, service, monkeypatch):
        # the deadline covers the whole request, not each read
        monkeypatch.setattr(service_mod, "SOCKET_TIMEOUT_S", 1.0)
        srv = HttpServer(service, port=0)
        srv.start()
        try:
            head = b"GET /v1/stations HTTP/1.1\r\nHost: x\r\n\r\n"  # 12 s at this pace
            reply = None
            with socket.create_connection(("127.0.0.1", srv.port), timeout=0.3) as sock:
                started = time.monotonic()
                while time.monotonic() - started < 2.5:
                    try:
                        sock.sendall(head[:1])
                        head = head[1:]
                        reply = sock.recv(4096)  # waits 0.3 s between bytes
                        break
                    except TimeoutError:
                        continue
                    except ConnectionError:
                        reply = b""
                        break
                elapsed = time.monotonic() - started
            assert reply == b"", reply  # closed without a reply
            assert elapsed < 2.0
            assert post_status(srv) == 202
        finally:
            srv.shutdown()

    def test_connection_beyond_the_cap_gets_503(self, service, monkeypatch):
        monkeypatch.setattr(service_mod, "MAX_CONNECTIONS", 2)
        srv = HttpServer(service, port=0)
        srv.start()
        held = [http.client.HTTPConnection("127.0.0.1", srv.port, timeout=5) for _ in range(2)]
        try:
            for conn in held:  # both stay open after their reply
                conn.request("GET", "/v1/stations")
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as third:
                reply = read_to_eof(third)
            assert reply.startswith(b"HTTP/1.1 503 Service Unavailable\r\n"), reply
            assert b"\r\nConnection: close\r\n" in reply
            assert reply.endswith(b'{"error":"too_many_connections"}')
            held[0].close()
            # the slot is free once the server has seen that close
            deadline = time.monotonic() + 2
            while (status := post_status(srv)) in (503, None) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert status == 202
        finally:
            for conn in held:
                conn.close()
            srv.shutdown()

    def test_head_over_the_limit_gets_431(self, server, monkeypatch):
        monkeypatch.setattr(service_mod, "MAX_HEAD_BYTES", 256)

        def head(size: int) -> bytes:
            start = b"GET /v1/stations HTTP/1.1\r\nConnection: close\r\nX-Pad: "
            return start + b"a" * (size - len(start) - 4) + b"\r\n\r\n"

        assert raw_exchange(server, head(256)).startswith(b"HTTP/1.1 200 ")
        reply = raw_exchange(server, head(257))
        assert reply.startswith(b"HTTP/1.1 431 Request Header Fields Too Large\r\n"), reply
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.endswith(b'{"error":"header_too_large"}')
        # a head that never ends is refused once it passes the limit
        reply = raw_exchange(server, b"GET /v1/stations HTTP/1.1\r\nX-Pad: " + b"a" * 300)
        assert reply.startswith(b"HTTP/1.1 431 "), reply

    @pytest.mark.parametrize("head, error", [
        (b"GET /v1/stations\r\n\r\n", "bad_request_line"),
        (b"GET  /v1/stations HTTP/1.1\r\n\r\n", "bad_request_line"),
        (b"GET /v1/stations HTTP/2.0\r\n\r\n", "bad_request_line"),
        (b"GET /v1/stations HTTP/1.1 \r\n\r\n", "bad_request_line"),
        (b"\r\nGET /v1/stations HTTP/1.1\r\n\r\n", "bad_request_line"),
        (b"GET /v1/stations HTTP/1.1\r\nNoColon\r\n\r\n", "bad_header"),
        (b"GET /v1/stations HTTP/1.1\r\nHost : x\r\n\r\n", "bad_header"),
        (b"GET /v1/stations HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n", "bad_header"),
    ])
    def test_bad_request_line_or_header_gets_400(self, server, head, error):
        reply = raw_exchange(server, head + b"GET /v1/stations HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n"), reply
        assert reply.endswith(b'{"error":"%s"}' % error.encode())
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.count(b"HTTP/1.1 ") == 1

    @pytest.mark.parametrize("method", ["HEAD", "PUT", "DELETE"])
    def test_other_methods_get_501(self, server, method):
        reply = raw_exchange(server, b"%s /v1/stations HTTP/1.1\r\nHost: x\r\n\r\n"
                             % method.encode())
        assert reply.startswith(b"HTTP/1.1 501 Not Implemented\r\n"), reply
        assert reply.endswith(b'{"error":"method_not_supported"}')
        assert b"\r\nConnection: close\r\n" in reply

    def test_handler_error_answered_500_and_logged(self, caplog):
        class BrokenService:
            def ingest(self, text):
                raise RuntimeError("boom")

        srv = HttpServer(BrokenService(), port=0)
        srv.start()
        try:
            body = frame_text().encode()
            reply = raw_request(srv, f"Content-Length: {len(body)}", body)
        finally:
            srv.shutdown()
        assert reply.startswith(b"HTTP/1.1 500 Internal Server Error\r\n"), reply
        assert reply.endswith(b'{"error":"internal_error"}')
        assert b"\r\nConnection: close\r\n" in reply
        errors = [r for r in caplog.records if r.name == "iccamon.service"]
        assert len(errors) == 1 and errors[0].exc_info[0] is RuntimeError

    @pytest.mark.parametrize("body", [
        b"[" * 4000,  # within MAX_BODY_BYTES, and deeper than the parser goes
        frame_text().replace('"pm25":12.3', '"pm25":' + "9" * 400).encode(),
    ], ids=["nested-too-deep", "400-digit-pm25"])
    def test_body_the_parser_refuses_is_422_not_an_error(self, server, caplog, body):
        # the body is parsed before the station lookup: no token is needed
        reply = raw_request(server, f"Content-Length: {len(body)}\r\nConnection: close", body)
        assert reply.startswith(b"HTTP/1.1 422 "), reply[:200]
        assert reply.endswith(b'{"error":"malformed"}')
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    @pytest.mark.parametrize("bad, good", [
        (b'"tok-a\xff"', b'"tok-a"'),  # inside the token string
        (b'\xff}', b'}'),  # after the object
    ], ids=["in-token", "outside-a-string"])
    def test_body_that_is_not_utf8_is_422(self, server, store, bad, good):
        # JSON between systems is UTF-8: a byte that decodes to no character
        # makes the body malformed, wherever it is, never a bad token
        body = frame_text().encode().replace(good, bad)
        reply = raw_request(server, f"Content-Length: {len(body)}\r\nConnection: close", body)
        assert reply.startswith(b"HTTP/1.1 422 "), reply[:200]
        assert reply.endswith(b'{"error":"malformed"}')
        assert store.count("utec-01") == 0

    def test_shutdown_closes_idle_keep_alive_connections(self, service):
        srv = HttpServer(service, port=0)
        srv.start()
        try:
            idle = []
            for _ in range(2):
                sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
                idle.append(sock)
                sock.sendall(b"GET /v1/stations HTTP/1.1\r\nHost: x\r\n\r\n")
                TestNoDelayedAckStall.read_response(sock)
        finally:
            srv.shutdown()
        for sock in idle:
            with sock:
                sock.settimeout(1)
                assert sock.recv(4096) == b""


class TestHttpBehaviourKept:
    """What the standard library's server did, kept by the front end."""

    def test_expect_100_continue(self, server, store):
        body = frame_text().encode()
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"POST /v1/telemetry HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            interim = b""
            while b"\r\n\r\n" not in interim:
                interim += sock.recv(4096)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            head = TestNoDelayedAckStall.read_response(sock)
        assert head.startswith(b"HTTP/1.1 202 Accepted\r\n")
        assert store.count("utec-01") == 1

    def test_http_1_0_closes_unless_asked_to_keep_alive(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"GET /v1/stations HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            assert TestNoDelayedAckStall.read_response(sock).startswith(b"HTTP/1.1 200 ")
            sock.sendall(b"GET /v1/stations HTTP/1.0\r\n\r\n")
            reply = read_to_eof(sock)
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_connection_close_closes_after_the_reply(self, server):
        reply = raw_exchange(server, b"GET /v1/stations HTTP/1.1\r\nHost: x\r\n"
                                     b"Connection: close\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_every_response_carries_a_date(self, server):
        body = frame_text().encode()
        replies = [
            raw_request(server, f"Content-Length: {len(body)}\r\nConnection: close", body),
            raw_request(server, "Content-Length: x"),
            raw_request(server, f"Content-Length: {MAX_BODY_BYTES + 1}"),
            raw_exchange(server, b"GET /v1/nope HTTP/1.1\r\nConnection: close\r\n\r\n"),
        ]
        for reply in replies:
            date = re.search(rb"\r\nDate: ([^\r]+)\r\n", reply)
            assert date, reply
            sent = email.utils.parsedate_to_datetime(date.group(1).decode())
            assert abs(sent.timestamp() - time.time()) < 5


class TestServerConfig:
    def test_load_valid(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"host": "0.0.0.0", "port": 9000, "data_dir": "dd"}))
        cfg = load_server_config(path)
        # a relative data_dir is relative to the config file
        assert cfg == ServerConfig(host="0.0.0.0", port=9000, data_dir=str(tmp_path / "dd"))

    @pytest.mark.parametrize(
        "obj",
        [
            {"coverage_min": 0.75},  # the 75% coverage rule is a constant
            {"window_s": 86400},  # so is the 24-h window
            {"alert_source": "psychic"},
            {"alert_source": "rolling"},  # alerts key on the rolling index only
            {"bogus_key": 1},
            [1, 2],
            {"port": 70000},
            {"port": None},
            {"port": -1},
        ],
    )
    def test_rejects_bad_config(self, tmp_path, obj):
        path = tmp_path / "server.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="server.json"):
            load_server_config(path)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="server.json"):
            load_server_config(path)

    def test_build_service_creates_data_dir(self, tmp_path):
        cfg = ServerConfig(data_dir=str(tmp_path / "fresh" / "data"))
        service, store = build_service(cfg)
        assert (tmp_path / "fresh" / "data").is_dir()
        store.close()

    def test_build_service_writes_alert_log_in_data_dir(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [{"rule_id": "r3", "trigger_category_min": 3}]}))
        data_dir = register(tmp_path / "data", StationRecord("utec-01", "x", 0.0, 0.0, "tok-a"))
        service, store = build_service(ServerConfig(data_dir=str(data_dir),
                                                    rules_path=str(rules)))
        try:
            for k in range(60):
                assert service.ingest(
                    frame_text(seq=k + 1, ts=START + k * 1200, pm25=100.0))[0] == 202
        finally:
            store.close()
        lines = log_data(data_dir / "alerts.ndjson").splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["raised"]
        assert not (tmp_path / "alerts.ndjson").exists()
