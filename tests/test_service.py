import http.client
import json
import logging
import socket
import struct
import sys
import threading
import time

import pytest
import requests

from iccamon import service as service_mod
from iccamon.rules import Rule, RuleEngine
from iccamon.service import (
    MAX_BODY_BYTES,
    ConfigError,
    HttpServer,
    MonitorService,
    ServerConfig,
    build_service,
    load_server_config,
)
from iccamon.store import StationRecord, TimeSeriesStore
from iccamon.telemetry import TelemetryFrame, serialize

START = 1700006400


def frame_text(station="utec-01", token="tok-a", seq=1, ts=START, pm25=12.3, pm10=20.0,
               temp_c=28.5):
    return serialize(TelemetryFrame(station, token, seq, ts, pm25, pm10, temp_c))


@pytest.fixture
def store(tmp_path):
    s = TimeSeriesStore(tmp_path / "data")
    s.upsert_station(StationRecord("utec-01", "San Salvador", 13.70, -89.19, "tok-a"))
    s.upsert_station(StationRecord("santa-ana", "Santa Ana", 13.99, -89.56, "tok-b"))
    yield s
    s.close()


@pytest.fixture
def service(store):
    return MonitorService(store)


@pytest.fixture
def server(service):
    srv = HttpServer(service, port=0)
    srv.start()
    yield srv
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
        before = store.query_range("utec-01", 0, 2**62)
        for text in (frame_text(seq=1), frame_text(seq=9, token="x"),
                     frame_text(seq=9, temp_c=-4.0), "garbage"):
            status, _ = service.ingest(text)
            assert status != 202
            assert store.query_range("utec-01", 0, 2**62) == before

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

    def test_read_your_writes(self, service, store):
        status, _ = service.ingest(frame_text(seq=1, ts=START + 60))
        assert status == 202
        assert store.latest("utec-01").ts == START + 60
        assert service.latest_payload("utec-01")["measurement"]["seq"] == 1

    def test_seq_state_rebuilt_after_restart(self, tmp_path):
        data = tmp_path / "d"
        with TimeSeriesStore(data) as s:
            s.upsert_station(StationRecord("utec-01", "x", 0.0, 0.0, "tok-a"))
            MonitorService(s).ingest(frame_text(seq=41))
        with TimeSeriesStore(data) as s:
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
            seqs = [m.seq for m in store.query_range(sid, 0, 2**62)]
            assert seqs == list(range(1, 51))


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
        # a one-sample window makes every accepted frame a sufficient window,
        # so the rule sees each accepted frame in seq order
        engine = RuleEngine([Rule("r3", trigger_category_min=3)])
        emitted = []
        original = engine.observe
        engine.observe = lambda sid, icca, ts: emitted.extend(original(sid, icca, ts))  # type: ignore
        service = MonitorService(store, window_s=1200, rule_engine=engine)
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
        stored = [m.seq for m in store.query_range("utec-01", 0, 2**62)]
        log = store.data_dir / "series" / "utec-01.ndjson"
        on_disk = [json.loads(line)["seq"] for line in log.read_text().splitlines()]
        assert on_disk == stored
        assert all(a < b for a, b in zip(stored, stored[1:]))
        assert accepted == stored
        assert stored[-1] == 120
        assert [e.kind.value for e in emitted] == ["raised"]

    def test_seq_zero_first_frame_survives_restart(self, tmp_path):
        data = tmp_path / "d"
        with TimeSeriesStore(data) as s:
            s.upsert_station(StationRecord("utec-01", "x", 0.0, 0.0, "tok-a"))
            svc = MonitorService(s)
            assert svc.ingest(frame_text(seq=0))[0] == 202
            assert svc.ingest(frame_text(seq=0)) == (409, {"error": "duplicate_seq"})
        with TimeSeriesStore(data) as s:
            svc = MonitorService(s)
            assert svc.ingest(frame_text(seq=0)) == (409, {"error": "duplicate_seq"})
            assert svc.ingest(frame_text(seq=1))[0] == 202
            assert [m.seq for m in s.query_range("utec-01", 0, 2**62)] == [0, 1]

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


class TestAlertWiring:
    def test_rolling_alert_raised_once(self, store):
        engine = RuleEngine([Rule("r3", trigger_category_min=3)])
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

    def test_no_alerts_from_insufficient_windows(self, store):
        engine = RuleEngine([Rule("r1", trigger_category_min=1)])
        fired = []
        engine.observe = lambda sid, icca, ts: fired.append((sid, icca.value, ts))  # type: ignore
        service = MonitorService(store, rule_engine=engine)
        for k in range(10):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=400.0))
        assert fired == []

    def test_instant_alert_source(self, store):
        engine = RuleEngine([Rule("r3", trigger_category_min=3)])
        service = MonitorService(store, rule_engine=engine, alert_source="instant")
        service.ingest(frame_text(seq=1, ts=START, pm25=100.0))
        assert engine._states[("r3", "utec-01")].active


class TestHttpEndpoints:
    def test_post_telemetry_roundtrip(self, server, store):
        resp = requests.post(f"{server.url}/v1/telemetry", data=frame_text().encode())
        assert resp.status_code == 202
        assert resp.json() == {"station_id": "utec-01", "seq": 1}
        assert store.count("utec-01") == 1
        dup = requests.post(f"{server.url}/v1/telemetry", data=frame_text().encode())
        assert dup.status_code == 409

    def test_status_code_mapping(self, server):
        cases = [
            (frame_text(token="bad"), 401),
            (frame_text(station="ghost", token="tok-a"), 404),
            (frame_text(temp_c=-10), 422),
            ("{]", 422),
        ]
        for text, code in cases:
            resp = requests.post(f"{server.url}/v1/telemetry", data=text.encode())
            assert resp.status_code == code, text

    def test_stations_listing_hides_tokens(self, server):
        resp = requests.get(f"{server.url}/v1/stations")
        assert resp.status_code == 200
        stations = resp.json()
        assert {s["station_id"] for s in stations} == {"utec-01", "santa-ana"}
        assert all("token" not in s for s in stations)
        assert stations[0]["lat"] is not None

    def test_latest_endpoint(self, server):
        assert requests.get(f"{server.url}/v1/stations/utec-01/latest").json() == {
            "station_id": "utec-01", "measurement": None}
        requests.post(f"{server.url}/v1/telemetry", data=frame_text(seq=2).encode())
        body = requests.get(f"{server.url}/v1/stations/utec-01/latest").json()
        assert body["measurement"]["seq"] == 2

    def test_history_endpoint(self, server):
        for k in range(5):
            requests.post(f"{server.url}/v1/telemetry",
                          data=frame_text(seq=k + 1, ts=START + k * 100).encode())
        url = f"{server.url}/v1/stations/utec-01/history"
        body = requests.get(f"{url}?from={START}&to={START + 250}").json()
        assert body["count"] == 3
        assert [m["seq"] for m in body["measurements"]] == [1, 2, 3]
        # bounds optional: full history without params
        assert requests.get(url).json()["count"] == 5

    def test_history_invalid_ranges(self, server):
        url = f"{server.url}/v1/stations/utec-01/history"
        assert requests.get(f"{url}?from=10&to=5").status_code == 400
        assert requests.get(f"{url}?from=x&to=5").status_code == 400

    def test_unknown_station_404(self, server):
        for leaf in ("latest", "history", "icca"):
            assert requests.get(f"{server.url}/v1/stations/ghost/{leaf}").status_code == 404
        assert requests.get(f"{server.url}/v1/nope").status_code == 404

    def test_icca_endpoint(self, server, service):
        for k in range(72):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=100.0, pm10=30.0))
        body = requests.get(f"{server.url}/v1/stations/utec-01/icca").json()
        assert body["sufficient"] is True
        assert body["icca"]["value"] == 169
        assert body["icca"]["category"] == "Dañina a la Salud"
        assert body["icca"]["color"] == "red"
        assert body["icca"]["dominant"] == "pm25"
        assert body["coverage"] == pytest.approx(1.0)
        assert body["pm25"]["mean"] == pytest.approx(100.0)

    def test_icca_endpoint_insufficient(self, server):
        requests.post(f"{server.url}/v1/telemetry", data=frame_text().encode())
        body = requests.get(f"{server.url}/v1/stations/utec-01/icca").json()
        assert body["sufficient"] is False and body["icca"] is None

    def test_icca_window_param(self, server, service):
        for k in range(6):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=10.0))
        body = requests.get(
            f"{server.url}/v1/stations/utec-01/icca?window_s=7200").json()
        assert body["window_s"] == 7200
        assert body["sufficient"] is True  # 6 of 6 expected in 2h window
        assert requests.get(
            f"{server.url}/v1/stations/utec-01/icca?window_s=-5").status_code == 400

    def test_overview(self, server, service):
        for k in range(72):
            service.ingest(frame_text(seq=k + 1, ts=START + k * 1200, pm25=20.0))
        body = requests.get(f"{server.url}/v1/overview").json()
        entries = {e["station_id"]: e for e in body["stations"]}
        assert set(entries) == {"utec-01", "santa-ana"}
        filled = entries["utec-01"]
        assert filled["icca"] is not None and filled["icca"]["category"] == "Moderada"
        assert filled["last_seen"] == START + 71 * 1200
        assert filled["location"] == {"lat": 13.7, "lon": -89.19}
        empty = entries["santa-ana"]
        assert empty["latest"] is None and empty["icca"] is None


class TestHttpContentLength:
    @staticmethod
    def raw_post(server, content_length: str) -> bytes:
        """Send a bare POST head and read until the server closes."""
        head = (f"POST /v1/telemetry HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {content_length}\r\n\r\n").encode()
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(head)
            chunks = []
            while chunk := sock.recv(4096):
                chunks.append(chunk)
        return b"".join(chunks)

    @pytest.mark.parametrize("value, status", [
        ("abc", 400), ("-1", 400), ("", 400), (str(MAX_BODY_BYTES + 1), 413), ("1048576", 413),
    ])
    def test_bad_length_answered_and_closed(self, server, value, status):
        reply = self.raw_post(server, value)
        assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply
        assert b"\r\nConnection: close\r\n" in reply
        # the server still answers the next connection
        resp = requests.post(f"{server.url}/v1/telemetry", data=frame_text().encode())
        assert resp.status_code == 202

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

    def test_limit_itself_is_accepted(self, server):
        body = frame_text().encode().ljust(MAX_BODY_BYTES)
        resp = requests.post(f"{server.url}/v1/telemetry", data=body)
        assert resp.status_code == 202


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
            resp = requests.post(f"{srv.url}/v1/telemetry", data=frame_text().encode())
            assert resp.status_code == 202
        finally:
            srv.shutdown()

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


class TestServerConfig:
    def test_load_valid(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"host": "0.0.0.0", "port": 9000, "data_dir": "dd"}))
        cfg = load_server_config(path)
        assert cfg.port == 9000 and cfg.coverage_min == 0.75

    @pytest.mark.parametrize(
        "obj",
        [
            {"coverage_min": 2.0},
            {"window_s": 0},
            {"alert_source": "psychic"},
            {"bogus_key": 1},
            [1, 2],
            {"window_s": None},
            {"port": None},
            {"coverage_min": None},
        ],
    )
    def test_rejects_bad_config(self, tmp_path, obj):
        path = tmp_path / "server.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigError):
            load_server_config(path)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_server_config(path)

    def test_build_service_creates_data_dir(self, tmp_path):
        cfg = ServerConfig(data_dir=str(tmp_path / "fresh" / "data"))
        service, store = build_service(cfg)
        assert (tmp_path / "fresh" / "data").is_dir()
        store.close()
