"""Ingestion and query server: the platform side of the system.

POST /v1/telemetry validates a frame against the station registry, appends
it durably, refreshes the station's rolling 24-hour index, and runs the
alert rules — all under the store's per-station lock, with the store as the
authority on sequence numbers, so acceptance and window updates are
race-free while distinct stations proceed in parallel. Reads are public.

Status mapping: BadToken→401, UnknownStation→404, DuplicateSeq/StaleSeq→409,
OutOfRange/Malformed→422; acceptance → 202 after the record is durable.
A bad Content-Length gets 400, one above MAX_BODY_BYTES 413; both close.
A connection that stalls for SOCKET_TIMEOUT_S is closed.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from . import icca
from .icca import IccaResult, InsufficientDataError, WindowAverage
from .rules import RuleEngine, load_rules_config
from .store import Measurement, StorageError, TimeSeriesStore, UnknownStationError
from .telemetry import RejectReason, parse_and_validate

logger = logging.getLogger(__name__)
request_logger = logging.getLogger("iccamon.http")

MAX_BODY_BYTES = 4096  # a telemetry frame is under 200 bytes
POLL_INTERVAL_S = 0.05  # how long shutdown() waits for serve_forever at most
SOCKET_TIMEOUT_S = 10.0  # a connection that sends nothing for this long is closed

_STATUS_FOR_REASON = {
    RejectReason.BAD_TOKEN: 401,
    RejectReason.UNKNOWN_STATION: 404,
    RejectReason.DUPLICATE_SEQ: 409,
    RejectReason.STALE_SEQ: 409,
    RejectReason.OUT_OF_RANGE: 422,
    RejectReason.MALFORMED: 422,
}


class ConfigError(ValueError):
    pass


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 8321
    data_dir: str = "data"
    coverage_min: float = icca.DEFAULT_COVERAGE_MIN
    window_s: int = icca.WINDOW_24H_S
    rules_path: str | None = None
    alert_source: str = "rolling"  # or "instant"


def load_server_config(path: str | Path) -> ServerConfig:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    known = {f for f in ServerConfig.__dataclass_fields__}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    types = {
        "host": str, "port": int, "data_dir": str, "coverage_min": (int, float),
        "window_s": int, "rules_path": (str, type(None)), "alert_source": str,
    }
    for key, value in obj.items():
        if not isinstance(value, types[key]) or isinstance(value, bool):
            raise ConfigError(f"config {path}: {key} has wrong type ({value!r})")
    cfg = ServerConfig(**obj)
    if cfg.alert_source not in ("rolling", "instant"):
        raise ConfigError(f"alert_source must be 'rolling' or 'instant', got {cfg.alert_source!r}")
    if not 0.0 < cfg.coverage_min <= 1.0:
        raise ConfigError("coverage_min must be in (0, 1]")
    if cfg.window_s <= 0:
        raise ConfigError("window_s must be positive")
    return cfg


@dataclass(frozen=True)
class IccaSnapshot:
    """A station's rolling-window index state at some window end."""

    station_id: str
    window_end: int | None
    window_s: int
    pm25: WindowAverage | None
    pm10: WindowAverage | None
    result: IccaResult | None

    @property
    def sufficient(self) -> bool:
        return self.result is not None

    @property
    def coverage(self) -> float:
        return self.pm25.coverage if self.pm25 is not None else 0.0


class MonitorService:
    """The ingestion pipeline plus the public query surfaces."""

    def __init__(
        self,
        store: TimeSeriesStore,
        coverage_min: float = icca.DEFAULT_COVERAGE_MIN,
        window_s: int = icca.WINDOW_24H_S,
        rule_engine: RuleEngine | None = None,
        alert_source: str = "rolling",
    ):
        self.store = store
        self.coverage_min = coverage_min
        self.window_s = window_s
        self.rule_engine = rule_engine
        self.alert_source = alert_source

    # -- ingestion ---------------------------------------------------------

    def ingest(self, text: str) -> tuple[int, dict]:
        """Process one telemetry submission; returns (status_code, body)."""
        outcome = parse_and_validate(text, self.store.lookup)
        if not outcome.accepted:
            return _STATUS_FOR_REASON[outcome.reason], {"error": outcome.reason.value}
        m = outcome.measurement
        with self.store.station_lock(m.station_id):
            try:
                offset = self.store.append(m)
            except StorageError as exc:
                logger.error("append failed for %s seq %d: %s", m.station_id, m.seq, exc)
                return 500, {"error": "storage_failure"}
            if offset is None:
                # another request for this station was accepted after validation
                last = self.store.last_seq(m.station_id)
                reason = RejectReason.DUPLICATE_SEQ if m.seq == last else RejectReason.STALE_SEQ
                return 409, {"error": reason.value}
            self._post_accept(m)
        return 202, {"station_id": m.station_id, "seq": m.seq}

    def _post_accept(self, m: Measurement) -> None:
        if self.rule_engine is None:
            return
        if self.alert_source == "instant":
            a25 = WindowAverage(m.pm25, 1, 1, 1.0, True)
            a10 = WindowAverage(m.pm10, 1, 1, 1.0, True)
            result = icca.overall_icca(a25, a10)
            self.rule_engine.observe(m.station_id, result, m.ts)
            return
        snapshot = self.rolling_icca(m.station_id)
        if snapshot.sufficient:
            self.rule_engine.observe(m.station_id, snapshot.result, m.ts)

    # -- queries -----------------------------------------------------------

    def rolling_icca(self, station_id: str, window_s: int | None = None) -> IccaSnapshot:
        """Rolling index with the window ending at the station's latest record."""
        window_s = window_s or self.window_s
        latest = self.store.latest(station_id)
        if latest is None:
            return IccaSnapshot(station_id, None, window_s, None, None, None)
        end = latest.ts
        records = self.store.query_range(station_id, end - window_s + 1, end)
        period = self.store.get_station(station_id).report_period_s
        a25 = icca.rolling_average(
            [(r.ts, r.pm25) for r in records], end, window_s, period, self.coverage_min)
        a10 = icca.rolling_average(
            [(r.ts, r.pm10) for r in records], end, window_s, period, self.coverage_min)
        try:
            result = icca.overall_icca(a25, a10)
        except InsufficientDataError:
            result = None
        return IccaSnapshot(station_id, end, window_s, a25, a10, result)

    def stations_payload(self) -> list[dict]:
        out = []
        for rec in self.store.stations():
            entry = rec.to_json_obj()
            del entry["token"]  # reads are public; never leak credentials
            out.append(entry)
        return out

    def latest_payload(self, station_id: str) -> dict:
        m = self.store.latest(station_id)
        return {
            "station_id": station_id,
            "measurement": m.to_json_obj() if m else None,
        }

    def history_payload(self, station_id: str, t0: int, t1: int) -> dict:
        records = self.store.query_range(station_id, t0, t1)
        return {
            "station_id": station_id,
            "from": t0,
            "to": t1,
            "count": len(records),
            "measurements": [r.to_json_obj() for r in records],
        }

    def icca_payload(self, station_id: str, window_s: int | None = None) -> dict:
        self.store.get_station(station_id)  # 404 for unknown ids
        snap = self.rolling_icca(station_id, window_s)
        return _snapshot_payload(snap)

    def overview_payload(self) -> dict:
        entries = []
        for rec in self.store.stations():
            latest = self.store.latest(rec.station_id)
            snap = self.rolling_icca(rec.station_id)
            entry = {
                "station_id": rec.station_id,
                "display_name": rec.display_name,
                "location": {"lat": rec.lat, "lon": rec.lon},
                "latest": latest.to_json_obj() if latest else None,
                "last_seen": latest.ts if latest else None,
                "icca": _icca_fields(snap.result),
                "coverage": snap.coverage,
            }
            entries.append(entry)
        return {"stations": entries}


def _icca_fields(result: IccaResult | None) -> dict | None:
    # index fields are only reported when the window was sufficient
    if result is None:
        return None
    return {
        "value": result.value,
        "category": result.category.name,
        "color": result.category.color,
        "dominant": result.dominant.value if result.dominant else None,
        "beyond_scale": result.beyond_scale,
    }


def _average_fields(avg: WindowAverage | None) -> dict | None:
    if avg is None:
        return None
    return {
        "mean": avg.mean,
        "sample_count": avg.sample_count,
        "expected_count": avg.expected_count,
        "coverage": avg.coverage,
        "sufficient": avg.sufficient,
    }


def _snapshot_payload(snap: IccaSnapshot) -> dict:
    return {
        "station_id": snap.station_id,
        "window_end": snap.window_end,
        "window_s": snap.window_s,
        "sufficient": snap.sufficient,
        "coverage": snap.coverage,
        "pm25": _average_fields(snap.pm25),
        "pm10": _average_fields(snap.pm10),
        "icca": _icca_fields(snap.result),
    }


# -- HTTP layer ----------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def timeout(self) -> float:
        # read when each connection is set up; a stalled read then raises
        # TimeoutError, on which the base handler closes the connection
        return SOCKET_TIMEOUT_S

    @property
    def service(self) -> MonitorService:
        return self.server.service  # type: ignore[attr-defined]

    def do_POST(self):
        started = time.monotonic()
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            self._respond(400, {"error": "bad_content_length"}, started, close=True)
            return
        if length > MAX_BODY_BYTES:
            # the body is left unread, so the connection cannot be reused
            self._respond(413, {"error": "body_too_large"}, started, close=True)
            return
        text = self.rfile.read(length).decode("utf-8", errors="replace")
        if urlsplit(self.path).path != "/v1/telemetry":
            status, body = 404, {"error": "not_found"}
        else:
            status, body = self.service.ingest(text)
        self._respond(status, body, started)

    def do_GET(self):
        started = time.monotonic()
        split = urlsplit(self.path)
        try:
            status, body = self._route_get(split.path, parse_qs(split.query))
        except UnknownStationError:
            status, body = 404, {"error": "unknown_station"}
        except ValueError as exc:
            status, body = 400, {"error": str(exc)}
        self._respond(status, body, started)

    def _route_get(self, path: str, query: dict) -> tuple[int, dict | list]:
        service = self.service
        if path == "/v1/stations":
            return 200, service.stations_payload()
        if path == "/v1/overview":
            return 200, service.overview_payload()
        parts = path.strip("/").split("/")
        if len(parts) == 4 and parts[:2] == ["v1", "stations"]:
            station_id, leaf = parts[2], parts[3]
            if leaf == "latest":
                return 200, service.latest_payload(station_id)
            if leaf == "history":
                t0 = _int_param(query, "from", 0)
                t1 = _int_param(query, "to", 2**62)
                return 200, service.history_payload(station_id, t0, t1)
            if leaf == "icca":
                window = _int_param(query, "window_s", 0) or None
                if window is not None and window <= 0:
                    raise ValueError("window_s must be positive")
                return 200, service.icca_payload(station_id, window)
        return 404, {"error": "not_found"}

    def _respond(self, status: int, body, started: float, close: bool = False) -> None:
        payload = json.dumps(body, ensure_ascii=False).encode("utf-8")
        outcome = ""
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(payload)))
            if close:
                self.send_header("Connection", "close")  # also sets close_connection
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
            outcome = ", client hung up"
        request_logger.info(
            "%s %s -> %d (%.1f ms%s)",
            self.command, self.path, status, (time.monotonic() - started) * 1e3, outcome,
        )

    def log_message(self, fmt, *args):
        # request logging goes through _respond; keep stderr quiet
        pass


def _int_param(query: dict, key: str, default: int) -> int:
    values = query.get(key)
    if not values:
        return default
    try:
        return int(values[0])
    except ValueError:
        raise ValueError(f"{key} must be an integer") from None


class HttpServer:
    """Threaded HTTP front door over a MonitorService."""

    def __init__(self, service: MonitorService, host: str = "127.0.0.1", port: int = 0):
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(POLL_INTERVAL_S,), daemon=True)
        self._thread.start()
        logger.info("listening on %s", self.url)

    def serve_forever(self) -> None:
        logger.info("listening on %s", self.url)
        self._httpd.serve_forever(POLL_INTERVAL_S)

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def build_service(config: ServerConfig) -> tuple[MonitorService, TimeSeriesStore]:
    """Wire a service from a config: store, rule engine, alert log."""
    data_dir = Path(config.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    store = TimeSeriesStore(data_dir)
    engine = None
    if config.rules_path:
        engine = load_rules_config(config.rules_path)
        if engine.alert_log_path is None:
            engine.alert_log_path = data_dir / "alerts.ndjson"
    service = MonitorService(
        store,
        coverage_min=config.coverage_min,
        window_s=config.window_s,
        rule_engine=engine,
        alert_source=config.alert_source,
    )
    return service, store
