"""Ingestion and query server: the platform side of the system.

POST /v1/telemetry validates a frame against the station registry, appends
it durably, refreshes the station's rolling 24-hour index, and runs the
alert rules — all under the store's per-station lock, with the store as the
authority on sequence numbers, so acceptance and window updates are
race-free while distinct stations proceed in parallel. Reads are public.

Every index, for a frame's alert rules, an /icca read or an /overview
entry, is the rolling index over window sums from the store. The 24-hour
window's sums are kept beside each station's records, so it costs constant
work; /icca with another window_s has the store sum that window once. Both
give the same exact, correctly rounded means.

/overview keeps one built entry per registered station and rebuilds it
only after that station's next accepted record: records are append-only
and the registry is fixed at open, so a station's record count versions
its entry. The registry's order (by station_id) is also fixed at open.

Status mapping: BadToken→401, UnknownStation→404, DuplicateSeq/StaleSeq→409,
OutOfRange/Malformed→422; acceptance → 202 after the record is durable.

HttpServer is a keep-alive HTTP/1.1 loop on a plain socket: an accept
thread and one thread per connection, at most MAX_CONNECTIONS of them (one
more gets 503). A request's head is read into a buffer of at most
MAX_HEAD_BYTES (431 beyond) and parsed once; its body is exactly
Content-Length bytes, for every method (RFC 9112 section 6); the reply,
headers and body, goes out in one write. A request line or header line
that does not parse, a bad Content-Length or repeats that differ get 400,
a body over MAX_BODY_BYTES 413, a method other than GET and POST or any
Transfer-Encoding 501. Every refusal closes the connection. A request
must arrive whole within SOCKET_TIMEOUT_S of the previous reply (or of the
accept); past that deadline the connection is closed unanswered, which
also ends an idle keep-alive connection.

Relative paths in a server config file are relative to that file.
"""

from __future__ import annotations

import json
import logging
import re
import socket
import threading
import time
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from . import icca
from .icca import IccaResult, InsufficientDataError, WindowAverage
from .rules import RuleEngine, load_rules_config
from .store import (
    Measurement, StationRecord, StorageError, TimeSeriesStore, UnknownStationError,
)
from .telemetry import RejectReason, parse_and_validate

logger = logging.getLogger(__name__)
request_logger = logging.getLogger("iccamon.http")

MAX_BODY_BYTES = 4096  # a telemetry frame is under 200 bytes
MAX_HEAD_BYTES = 8192  # request line, header lines and the empty line after them
MAX_CONNECTIONS = 64  # served at once; one beyond gets 503
POLL_INTERVAL_S = 0.05  # how long shutdown() waits for the accept loop at most
# a request (head and body) must arrive whole within this long of the
# previous reply, or of the accept; an idle connection is closed then too
SOCKET_TIMEOUT_S = 10.0
_RECV_BYTES = 65536
# one encoder for every response: json.dumps with options builds one per call
_RESPONSE_ENCODER = json.JSONEncoder(ensure_ascii=False)
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n".encode() for s in HTTPStatus}
_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")  # RFC 9110 section 5.6.2
_REQUEST_LINE = re.compile(f"({_TOKEN.pattern})" + r" (\S+) HTTP/1\.([0-9])")
_CLOSE = b"Connection: close\r\n"
_KEEP_ALIVE = b"Connection: keep-alive\r\n"

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
    rules_path: str | None = None
    # read by nothing: alerts key on the rolling index only. Kept because
    # perfbench/workloads.py still passes alert_source="rolling".
    alert_source: str = "rolling"


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
    types = {"host": str, "port": int, "data_dir": str, "rules_path": (str, type(None))}
    unknown = set(obj) - set(types)
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    for key, value in obj.items():
        if not isinstance(value, types[key]) or isinstance(value, bool):
            raise ConfigError(f"config {path}: {key} has wrong type ({value!r})")
    cfg = ServerConfig(**obj)
    if not 0 <= cfg.port <= 65535:
        raise ConfigError(f"config {path}: port must be in 0..65535, got {cfg.port}")
    # relative paths in a config file are relative to that file
    cfg.data_dir = str(path.parent / cfg.data_dir)
    if cfg.rules_path is not None:
        cfg.rules_path = str(path.parent / cfg.rules_path)
        try:
            open(cfg.rules_path, "rb").close()
        except OSError as exc:
            raise ConfigError(f"config {path}: rules_path {cfg.rules_path} cannot be opened: "
                              f"{exc.strerror}") from exc
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

    # the index is defined on the 24-hour mean over 75% of the expected samples
    window_s = icca.WINDOW_24H_S
    coverage_min = icca.DEFAULT_COVERAGE_MIN

    def __init__(self, store: TimeSeriesStore, rule_engine: RuleEngine | None = None):
        self.store = store
        self.rule_engine = rule_engine
        self._registry = store.stations()  # fixed at open, in station_id order
        # per registered station, (record count, overview entry) built at
        # that count; -1 matches no count, so the first overview builds all
        self._overview: list[tuple[int, dict | None]] = [(-1, None)] * len(self._registry)

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
        snapshot = self.rolling_icca(m.station_id)
        if snapshot.sufficient:
            self.rule_engine.observe(m.station_id, snapshot.result, m.ts)

    # -- queries -----------------------------------------------------------

    def rolling_icca(self, station_id: str, window_s: int | None = None) -> IccaSnapshot:
        """Rolling index over the store's window sums for the window ending
        at the station's latest record."""
        window_s = window_s or self.window_s
        period = self.store.get_station(station_id).report_period_s
        window = self.store.window(station_id, window_s)
        if window is None:
            return IccaSnapshot(station_id, None, window_s, None, None, None)
        end, count, sum25, sum10 = window
        a25 = icca.window_average(count, sum25, window_s, period, self.coverage_min)
        a10 = icca.window_average(count, sum10, window_s, period, self.coverage_min)
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
        return _snapshot_payload(self.rolling_icca(station_id, window_s))

    def overview_payload(self) -> dict:
        """One entry per registered station, in station_id order.

        An entry is rebuilt only when its station's record count has moved
        since it was built, so a station without a new record costs a
        length read and a compare. Entries are shared between calls (and
        between threads): an in-process caller must not mutate them.
        """
        cache = self._overview
        entries = []
        for i, count in enumerate(self.store.record_counts()):
            built = cache[i]
            if built[0] != count:
                # one list slot holds the count and its entry together, so a
                # concurrent reader that stores an older pair leaves a count
                # that no longer matches, and the next read rebuilds it
                built = cache[i] = self._overview_entry(self._registry[i])
            entries.append(built[1])
        return {"stations": entries}

    def _overview_entry(self, rec: StationRecord) -> tuple[int, dict]:
        """(record count, entry) read under one hold of the station lock, so
        latest, last_seen and the index come from the same records."""
        sid = rec.station_id
        with self.store.station_lock(sid):
            count = self.store.count(sid)
            latest = self.store.latest(sid)
            # a station with no records has no window to read
            snap = self.rolling_icca(sid) if latest else None
        return count, {
            "station_id": sid,
            "display_name": rec.display_name,
            "location": {"lat": rec.lat, "lon": rec.lon},
            "latest": latest.to_json_obj() if latest else None,
            "last_seen": latest.ts if latest else None,
            "icca": _icca_fields(snap.result) if snap else None,
            "coverage": snap.coverage if snap else 0.0,
        }


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


class _Refusal(Exception):
    """A request answered with {"error": ...} and then closed on."""

    def __init__(self, status: int, error: str):
        super().__init__(error)
        self.status = status


class _Connection:
    """One client connection, serving its keep-alive requests in turn.

    Each request must arrive whole (head and body) within SOCKET_TIMEOUT_S
    of the previous reply, or of the accept for the first one; an idle
    connection is closed at the same deadline.
    """

    def __init__(self, server: HttpServer, sock: socket.socket):
        self.server = server
        self.sock = sock
        self.timeout = SOCKET_TIMEOUT_S  # read per connection
        self.buf = b""
        self.deadline = 0.0

    def serve(self) -> None:
        try:
            while self._request():
                pass
        except OSError:
            pass  # reset by the client, or no whole request by the deadline

    def _read_more(self) -> bool:
        """Add what the client sends next to the buffer; False if it closed."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError
        self.sock.settimeout(remaining)
        chunk = self.sock.recv(_RECV_BYTES)
        self.buf += chunk
        return bool(chunk)

    def _read_head(self) -> str | None:
        """The request line and header lines, or None if the client closed."""
        # the head counts up to and including the empty line that ends it
        while (end := self.buf.find(b"\r\n\r\n")) < 0:
            if len(self.buf) >= MAX_HEAD_BYTES:
                raise _Refusal(431, "header_too_large")
            if not self._read_more():
                return None
        if end + 4 > MAX_HEAD_BYTES:
            raise _Refusal(431, "header_too_large")
        head, self.buf = self.buf[:end], self.buf[end + 4:]
        return head.decode("latin-1")

    def _read_body(self, length: int) -> bytes | None:
        while len(self.buf) < length:
            if not self._read_more():
                return None
        body, self.buf = self.buf[:length], self.buf[length:]
        return body

    def _request(self) -> bool:
        """Read, route and answer one request; False once the connection is done.

        Framing follows RFC 9112 section 6: a body is exactly Content-Length
        bytes, for every method, and is read before the request is routed.
        """
        started = time.monotonic()  # until the head is in, for a refusal's log line
        self.deadline = started + self.timeout
        method = target = "-"
        try:
            head = self._read_head()
            if head is None:
                return False
            started = time.monotonic()
            lines = head.split("\r\n")
            match = _REQUEST_LINE.fullmatch(lines[0])
            if match is None:
                raise _Refusal(400, "bad_request_line")
            method, target, minor = match.groups()
            fields = _parse_fields(lines[1:])
            if method not in ("GET", "POST"):
                raise _Refusal(501, "method_not_supported")
            if "transfer-encoding" in fields:
                # bodies are framed by Content-Length only; this one is left
                # unread, so the connection cannot carry another request
                raise _Refusal(501, "transfer_encoding_not_supported")
            length = _content_length(fields.get("content-length", ["0"]))
        except _Refusal as refusal:
            self._respond(method, target, refusal.status, {"error": str(refusal)}, started,
                          _CLOSE)
            return False
        connection = _connection_header(fields, minor)
        if (minor != "0" and len(self.buf) < length
                and any(v.lower() == "100-continue" for v in fields.get("expect", ()))):
            self.sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self._read_body(length)
        if body is None:
            return False
        try:
            status, payload = self._route(method, target, body)
        except Exception:  # a bug in a handler: answer it, keep the traceback, close
            logger.exception("error serving %s %s", method, target)
            status, payload, connection = 500, {"error": "internal_error"}, _CLOSE
        return self._respond(method, target, status, payload, started, connection)

    def _route(self, method: str, target: str, body: bytes) -> tuple[int, dict | list]:
        split = urlsplit(target)
        service = self.server.service
        if method == "POST":
            if split.path != "/v1/telemetry":
                return 404, {"error": "not_found"}
            return service.ingest(body.decode("utf-8", errors="replace"))
        try:
            return _route_get(service, split.path, parse_qs(split.query))
        except UnknownStationError:
            return 404, {"error": "unknown_station"}
        except ValueError as exc:
            return 400, {"error": str(exc)}

    def _respond(self, method: str, target: str, status: int, body, started: float,
                 connection: bytes) -> bool:
        """Send the reply in one write; False when the connection is to close."""
        outcome = ""
        try:
            self.sock.settimeout(self.timeout)
            self.sock.sendall(_response(status, body, self.server._http_date(), connection))
        except TimeoutError:
            connection, outcome = _CLOSE, ", client stopped reading"
        except OSError:
            connection, outcome = _CLOSE, ", client hung up"
        request_logger.info(
            "%s %s -> %d (%.1f ms%s)",
            method, target, status, (time.monotonic() - started) * 1e3, outcome,
        )
        return connection is not _CLOSE


def _parse_fields(lines: list[str]) -> dict[str, list[str]]:
    """Header fields by lower-cased name; each value stripped of blanks."""
    fields: dict[str, list[str]] = {}
    for line in lines:
        name, colon, value = line.partition(":")
        # no blank is allowed before the colon, nor a folded line (RFC 9112 section 5)
        if not colon or _TOKEN.fullmatch(name) is None:
            raise _Refusal(400, "bad_header")
        fields.setdefault(name.lower(), []).append(value.strip(" \t"))
    return fields


def _connection_header(fields: dict[str, list[str]], minor: str) -> bytes:
    """The Connection header of the reply: close, unless the client keeps the
    connection open (HTTP/1.1 by default, HTTP/1.0 only when it asks)."""
    tokens = {t.strip(" \t").lower() for v in fields.get("connection", ()) for t in v.split(",")}
    if minor == "0":
        return _KEEP_ALIVE if "keep-alive" in tokens else _CLOSE
    return _CLOSE if "close" in tokens else b""


def _content_length(values: list[str]) -> int:
    # 1*DIGIT (RFC 9110 section 8.6); int() would also take "+5", "1_0" and " 5".
    # Repeats that differ are a framing error (RFC 9112 section 6.3).
    distinct = set(values)
    value = distinct.pop()
    if distinct or not (value.isascii() and value.isdigit()):
        raise _Refusal(400, "bad_content_length")
    digits = value.lstrip("0") or "0"
    # more digits than the cap has are over it; int() refuses a few thousand
    # (sys.get_int_max_str_digits), so it never sees them
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        # the body is left unread, so the connection cannot be reused
        raise _Refusal(413, "body_too_large")
    return int(digits)


def _route_get(service: MonitorService, path: str, query: dict) -> tuple[int, dict | list]:
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
            window = _int_param(query, "window_s", None)
            if window is not None and window <= 0:
                raise ValueError("window_s must be positive")
            return 200, service.icca_payload(station_id, window)
    return 404, {"error": "not_found"}


def _int_param(query: dict, key: str, default: int | None) -> int | None:
    values = query.get(key)
    if not values:
        return default
    try:
        return int(values[0])
    except ValueError:
        raise ValueError(f"{key} must be an integer") from None


def _response(status: int, body, date: bytes, connection: bytes) -> bytes:
    """Status line, headers and JSON body as one buffer."""
    payload = _RESPONSE_ENCODER.encode(body).encode("utf-8")
    return b"%sDate: %s\r\nContent-Type: application/json; charset=utf-8\r\n" \
           b"Content-Length: %d\r\n%s\r\n%s" % (
               _STATUS_LINES[status], date, len(payload), connection, payload)


class HttpServer:
    """HTTP/1.1 front door over a MonitorService: an accept thread and one
    thread per connection, at most MAX_CONNECTIONS of them at once, from
    start() until shutdown()."""

    def __init__(self, service: MonitorService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._listener = socket.create_server((host, port))
        self._address = self._listener.getsockname()
        # accept() wakes this often to see whether shutdown() was called
        self._listener.settimeout(POLL_INTERVAL_S)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()  # guards _connections
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._date_cache = (0, b"")

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def url(self) -> str:
        return f"http://{self._address[0]}:{self.port}"

    def _http_date(self) -> bytes:
        """The Date header value (RFC 9110 section 6.6.1), formatted once a second."""
        now = int(time.time())
        cached = self._date_cache
        if cached[0] != now:
            cached = self._date_cache = (now, formatdate(now, usegmt=True).encode("ascii"))
        return cached[1]

    def start(self) -> None:
        """Accept connections on a background thread until shutdown()."""
        self._thread = threading.Thread(
            target=self._accept_loop, name="iccamon-http-accept", daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        logger.info("listening on %s", self.url)
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError as exc:  # out of file descriptors, say
                logger.warning("accept failed: %s", exc)
                self._stop.wait(POLL_INTERVAL_S)
                continue
            self._admit(sock)

    def _admit(self, sock: socket.socket) -> None:
        # a reply is one write, but with Nagle's algorithm a second one right
        # after it (pipelined requests, or 100 Continue and then the reply)
        # would wait for the client's delayed ACK of the first
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            if len(self._connections) < MAX_CONNECTIONS:
                thread = threading.Thread(target=self._serve_connection, args=(sock,),
                                          name="iccamon-http-conn", daemon=True)
                self._connections[sock] = thread
                thread.start()
                return
        request_logger.info("- - -> 503 (%d connections open)", MAX_CONNECTIONS)
        with sock:
            sock.setblocking(False)  # a small reply into an empty send buffer
            try:
                sock.sendall(_response(503, {"error": "too_many_connections"}, self._http_date(),
                                       _CLOSE))
            except OSError:
                pass

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            _Connection(self, sock).serve()
        finally:
            with self._lock:
                del self._connections[sock]
                sock.close()

    def shutdown(self) -> None:
        """Stop accepting, close the listener and every open connection, and
        wait for the accept thread and each connection's thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self._listener.close()
        with self._lock:
            threads = list(self._connections.values())
            for sock in self._connections:
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # wakes a thread blocked in recv
                except OSError:
                    pass
        deadline = time.monotonic() + 5
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))


def build_service(config: ServerConfig) -> tuple[MonitorService, TimeSeriesStore]:
    """Wire a service from a config: store, and a rule engine that writes
    the store's alert log, always <data_dir>/alerts.ndjson."""
    data_dir = Path(config.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    store = TimeSeriesStore(data_dir)
    engine = None
    if config.rules_path:
        engine = load_rules_config(config.rules_path, store.alert_log)
    service = MonitorService(store, rule_engine=engine)
    return service, store
