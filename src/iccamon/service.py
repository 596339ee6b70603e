"""Ingestion and query server: the platform side of the system.

POST /v1/telemetry validates a frame against the station registry, appends
it durably, refreshes the station's rolling 24-hour index, and runs the
alert rules — all under the store's per-station lock, with the store as the
authority on sequence numbers, so acceptance and window updates are
race-free while distinct stations proceed in parallel. A frame validated
before another request for its station was accepted is refused by the
append; it is then validated again under the lock, so the one seq rule,
telemetry.parse_and_validate's, names the refusal. Alert sinks are
called after the lock is released, so no read waits on one. Reads are public.

Every body the server encodes is compact JSON from the store's encoder
(store._encode). A record's log line has its own format
(store.Measurement.stored_line), pinned to that encoder's bytes, so a
record the store wrote reads the same in its log line and in every body
that holds it. A /history body is built from bytes encoded once: its
records are the lines of the store's log (see
store.TimeSeriesStore.query_range), joined into the response, so no record
is encoded per read; a line edited by hand into another key order or
spacing is served as it stands (see store).

Every index, for a frame's alert rules, an /icca read or an /overview
entry, is the rolling index over window sums from the store. The 24-hour
window's sums are kept beside each station's records, so it costs constant
work; /icca with another window_s has the store sum that window once. Both
give the same exact, correctly rounded means. An index is computed once per
window state: the 24-hour snapshot is kept per station with the sums it
came from and served from that memo until the station's window moves, so
the frame that moves it computes the index and the reads after it do not.
A snapshot (IccaSnapshot) and its two window averages are NamedTuples,
the cheapest immutable records to build, as every frame that moves a
window builds all three.

/overview keeps one built entry per registered station and rebuilds it
only after that station's next accepted record: the store hands the
service a set (TimeSeriesStore.watch) to which every append adds its
station's id, and an overview drains it, so a read costs the work of the
stations that took a record since the last one plus one copy of the list
of entries, whatever the size of the registry. The registry and its
order (by station_id) are fixed at open.

Status mapping: BadToken→401, UnknownStation→404, DuplicateSeq/StaleSeq→409,
OutOfRange/Malformed→422, where a body that is not UTF-8 is malformed;
acceptance → 202 after the record is durable, also when the index or the
alert rules then fail (logged with the traceback), so a station never
resends a record the store holds.
/v1/stations is encoded once, at its first request: the registry is fixed
at open.

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

import functools
import logging
import re
import socket
import threading
import time
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from typing import NamedTuple
from urllib.parse import parse_qs, urlsplit

from . import icca
from .icca import IccaResult, InsufficientDataError, WindowAverage
from .rules import AlertEvent, RuleEngine, load_rules_config
from .store import (
    Measurement, StorageError, TimeSeriesStore, UnknownStationError, _encode, check_keys,
    load_config,
)
from .telemetry import MAX_TS, RejectReason, parse_and_validate

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


def _rejected(reason: RejectReason) -> tuple[int, dict]:
    """The status and body that answer a frame refused for reason."""
    return _STATUS_FOR_REASON[reason], {"error": reason.value}


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
    """The server config in a JSON file; every error is a ValueError naming it."""
    return load_config(path, "config", lambda obj: _build_server_config(obj, Path(path).parent))


def _build_server_config(obj, base: Path) -> ServerConfig:
    check_keys(obj, "top level", host=str, port=int, data_dir=str,
               rules_path=(str, type(None)))
    cfg = ServerConfig(**obj)
    if not 0 <= cfg.port <= 65535:
        raise ValueError(f"port must be in 0..65535, got {cfg.port}")
    # relative paths in a config file are relative to that file
    cfg.data_dir = str(base / cfg.data_dir)
    if cfg.rules_path is not None:
        cfg.rules_path = str(base / cfg.rules_path)
        try:
            open(cfg.rules_path, "rb").close()
        except OSError as exc:
            raise ValueError(f"rules_path {cfg.rules_path} cannot be opened: "
                             f"{exc.strerror}") from exc
    return cfg


class IccaSnapshot(NamedTuple):
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
        # /overview: one entry per registered station, in the registry's
        # order (fixed at open); the ids of the stations that took a record
        # since their entry was built, every one at first; and the lock that
        # drains that set, so no overview returns while an entry it should
        # show is still being rebuilt by another
        self._position = {sid: i for i, sid in enumerate(store.station_ids())}
        self._entries: list[dict | None] = [None] * len(self._position)
        self._changed = store.watch()
        self._overview_lock = threading.Lock()
        # the 24-hour snapshot last computed per station, with the window
        # sums it was computed from (see rolling_icca)
        self._snapshots: dict[str, tuple[tuple[int, int, int, int], IccaSnapshot]] = {}

    # -- ingestion ---------------------------------------------------------

    def ingest(self, text: str) -> tuple[int, dict]:
        """Process one telemetry submission; returns (status_code, body)."""
        outcome = parse_and_validate(text, self.store.lookup)
        if not outcome.accepted:
            return _rejected(outcome.reason)
        m = outcome.measurement
        with self.store.station_lock(m.station_id):
            try:
                offset = self.store.append(m)
            except StorageError as exc:
                logger.error("append failed for %s seq %d: %s", m.station_id, m.seq, exc)
                return 500, {"error": "storage_failure"}
            if offset is None:
                # another request for this station was accepted after validation:
                # validated again under the lock, the frame meets the winner's seq,
                # so telemetry alone tells a duplicate from a stale one
                return _rejected(parse_and_validate(text, self.store.lookup).reason)
            events = self._post_accept(m)
        if events:  # logged under the lock; sent outside it, as a sink may take seconds
            self.rule_engine.notify(events)
        return 202, {"station_id": m.station_id, "seq": m.seq}

    def _post_accept(self, m: Measurement) -> list[AlertEvent] | None:
        if self.rule_engine is None:
            return None
        try:
            snapshot = self.rolling_icca(m.station_id)
            if snapshot.sufficient:
                # stamped with the end of the window the index is over: m.ts
                # for an in-order frame, the newest record's ts for a late one
                return self.rule_engine.observe(m.station_id, snapshot.result,
                                                snapshot.window_end)
        except Exception:
            # the record is durable: a 202 keeps the station from resending
            # a frame the store already holds (which would get 409)
            logger.exception("index or alert rules failed after storing %s seq %d",
                             m.station_id, m.seq)
        return None

    # -- queries -----------------------------------------------------------

    @functools.cached_property
    def stations_body(self) -> bytes:
        """The /v1/stations body: the registry without its tokens (reads are
        public). The registry is fixed at open, so it is encoded once, at
        the first request rather than at start, which it would slow by
        milliseconds for a large registry."""
        return _encode([{key: value for key, value in rec.to_json_obj().items() if key != "token"}
                        for rec in self.store.stations()])

    def rolling_icca(self, station_id: str, window_s: int | None = None) -> IccaSnapshot:
        """Rolling index over the store's window sums for the window ending
        at the station's latest record; window_s None means 24 hours.

        A snapshot is a function of the window's (end, count, sums) alone:
        the station's period is fixed at open. So the 24-hour snapshot is
        kept per station and served again while the store's sums for it
        are unchanged; any other width is computed at each call.
        """
        window_s = self.window_s if window_s is None else window_s
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        window = self.store.window(station_id, window_s)
        if window is None:
            return IccaSnapshot(station_id, None, window_s, None, None, None)
        held = window_s == self.window_s
        if held and (kept := self._snapshots.get(station_id)) and kept[0] == window:
            return kept[1]
        period = self.store.get_station(station_id).report_period_s
        end, count, sum25, sum10 = window
        a25 = icca.window_average(count, sum25, window_s, period, self.coverage_min)
        a10 = icca.window_average(count, sum10, window_s, period, self.coverage_min)
        try:
            result = icca.overall_icca(a25, a10)
        except InsufficientDataError:
            result = None
        snapshot = IccaSnapshot(station_id, end, window_s, a25, a10, result)
        if held:
            self._snapshots[station_id] = (window, snapshot)
        return snapshot

    def latest_payload(self, station_id: str) -> dict:
        m = self.store.latest(station_id)
        return {
            "station_id": station_id,
            "measurement": m.to_json_obj() if m else None,
        }

    def history_payload(self, station_id: str, t0: int, t1: int) -> dict:
        """The records with ts in [t0, t1]; "measurements" holds their stored
        lines, each a record's compact JSON in UTF-8 bytes."""
        lines = self.store.query_range(station_id, t0, t1)
        return {
            "station_id": station_id,
            "from": t0,
            "to": t1,
            "count": len(lines),
            "measurements": lines,
        }

    def icca_payload(self, station_id: str, window_s: int | None = None) -> dict:
        return _snapshot_payload(self.rolling_icca(station_id, window_s))

    def overview_payload(self) -> dict:
        """One entry per registered station, in station_id order.

        Only the entries of stations that took a record since the last
        overview are rebuilt; the rest cost nothing, so a read costs that
        work plus one copy of the list of entries. Entries are shared
        between calls (and between threads): an in-process caller must not
        mutate them. Lock order: this service's overview lock, then a
        station lock; ingest never takes the overview lock.
        """
        changed, entries = self._changed, self._entries
        with self._overview_lock:
            while changed:
                sid = changed.pop()
                try:
                    entries[self._position[sid]] = self._overview_entry(sid)
                except BaseException:
                    changed.add(sid)  # so the next overview builds it again
                    raise
            return {"stations": list(entries)}

    def _overview_entry(self, sid: str) -> dict:
        """The station's entry, read under one hold of its lock, so latest,
        last_seen and the index come from the same records."""
        rec = self.store.get_station(sid)
        with self.store.station_lock(sid):
            latest = self.store.latest(sid)
            # a station with no records has no window to read
            snap = self.rolling_icca(sid) if latest else None
        return {
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


def _snapshot_payload(snap: IccaSnapshot) -> dict:
    return {
        "station_id": snap.station_id,
        "window_end": snap.window_end,
        "window_s": snap.window_s,
        "sufficient": snap.sufficient,
        "coverage": snap.coverage,
        # every WindowAverage field, in declaration order
        "pm25": snap.pm25._asdict() if snap.pm25 else None,
        "pm10": snap.pm10._asdict() if snap.pm10 else None,
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
        # the head counts up to and including the empty line that ends it,
        # so that line is looked for only within the first MAX_HEAD_BYTES
        while (end := self.buf.find(b"\r\n\r\n", 0, MAX_HEAD_BYTES)) < 0:
            if len(self.buf) >= MAX_HEAD_BYTES:
                raise _Refusal(431, "header_too_large")
            if not self._read_more():
                return None
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

    def _route(self, method: str, target: str, body: bytes) -> tuple[int, dict | list | bytes]:
        split = urlsplit(target)
        service = self.server.service
        if method == "POST":
            if split.path != "/v1/telemetry":
                return 404, {"error": "not_found"}
            try:
                text = body.decode("utf-8")
            except UnicodeDecodeError:  # JSON between systems is UTF-8 (RFC 8259 section 8.1)
                return _rejected(RejectReason.MALFORMED)
            return service.ingest(text)
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
            self.sock.sendall(_response(status, body, connection))
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


def _route_get(service: MonitorService, path: str, query: dict) -> tuple[int, dict | list | bytes]:
    if path == "/v1/stations":
        return 200, service.stations_body
    if path == "/v1/overview":
        return 200, service.overview_payload()
    parts = path.strip("/").split("/")
    if len(parts) == 4 and parts[:2] == ["v1", "stations"]:
        station_id, leaf = parts[2], parts[3]
        if leaf == "latest":
            return 200, service.latest_payload(station_id)
        if leaf == "history":
            t0 = _int_param(query, "from", 0)
            t1 = _int_param(query, "to", MAX_TS)
            return 200, _history_body(service.history_payload(station_id, t0, t1))
        if leaf == "icca":
            return 200, service.icca_payload(station_id, _int_param(query, "window_s", None))
    return 404, {"error": "not_found"}


def _int_param(query: dict, key: str, default: int | None) -> int | None:
    values = query.get(key)
    if not values:
        return default
    try:
        return int(values[0])
    except ValueError:
        raise ValueError(f"{key} must be an integer") from None


def _history_body(payload: dict) -> bytes:
    """A history payload as JSON: its other fields encoded, then its stored
    lines joined into the "measurements" array, which comes last."""
    head = {key: value for key, value in payload.items() if key != "measurements"}
    return b'%s,"measurements":[%s]}' % (_encode(head)[:-1], b",".join(payload["measurements"]))


def _response(status: int, body, connection: bytes) -> bytes:
    """Status line, headers and body as one buffer: body is JSON already
    encoded (bytes), or a value to encode."""
    payload = body if type(body) is bytes else _encode(body)
    return b"%sDate: %s\r\nContent-Type: application/json; charset=utf-8\r\n" \
           b"Content-Length: %d\r\n%s\r\n%s" % (
               _STATUS_LINES[status], _http_date(int(time.time())), len(payload), connection,
               payload)


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> bytes:
    """The Date header value (RFC 9110 section 6.6.1) of a whole-second
    timestamp."""
    return formatdate(second, usegmt=True).encode("ascii")


class HttpServer:
    """HTTP/1.1 front door over a MonitorService: an accept thread and one
    thread per connection, at most MAX_CONNECTIONS of them at once, from
    start() until shutdown(). Every reply carries a Date header, which the
    module's _http_date formats once a second for all servers: an LRU cache
    of one entry, keyed by the whole-second timestamp.
    """

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

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def url(self) -> str:
        return f"http://{self._address[0]}:{self.port}"

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
                sock.sendall(_response(503, {"error": "too_many_connections"}, _CLOSE))
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
    store = TimeSeriesStore(config.data_dir)
    engine = None
    if config.rules_path:
        engine = load_rules_config(config.rules_path, alert_log=store.alert_log)
    service = MonitorService(store, rule_engine=engine)
    return service, store
