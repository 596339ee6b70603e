"""Append-only per-station time-series persistence.

Layout under the data directory:

    stations.json              station registry, read once at open and
                               kept in station_id order
    series/<station_id>.ndjson one JSON record per line, append-only
    alerts.ndjson              the rule engine's alert events, append-only

Both kinds of log are NdjsonLogs: one compact JSON line per record, each
fsynced before the append returns, then ASCII-space padding that keeps
the file allocated up to CHUNK_BYTES ahead of its data (so a log uses at
most that much more disk than its records). The append that creates a
log also fsyncs the directory that holds it, and the open that creates
series/ (with the data directory and its ancestors, when missing) fsyncs
the parent of each directory it makes, so a new file outlasts a power loss
as its records do. A crash mid-write leaves a torn last line, which the
next open blanks with spaces. A record line mirrors the wire frame minus the
token, plus the quality flags derived from its readings. It has its own
format, Measurement.stored_line: one %-format over the record's
validated fields, pinned to the bytes the store's JSON encoder (_encode)
gives for to_json_obj, so the frame path builds no dict. An in-memory
index (records sorted by timestamp, last accepted sequence number) is
rebuilt on open: recovery replays each logged record through
_Station._index, the insert append uses, so the index is built by the
steps the live appends took (logs are small at desk scale). The index
holds each record once, as its log line, the record's compact JSON
encoded once: by the append that wrote it, or split from the log on
open. Beside the lines it keeps only the three numbers a window or a
range reads, ts, pm25 and pm10, in array columns, and the newest record
(latest) whole. A range query returns the lines, so a read never encodes
a record again. At open NdjsonLog.read parses each log line once, as it
reaches it, into a Measurement built by the same constructor as on the
wire path, which is dropped once the line and its three numbers are
indexed: no log is ever held parsed in full. A line that is not as append
writes it (edited by hand, say) is re-encoded from that record in
_Station.recover: with append, the one caller of stored_line, so these
two are the only places a stored line is made. So no key the store does
not write is ever read back. The store is the one place that sums a
window's values (see _Station.window). Beside the index each station
keeps exact running sums of its 24-hour window, built on the window's
first use and from then on kept by every record: a newest one slides the
window forward, a late one inside the window joins its sums, and one
before it only shifts the window's place in the index. So a late record
never makes the window be summed again. A reader that keeps derived state
per station (the service's /overview entries) takes a set from watch():
every append adds its station's id to each such set, so the reader
rebuilds only what changed, without walking the registry. Every config
file is read with load_config and its entries checked with check_keys,
which also types the wire frame's keys (telemetry._parse_fields);
StationRecord alone decides what a valid station is, and the registry
may list a station_id only once. Every JSON reader of the package (log,
config, frame, report reply) catches one exception set, BAD_JSON, so JSON
that is nested too deep or holds a number no float holds is refused as
any bad JSON is, and the store alone defines a record: which readings it
may hold (readings_in_range, the one judge for a frame and a log line),
its flag, its JSON and its line. A record no frame could have carried is a corrupt line: a
reading outside the wire's ranges, a seq or ts that is not an int in the
wire's range (_MAX_SEQ, MAX_TS), or another station's station_id.
"""

from __future__ import annotations

import json
import logging
import os
import re
import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .icca import WINDOW_24H_S, scaled

logger = logging.getLogger(__name__)

BEYOND_SENSOR_RANGE = "beyond_sensor_range"

# one encoder for every log line, wire frame (telemetry.serialize) and
# response body: json.dumps with options builds one per call
_encode_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
_raw_decode = json.JSONDecoder().raw_decode
# A log grows by this much padding at a time (see NdjsonLog): one journal
# commit of a new file size per chunk, not per line.
CHUNK_BYTES = 64 * 1024
_PADDING = b" " * CHUNK_BYTES
_station_id = attrgetter("station_id")
# a station id, as the wire and the registry take it (whole string: fullmatch)
STATION_ID_RE = re.compile(r"[a-z0-9_-]{1,64}")
# What outside JSON (a wire frame, a log line, a config file, a reply) that is
# not the expected value raises in parsing or conversion: RecursionError for
# nesting too deep, OverflowError for an integer no float holds. Every JSON
# reader of the package catches this one set.
BAD_JSON = (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError)
_FLOAT_MAX = sys.float_info.max
# the wire's ranges of a frame's seq and ts (telemetry checks a frame against
# them, recovery a stored record); a ts fits the index's 64-bit column
_MAX_SEQ = 2**64 - 1
MAX_TS = 2**63 - 1  # a signed 64-bit epoch, like the station's time_t
# the wire's ranges of a reading (readings_in_range). PM is accepted in
# [0, PM_MAX) so the index ladder top stays reachable, but anything above
# the sensor's effective ceiling gets a quality flag.
PM_MAX = 1000.0
PM_FLAG_ABOVE = 500.0
TEMP_MIN_C = 0.0
TEMP_MAX_C = 150.0


class StorageError(Exception):
    pass


class UnknownStationError(LookupError):
    pass


def _encode(obj) -> bytes:
    """obj's compact JSON in UTF-8: a log line without its newline, or a
    response body."""
    return _encode_json(obj).encode("utf-8")


def _fsync_dir(path: str | Path) -> None:
    """fsync a directory, so the entries made in it so far are on disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _make_dirs(path: str, fsync: bool) -> None:
    """Create the directory path and each missing ancestor, top down. With
    fsync, the parent of each one is fsynced right after the mkdir, so the
    new entry outlasts a power loss, as a log's records do (NdjsonLog)."""
    try:
        os.mkdir(path)
    except FileExistsError:
        return
    except FileNotFoundError:
        _make_dirs(os.path.dirname(path), fsync)
        os.mkdir(path)
    if fsync:
        _fsync_dir(os.path.dirname(path) or ".")


def readings_in_range(pm25: float, pm10: float, temp_c: float) -> bool:
    """Whether a frame may carry these readings, and so a record hold them:
    PM in [0, PM_MAX), temperature in [TEMP_MIN_C, TEMP_MAX_C]. NaN and
    infinities are outside."""
    return 0.0 <= pm25 < PM_MAX and 0.0 <= pm10 < PM_MAX and TEMP_MIN_C <= temp_c <= TEMP_MAX_C


def _beyond_sensor_range(pm25: float, pm10: float) -> bool:
    """Whether a record with these readings carries the BEYOND_SENSOR_RANGE
    quality flag: the one rule for its flags, in either form below."""
    return pm25 > PM_FLAG_ABOVE or pm10 > PM_FLAG_ABOVE


def _flags(pm25: float, pm10: float) -> list[str]:
    """A record's quality flags, derived from its readings."""
    return [BEYOND_SENSOR_RANGE] if _beyond_sensor_range(pm25, pm10) else []


# Measurement.stored_line: a record's compact JSON (_encode of to_json_obj)
# as one %-format, its flags indexed by _beyond_sensor_range. repr is how
# json writes an int and a float; a station_id needs no escaping, as
# STATION_ID_RE admits no character that JSON escapes.
_LINE = '{"station_id":"%s","seq":%r,"ts":%r,"pm25":%r,"pm10":%r,"temp_c":%r,"flags":%s}'
_FLAGS_JSON = (_encode_json([]), _encode_json([BEYOND_SENSOR_RANGE]))


def load_config(path: str | Path, what: str, build):
    """build(obj) for the JSON value in the file at path. Each BAD_JSON
    error of the parse or the build (bad JSON included) becomes a ValueError
    naming the file; OSError passes."""
    try:
        return build(json.loads(Path(path).read_bytes()))
    except KeyError as exc:
        raise ValueError(f"{what} {path}: missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{what} {path}: wrong type ({exc})") from exc
    except BAD_JSON as exc:
        raise ValueError(f"{what} {path}: {exc}") from exc


def check_keys(obj, where: str, **types) -> None:
    """Refuse an outside JSON object (a config entry or a wire frame) that is
    not a JSON object, has a key not in types, or a value not of its key's
    type (a type or tuple of types). A float is finite, and a JSON int passes
    for one if a float holds it; true and false pass for no key."""
    if not isinstance(obj, dict):
        raise TypeError(f"{where} must be a JSON object, got {obj!r}")
    for key, value in obj.items():
        want = types.get(key)
        if want is None:
            raise ValueError(f"{where}: unknown keys {sorted(obj.keys() - types.keys())}")
        # NaN, inf and an int beyond the largest float fail the float test
        if not (type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX
                if want is float else isinstance(value, want) and type(value) is not bool):
            raise TypeError(f"{where}: {key} is {value!r}")


class NdjsonLog:
    """An append-only file of compact JSON lines, created by the first append.

    The file is allocated ahead of its data: past the last line it holds
    ASCII spaces, which JSON reads as whitespace after the last value. An
    append writes its line at the data end, over that padding, and fsyncs;
    an fsync that does not change the file size commits no new size through
    the file system's journal. Only a line that does not fit grows the
    file, by the line and CHUNK_BYTES of spaces, so a log takes at most
    CHUNK_BYTES more disk than its lines. A file without padding, as
    written before logs were padded, gains it at its first append. A line
    torn by a crash is blanked with spaces when the file is next read or
    appended to (see _load).

    Each append opens the file, writes, fsyncs (with fsync) and closes it
    before it returns, so a log holds no file descriptor between appends.
    The append that creates the file also fsyncs the directory that holds
    it, once: fsync(2) does not promise that a new file's directory entry
    is on disk, and without it a power loss could take the file, and every
    record it acknowledged, with it. Not thread-safe: callers serialise
    appends.
    """

    def __init__(self, path: str | Path, fsync: bool = True):
        self.path = path
        self._fsync = fsync
        self._end: int | None = None  # offset past the last whole line; None until found
        self._size = 0  # file size; the bytes from _end to it are padding
        # _load found no file: its directory is fsynced after the next append
        self._created = False

    def append(self, record: bytes) -> None:
        """Write record (one line's bytes, without the newline) and fsync."""
        line = record + b"\n"
        try:
            if self._end is None:
                self._load()
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o644)
            try:
                pos = self._end
                data = line if pos + len(line) <= self._size else line + _PADDING
                written = os.pwrite(fd, data, pos)
                if written != len(data):
                    # part of data is on disk: find the data end in the file again
                    self._end = None
                    raise StorageError(f"append to {self.path} failed: wrote {written} "
                                       f"of {len(data)} bytes")
                # before the fsync: a retry after a failed fsync writes a second copy
                self._end = pos + len(line)
                self._size = max(self._size, pos + len(data))
                if self._fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)
            if self._created and self._fsync:
                _fsync_dir(os.path.dirname(self.path))
            self._created = False
        except OSError as exc:
            raise StorageError(f"append to {self.path} failed: {exc}") from exc

    def _load(self) -> bytes:
        """The file's bytes up to the data end, which it records; b"" without a file.

        The data ends after the last newline. A write cut short by a crash
        is blanked with spaces on disk, so a torn record never surfaces and
        the next append starts a fresh line: either bytes after the last
        newline that are not padding (the line's end was lost), or a last
        line that starts with a space (its start was lost, its end reached
        disk). Single bytes decide; the padding is never scanned.
        """
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            raw = b""
            self._created = True
        end = raw.rfind(b"\n") + 1
        torn = None
        if raw[end:end + 1] not in (b"", b" "):
            torn = end
            logger.warning("discarding torn record tail at byte %d of %s", end, self.path)
        elif end:
            start = raw.rfind(b"\n", 0, end - 1) + 1
            if raw[start:start + 1] == b" ":
                torn, end = start, start
                logger.warning("discarding torn record start at byte %d of %s", start, self.path)
        if torn is not None:
            with open(self.path, "r+b") as fh:
                fh.seek(torn)
                fh.write(b" " * (len(raw) - torn))
        self._end, self._size = end, len(raw)
        return raw[:end]

    def read(self, convert, what: str):
        """Yield (convert(obj), line) for each non-blank line, in file order:
        line without its newline if it is one JSON value with nothing around
        it (so it can be joined into an array), else None. A torn last line
        is blanked first (see _load); a line that does not parse or convert
        is a StorageError naming path:lineno."""
        try:
            lines = self._load().splitlines()
        except OSError as exc:
            raise StorageError(f"read of {self.path} failed: {exc}") from exc
        for lineno, line in enumerate(lines, 1):
            try:
                text = line.decode()
                try:
                    obj, end = _raw_decode(text)
                except ValueError:
                    end = -1
                if end != len(text):
                    # blanks and a byte-order mark (splitlines ends a line at a CR)
                    text = text.strip(" \t\ufeff")
                    if not text:
                        continue
                    obj, line = json.loads(text), None
                item = convert(obj)
            except BAD_JSON as exc:
                raise StorageError(f"{self.path}:{lineno}: corrupt {what}: {exc}") from exc
            yield item, line


class Measurement(NamedTuple):
    """One stored reading. As a tuple it iterates and compares equal to a
    plain tuple of its fields; its JSON form is to_json_obj, never itself,
    and its log line stored_line."""

    station_id: str
    seq: int
    ts: int
    pm25: float
    pm10: float
    temp_c: float

    def stored_line(self) -> bytes:
        """The record's line in its station's log, without its newline: the
        bytes _encode(self.to_json_obj()) gives, built by one %-format. The
        station_id must be a registered one (STATION_ID_RE), as every
        record the store takes is."""
        station_id, seq, ts, pm25, pm10, temp_c = self
        return (_LINE % (station_id, seq, ts, pm25, pm10, temp_c,
                         _FLAGS_JSON[_beyond_sensor_range(pm25, pm10)])).encode()

    def to_json_obj(self) -> dict:
        return {
            "station_id": self.station_id,
            "seq": self.seq,
            "ts": self.ts,
            "pm25": self.pm25,
            "pm10": self.pm10,
            "temp_c": self.temp_c,
            "flags": _flags(self.pm25, self.pm10),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Measurement":
        return cls(obj["station_id"], obj["seq"], obj["ts"], float(obj["pm25"]),
                   float(obj["pm10"]), float(obj["temp_c"]))


@dataclass(frozen=True)
class StationRecord:
    station_id: str
    display_name: str
    lat: float
    lon: float
    token: str
    report_period_s: int = 1200
    created_at: int = 0

    def __post_init__(self):
        # the one judge of a station, for the registry and the fleet file. fullmatch
        # raises TypeError on a non-str id; type() tells a bool from an int.
        if not STATION_ID_RE.fullmatch(self.station_id):
            raise ValueError(f"bad station_id: {self.station_id!r}")
        if not (type(self.token) is str and self.token and type(self.display_name) is str
                and type(self.report_period_s) is int and type(self.created_at) is int
                and type(self.lat) in (int, float) and type(self.lon) in (int, float)):
            raise TypeError(f"{self.station_id}: need a non-empty string token, a string "
                            f"display_name, integer times and numeric lat/lon")
        if self.report_period_s <= 0:
            raise ValueError("report_period_s must be positive")
        if not -90.0 <= self.lat <= 90.0 or not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"location out of bounds: ({self.lat}, {self.lon})")

    def to_json_obj(self) -> dict:
        return dict(vars(self))  # every field, in declaration order

    @classmethod
    def from_json_obj(cls, obj: dict) -> "StationRecord":
        return cls(**obj)


class _Station:
    """One station's registry record, series file and in-memory index."""

    def __init__(self, record: StationRecord, series_dir: str, fsync: bool):
        self.record = record
        self.log = NdjsonLog(f"{series_dir}/{record.station_id}.ndjson", fsync)
        self.lock = threading.RLock()  # re-entrant: ingest holds it across append and reads
        # Each record is held as its log line, sorted by ts (an equal ts after
        # the ones before it), and as the three numbers the index reads, in
        # columns in the same order: 8 bytes each, no object per record.
        self.lines: list[bytes] = []
        self.ts_index = array("q")
        self.pm25 = array("d")
        self.pm10 = array("d")
        self.newest: Measurement | None = None  # the last record in that order: latest()
        self.last_seq: int | None = None  # None until a record is accepted; 0 is a valid seq
        # The 24-hour window, (latest ts - WINDOW_24H_S, latest ts], is the
        # records from index win_start on; sum25/sum10 are the exact scaled
        # sums of their values (icca.scaled). win_start is None until the
        # window's first use, so recovery does no window work; from then on
        # every record keeps the sums, a late one included.
        self.win_start: int | None = None
        self.sum25 = self.sum10 = 0

    def recover(self) -> None:
        """Replay the log through _index, the insert append uses, so a
        reopened station holds what the live appends left."""
        for (m, as_written), line in self.log.read(self._written_record, "record"):
            # appends write increasing seqs; a repeat is left by a retried append
            if self.accepts(m.seq):
                # a line not as written is served as append would write it,
                # so no key the store does not write is ever read back
                self._index(m, line if line is not None and as_written else m.stored_line())

    def _written_record(self, obj: dict) -> tuple[Measurement, bool]:
        """(the record of a parsed line of this station's log, whether the
        line is what append writes for it): as written, a line has the seven
        keys of to_json_obj, float values and the flags it derives; one
        edited by hand, say, may not, and recover then encodes the line it
        serves from the record. A line that is no record raises as
        from_json_obj does, and one that no frame of the station could have
        carried a ValueError: a reading outside the wire's ranges (NaN,
        Infinity and 1e400 included), a seq or ts that is not an int in the
        wire's range, or another station's station_id."""
        m = Measurement.from_json_obj(obj)
        if not readings_in_range(m.pm25, m.pm10, m.temp_c):
            raise ValueError(f"a reading is out of the wire's range: {m}")
        seq, ts = m.seq, m.ts
        # type() tells a bool from an int
        if not (type(seq) is int and type(ts) is int and 0 <= seq <= _MAX_SEQ
                and 0 <= ts <= MAX_TS):
            raise ValueError(f"seq or ts out of the wire's range: {m}")
        if m.station_id != self.record.station_id:
            raise ValueError(f"a record of another station: {m}")
        # from_json_obj read the other six keys, so with flags (None when
        # missing) these are all seven
        return m, (len(obj) == 7 and obj.get("flags") == _flags(m.pm25, m.pm10)
                   and type(obj["pm25"]) is type(obj["pm10"]) is type(obj["temp_c"]) is float)

    def accepts(self, seq: int) -> bool:
        return self.last_seq is None or seq > self.last_seq

    def _index(self, m: Measurement, line: bytes) -> None:
        ts_index = self.ts_index
        newest = self.newest  # its ts is ts_index[-1], read without making an int
        if newest is None or m.ts >= newest.ts:
            # in ts order, as nearly every frame and log line is: no bisection,
            # which on an array makes an int object of each element it reads
            self.lines.append(line)
            ts_index.append(m.ts)
            self.pm25.append(m.pm25)
            self.pm10.append(m.pm10)
            self.newest = m
        else:
            pos = bisect_right(ts_index, m.ts)
            self.lines.insert(pos, line)
            ts_index.insert(pos, m.ts)
            self.pm25.insert(pos, m.pm25)
            self.pm10.insert(pos, m.pm10)
        self.last_seq = m.seq
        if self.win_start is None:
            return
        lo = self.newest.ts - WINDOW_24H_S
        if m.ts <= lo:
            # before the window: it moves the window's records up one place
            self.win_start += 1
            return
        # in the window; a newest record also moves the window's end up to m.ts
        self.sum25 += scaled(m.pm25)
        self.sum10 += scaled(m.pm10)
        start = self.win_start
        while ts_index[start] <= lo:
            self.sum25 -= scaled(self.pm25[start])
            self.sum10 -= scaled(self.pm10[start])
            start += 1
        self.win_start = start

    def window(self, window_s: int) -> tuple[int, int, int, int] | None:
        """(window end, sample count, scaled pm2.5 sum, scaled pm10 sum) of
        (latest ts - window_s, latest ts], or None without records. Call
        under the lock.

        The 24-hour window is summed in one pass at its first use, and from
        then on _index keeps it up to date for every record, a late one
        included: O(1) amortised per newest record, O(1) per older one.
        Any other width is summed in one pass at each call.
        """
        count = len(self.lines)
        if not count:
            return None
        end = self.ts_index[-1]
        if window_s == WINDOW_24H_S and self.win_start is not None:
            return end, count - self.win_start, self.sum25, self.sum10
        start = bisect_right(self.ts_index, end - window_s)
        sum25 = sum10 = 0
        for pm25, pm10 in islice(zip(self.pm25, self.pm10), start, None):
            sum25 += scaled(pm25)
            sum10 += scaled(pm10)
        if window_s == WINDOW_24H_S:
            self.win_start, self.sum25, self.sum10 = start, sum25, sum10
        return end, count - start, sum25, sum10


class TimeSeriesStore:
    """Durable per-station measurement logs with duplicate suppression.

    The store owns all per-station state. One writer per station log
    (enforced with a per-station lock); readers see a consistent snapshot
    taken under the same lock. It also holds the rule engine's alert log.
    """

    REGISTRY_FILE = "stations.json"
    SERIES_DIR = "series"
    ALERT_LOG_FILE = "alerts.ndjson"

    def __init__(self, data_dir: str | Path, fsync: bool = True):
        self.data_dir = Path(data_dir)
        self.series_dir = f"{self.data_dir}/{self.SERIES_DIR}"
        _make_dirs(self.series_dir, fsync)
        self.alert_log = NdjsonLog(f"{self.data_dir}/{self.ALERT_LOG_FILE}", fsync)
        self._stations: dict[str, _Station] = {}
        self._watchers: list[set[str]] = []  # each set watch() handed out
        self._load_registry(fsync)
        # one directory listing instead of a stat per registered station
        logs = {entry.path for entry in os.scandir(self.series_dir)}
        for station in self._stations.values():
            if station.log.path in logs:
                station.recover()

    # -- registry ----------------------------------------------------------

    def _load_registry(self, fsync: bool) -> None:
        path = self.data_dir / self.REGISTRY_FILE
        if not path.exists():
            return
        try:
            records = load_config(path, "corrupt registry",
                                  lambda objs: [StationRecord.from_json_obj(obj) for obj in objs])
        except ValueError as exc:
            raise StorageError(str(exc)) from exc
        # _stations stays in station_id order, so listing the registry sorts nothing
        for record in sorted(records, key=_station_id):
            if record.station_id in self._stations:
                # the later entry's token would replace the earlier one's unseen
                raise StorageError(f"corrupt registry {path}: station_id "
                                   f"{record.station_id!r} appears twice")
            self._stations[record.station_id] = _Station(record, self.series_dir, fsync)

    def _station(self, station_id: str) -> _Station:
        try:
            return self._stations[station_id]
        except KeyError:
            raise UnknownStationError(station_id) from None

    def get_station(self, station_id: str) -> StationRecord:
        return self._station(station_id).record

    def station_ids(self) -> list[str]:
        return list(self._stations)

    def stations(self) -> list[StationRecord]:
        """The registry, in station_id order (as is station_ids)."""
        return [station.record for station in self._stations.values()]

    def token_registry(self) -> dict[str, str]:
        return {sid: st.record.token for sid, st in self._stations.items()}

    def lookup(self, station_id: str) -> tuple[str, int | None] | None:
        """(token, last accepted seq or None) for a registered station, else None."""
        station = self._stations.get(station_id)
        return None if station is None else (station.record.token, station.last_seq)

    def station_lock(self, station_id: str) -> threading.RLock:
        return self._station(station_id).lock

    # -- series ------------------------------------------------------------

    def append(self, m: Measurement) -> int | None:
        """Durably append one measurement.

        Returns the record offset in the station log, or None when m.seq is
        not above the station's last accepted seq (the log is unchanged).
        """
        station = self._station(m.station_id)
        with station.lock:
            if not station.accepts(m.seq):
                return None
            line = m.stored_line()
            station.log.append(line)
            offset = len(station.lines)
            station._index(m, line)
            for changed in self._watchers:
                changed.add(m.station_id)
            return offset

    def watch(self) -> set[str]:
        """A new set of station ids, holding every registered station at
        first. From then on each append adds its station's id, after the
        record is indexed and under the station's lock, so a reader that
        pops an id and then reads the station sees that record or a newer
        one. A set holds at most one id per station, whatever the number
        of records; the caller drains it. Each caller gets its own set,
        kept for the store's life, so one caller's pops hide nothing from
        another's."""
        changed = set(self._stations)
        self._watchers.append(changed)
        return changed

    def query_range(self, station_id: str, t0: float, t1: float) -> list[bytes]:
        """The stored lines of all records with ts in [t0, t1], ascending by
        ts: each the record's compact JSON (its to_json_obj), in UTF-8."""
        if t0 > t1:
            raise ValueError(f"empty range: t0={t0} > t1={t1}")
        station = self._station(station_id)
        with station.lock:
            lines, ts_index, newest = station.lines, station.ts_index, station.newest
            if newest is None:
                return []
            # a bound past an end of the index needs no bisection, which on
            # an array makes an int object of each element it reads
            lo = 0 if t0 <= ts_index[0] else bisect_left(ts_index, t0)
            hi = len(lines) if t1 >= newest.ts else bisect_right(ts_index, t1)
            return lines[lo:hi]

    def window(self, station_id: str, window_s: int) -> tuple[int, int, int, int] | None:
        """(window end, sample count, scaled pm2.5 sum, scaled pm10 sum) of the
        station's window (latest ts - window_s, latest ts], or None when it
        has no records."""
        station = self._station(station_id)
        with station.lock:
            return station.window(window_s)

    def latest(self, station_id: str) -> Measurement | None:
        station = self._station(station_id)
        with station.lock:
            return station.newest

    def count(self, station_id: str) -> int:
        return len(self._station(station_id).lines)

    def last_seq(self, station_id: str) -> int | None:
        return self._station(station_id).last_seq

    def close(self) -> None:
        """Nothing to release: a log holds no file between appends. Kept for
        callers written when the store held files (perfbench/ calls it)."""
