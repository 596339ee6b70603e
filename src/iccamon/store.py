"""Append-only per-station time-series persistence.

Layout under the data directory:

    stations.json              station registry, read once at open and
                               kept in station_id order
    series/<station_id>.ndjson one JSON record per line, append-only
    alerts.ndjson              the rule engine's alert events, append-only

Both kinds of log are NdjsonLogs: one compact JSON line per record, each
fsynced before the append returns, then ASCII-space padding that keeps
the file allocated up to CHUNK_BYTES ahead of its data (so a log uses at
most that much more disk than its records). A crash mid-write leaves a
torn last line, which the next open blanks with spaces. A record line
mirrors the wire frame minus the token, plus quality flags. An in-memory
index (records sorted by timestamp, last accepted sequence number) is
rebuilt on open; logs are small at desk scale. The store is the one place
that sums a window's values (see _Station.window). Beside the index each
station keeps exact running sums of its 24-hour window, built on the
window's first use and slid forward by each newest record; a record older
than the newest drops them, and the next use sums the window again.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from pathlib import Path

from .icca import WINDOW_24H_S, scaled

logger = logging.getLogger(__name__)

BEYOND_SENSOR_RANGE = "beyond_sensor_range"

# one encoder for every log line: json.dumps with options builds one per call
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
# A log grows by this much padding at a time (see NdjsonLog): one journal
# commit of a new file size per chunk, not per line.
CHUNK_BYTES = 64 * 1024
_PADDING = b" " * CHUNK_BYTES
_NO_FLAGS: frozenset[str] = frozenset()
_ts = attrgetter("ts")
_station_id = attrgetter("station_id")
# what a line that is not the expected JSON object raises in parsing or conversion
_BAD_LINE = (ValueError, KeyError, TypeError, AttributeError)


class StorageError(Exception):
    pass


class UnknownStationError(LookupError):
    pass


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
    Not thread-safe: callers serialise appends.
    """

    def __init__(self, path: Path, fsync: bool = True):
        self.path = path
        self._fsync = fsync
        self._end: int | None = None  # offset past the last whole line; None until found
        self._size = 0  # file size; the bytes from _end to it are padding

    def append(self, obj) -> None:
        line = (_ENCODER.encode(obj) + "\n").encode("utf-8")
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
            raw = self.path.read_bytes()
        except FileNotFoundError:
            raw = b""
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

    def read(self, convert, what: str) -> list:
        """convert(obj) for each line, in file order; [] without a file.

        A torn last line is blanked first (see _load). A blank line is
        skipped; a line that does not parse or convert is a StorageError
        naming path:lineno.
        """
        try:
            lines = self._load().splitlines()
        except OSError as exc:
            raise StorageError(f"read of {self.path} failed: {exc}") from exc
        try:
            # one parse for the whole log, much cheaper than one per line;
            # a log it cannot read as one object per line is read line by
            # line below, which names the first bad line
            objs = json.loads(b"[" + b",".join(lines) + b"]")
            if len(objs) == len(lines):
                return [convert(obj) for obj in objs]
        except _BAD_LINE:
            pass
        items = []
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                items.append(convert(json.loads(line)))
            except _BAD_LINE as exc:
                raise StorageError(f"{self.path}:{lineno}: corrupt {what}: {exc}") from exc
        return items


@dataclass(frozen=True)
class Measurement:
    station_id: str
    seq: int
    ts: int
    pm25: float
    pm10: float
    temp_c: float
    flags: frozenset[str] = _NO_FLAGS

    def to_json_obj(self) -> dict:
        return {
            "station_id": self.station_id,
            "seq": self.seq,
            "ts": self.ts,
            "pm25": self.pm25,
            "pm10": self.pm10,
            "temp_c": self.temp_c,
            "flags": sorted(self.flags) if self.flags else [],  # most records have none
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Measurement":
        # positional, and one shared empty flag set: recovery builds every
        # stored record through here
        flags = obj.get("flags", ())
        return cls(obj["station_id"], obj["seq"], obj["ts"], float(obj["pm25"]), float(obj["pm10"]),
                   float(obj["temp_c"]), _NO_FLAGS if flags == [] else frozenset(flags))


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
        if self.report_period_s <= 0:
            raise ValueError("report_period_s must be positive")
        if not -90.0 <= self.lat <= 90.0 or not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"location out of bounds: ({self.lat}, {self.lon})")

    def to_json_obj(self) -> dict:
        return {
            "station_id": self.station_id,
            "display_name": self.display_name,
            "lat": self.lat,
            "lon": self.lon,
            "token": self.token,
            "report_period_s": self.report_period_s,
            "created_at": self.created_at,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "StationRecord":
        return cls(**obj)


class _Station:
    """One station's registry record, series file and in-memory index."""

    def __init__(self, record: StationRecord, series_dir: Path, fsync: bool):
        self.record = record
        self.log = NdjsonLog(series_dir / f"{record.station_id}.ndjson", fsync)
        self.lock = threading.RLock()  # re-entrant: ingest holds it across append and reads
        self.records: list[Measurement] = []  # kept sorted by ts
        self.ts_index: list[int] = []
        self.last_seq: int | None = None  # None until a record is accepted; 0 is a valid seq
        # The 24-hour window, (latest ts - WINDOW_24H_S, latest ts], is
        # records[win_start:]; sum25/sum10 are the exact scaled sums of its
        # values (icca.scaled). win_start is None while no sums are kept:
        # until the window's first use, so recovery does no window work, and
        # again after a record older than the newest is inserted.
        self.win_start: int | None = None
        self.sum25 = self.sum10 = 0

    def recover(self) -> None:
        for m in self.log.read(Measurement.from_json_obj, "record"):
            # appends write increasing seqs; a repeat is left by a retried append
            if self.accepts(m.seq):
                self.records.append(m)
                self.last_seq = m.seq
        # stable, so equal timestamps keep log order, as _index keeps them
        self.records.sort(key=_ts)
        self.ts_index = [m.ts for m in self.records]

    def accepts(self, seq: int) -> bool:
        return self.last_seq is None or seq > self.last_seq

    def _index(self, m: Measurement) -> None:
        pos = bisect_right(self.ts_index, m.ts)
        self.records.insert(pos, m)
        self.ts_index.insert(pos, m.ts)
        self.last_seq = m.seq
        if self.win_start is None:
            return
        if pos < len(self.records) - 1:
            # older than the newest record: the next use sums the window again
            self.win_start = None
            return
        # newest ts (or equal to it): the window end moves up to m.ts
        self.sum25 += scaled(m.pm25)
        self.sum10 += scaled(m.pm10)
        lo = m.ts - WINDOW_24H_S
        start = self.win_start
        while self.ts_index[start] <= lo:
            old = self.records[start]
            self.sum25 -= scaled(old.pm25)
            self.sum10 -= scaled(old.pm10)
            start += 1
        self.win_start = start

    def window(self, window_s: int) -> tuple[int, int, int, int] | None:
        """(window end, sample count, scaled pm2.5 sum, scaled pm10 sum) of
        (latest ts - window_s, latest ts], or None without records. Call
        under the lock.

        The 24-hour window is summed in one pass at its first use, and from
        then on _index keeps it up to date in O(1) amortised per newest
        record. Any other width is summed in one pass at each call.
        """
        if not self.records:
            return None
        end = self.ts_index[-1]
        if window_s == WINDOW_24H_S and self.win_start is not None:
            return end, len(self.records) - self.win_start, self.sum25, self.sum10
        start = bisect_right(self.ts_index, end - window_s)
        sum25 = sum10 = 0
        for m in islice(self.records, start, None):
            sum25 += scaled(m.pm25)
            sum10 += scaled(m.pm10)
        if window_s == WINDOW_24H_S:
            self.win_start, self.sum25, self.sum10 = start, sum25, sum10
        return end, len(self.records) - start, sum25, sum10


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
        self.series_dir = self.data_dir / self.SERIES_DIR
        self.series_dir.mkdir(parents=True, exist_ok=True)
        self.alert_log = NdjsonLog(self.data_dir / self.ALERT_LOG_FILE, fsync)
        self._stations: dict[str, _Station] = {}
        self._load_registry(fsync)
        # one directory listing instead of a stat per registered station
        logs = {entry.name for entry in os.scandir(self.series_dir)}
        for station in self._stations.values():
            if station.log.path.name in logs:
                station.recover()

    # -- registry ----------------------------------------------------------

    def _load_registry(self, fsync: bool) -> None:
        path = self.data_dir / self.REGISTRY_FILE
        if not path.exists():
            return
        try:
            records = [StationRecord.from_json_obj(obj) for obj in json.loads(path.read_text())]
        except (TypeError, KeyError, ValueError) as exc:
            raise StorageError(f"corrupt registry {path}: {exc}") from exc
        # _stations stays in station_id order, so listing the registry sorts
        # nothing; stable, so of two entries with one id the later still wins
        for record in sorted(records, key=_station_id):
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
        """The registry, in station_id order (as are station_ids and record_counts)."""
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
            station.log.append(m.to_json_obj())
            offset = len(station.records)
            station._index(m)
            return offset

    def query_range(self, station_id: str, t0: float, t1: float) -> list[Measurement]:
        """All records with ts in [t0, t1], ascending by ts."""
        if t0 > t1:
            raise ValueError(f"empty range: t0={t0} > t1={t1}")
        station = self._station(station_id)
        with station.lock:
            lo = bisect_left(station.ts_index, t0)
            hi = bisect_right(station.ts_index, t1)
            return station.records[lo:hi]

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
            return station.records[-1] if station.records else None

    def count(self, station_id: str) -> int:
        return len(self._station(station_id).records)

    def record_counts(self) -> list[int]:
        """Each station's record count, in station_id order.

        Read without the locks: a station's records only grow, one append
        at a time, so each count is exact at some moment during the call.
        """
        return [len(station.records) for station in self._stations.values()]

    def last_seq(self, station_id: str) -> int | None:
        return self._station(station_id).last_seq

    def close(self) -> None:
        """Nothing to release: a log holds no file between appends. Kept for
        callers written when the store held files (perfbench/ calls it)."""
