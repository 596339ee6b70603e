"""Station-to-platform telemetry frame: serialization and validation.

The wire contract is a one-line JSON object with exactly these keys, in
this order:

    {"station_id":"utec-01","token":"s3cret","seq":1,"ts":1700000000,
     "pm25":12.3,"pm10":20.0,"temp_c":28.5}

Unknown keys are rejected outright (they signal firmware/schema drift),
the token must match the station's registered credential, and the sequence
number must exceed the last accepted one so retried sends are cheap to
deduplicate. Validation is a pure function of its inputs; the caller
supplies a lookup of each station's token and last accepted seq.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .store import BEYOND_SENSOR_RANGE, Measurement

FRAME_KEYS = ("station_id", "token", "seq", "ts", "pm25", "pm10", "temp_c")

_STATION_ID_RE = re.compile(r"^[a-z0-9_-]{1,64}$")
_MAX_SEQ = 2**64 - 1


@dataclass(frozen=True)
class TelemetryFrame:
    station_id: str
    token: str
    seq: int
    ts: int
    pm25: float
    pm10: float
    temp_c: float


class RejectReason(Enum):
    BAD_TOKEN = "bad_token"
    UNKNOWN_STATION = "unknown_station"
    DUPLICATE_SEQ = "duplicate_seq"
    STALE_SEQ = "stale_seq"
    OUT_OF_RANGE = "out_of_range"
    MALFORMED = "malformed"


# Acceptance window for measured values. PM is accepted in [0, PM_MAX) so
# the index ladder top stays reachable, but anything above the sensor's
# effective ceiling gets a quality flag.
PM_MAX = 1000.0
PM_FLAG_ABOVE = 500.0
TEMP_MIN_C = 0.0
TEMP_MAX_C = 150.0


@dataclass(frozen=True)
class ValidationOutcome:
    measurement: Measurement | None = None
    reason: RejectReason | None = None

    def __post_init__(self):
        if (self.measurement is None) == (self.reason is None):
            raise ValueError("outcome must carry exactly one of measurement/reason")

    @property
    def accepted(self) -> bool:
        return self.measurement is not None


def _reject(reason: RejectReason) -> ValidationOutcome:
    return ValidationOutcome(reason=reason)


def serialize(frame: TelemetryFrame) -> str:
    """Canonical one-line JSON rendering of a frame.

    Key order is fixed and numbers use the shortest exact rendering, so
    equal frames serialize to identical bytes (12.30 comes out as 12.3).
    """
    obj = {key: getattr(frame, key) for key in FRAME_KEYS}
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def parse_frame(text: str) -> TelemetryFrame:
    """Parse a frame without touching registry or sequence state.

    Raises ValueError on any syntax, key, or type failure.
    """
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("frame must be a JSON object")
    if set(obj) != set(FRAME_KEYS):
        unknown = set(obj) - set(FRAME_KEYS)
        missing = set(FRAME_KEYS) - set(obj)
        raise ValueError(f"bad keys: unknown={sorted(unknown)} missing={sorted(missing)}")

    station_id = obj["station_id"]
    if not isinstance(station_id, str) or not _STATION_ID_RE.match(station_id):
        raise ValueError(f"bad station_id: {station_id!r}")
    token = obj["token"]
    if not isinstance(token, str) or not token:
        raise ValueError("token must be a non-empty string")
    seq = obj["seq"]
    if isinstance(seq, bool) or not isinstance(seq, int) or not 0 <= seq <= _MAX_SEQ:
        raise ValueError(f"seq must be an unsigned 64-bit integer, got {seq!r}")
    ts = obj["ts"]
    if isinstance(ts, bool) or not isinstance(ts, int) or ts < 0:
        raise ValueError(f"ts must be a non-negative integer, got {ts!r}")
    values = {}
    for key in ("pm25", "pm10", "temp_c"):
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{key} must be a finite number, got {v!r}")
        values[key] = float(v)

    return TelemetryFrame(station_id=station_id, token=token, seq=seq, ts=ts, **values)


def parse_and_validate(
    text: str, lookup: Callable[[str], tuple[str, int | None] | None]
) -> ValidationOutcome:
    """Full validation of a submitted frame against one station's state.

    lookup maps a station_id to (token, last accepted seq, None = nothing
    accepted yet), or to None when unregistered. Pure: the caller applies
    any state change after an accepted outcome.
    """
    try:
        frame = parse_frame(text)
    except ValueError:
        return _reject(RejectReason.MALFORMED)

    station = lookup(frame.station_id)
    if station is None:
        return _reject(RejectReason.UNKNOWN_STATION)
    token, last = station
    if frame.token != token:
        return _reject(RejectReason.BAD_TOKEN)

    if last is not None:
        if frame.seq == last:
            return _reject(RejectReason.DUPLICATE_SEQ)
        if frame.seq < last:
            return _reject(RejectReason.STALE_SEQ)

    if not (0.0 <= frame.pm25 < PM_MAX) or not (0.0 <= frame.pm10 < PM_MAX):
        return _reject(RejectReason.OUT_OF_RANGE)
    if not (TEMP_MIN_C <= frame.temp_c <= TEMP_MAX_C):
        return _reject(RejectReason.OUT_OF_RANGE)

    flags = frozenset()
    if frame.pm25 > PM_FLAG_ABOVE or frame.pm10 > PM_FLAG_ABOVE:
        flags = frozenset({BEYOND_SENSOR_RANGE})

    return ValidationOutcome(
        measurement=Measurement(
            station_id=frame.station_id,
            seq=frame.seq,
            ts=frame.ts,
            pm25=frame.pm25,
            pm10=frame.pm10,
            temp_c=frame.temp_c,
            flags=flags,
        )
    )
