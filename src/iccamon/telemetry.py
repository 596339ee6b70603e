"""Station-to-platform telemetry frame: serialization and validation.

The wire contract is a one-line JSON object with exactly these keys, in
this order:

    {"station_id":"utec-01","token":"s3cret","seq":1,"ts":1700000000,
     "pm25":12.3,"pm10":20.0,"temp_c":28.5}

Unknown keys are rejected outright (they signal firmware/schema drift).
store.check_keys types the keys, as it types every config entry, so the
three readings are finite numbers, and store.readings_in_range, the judge
of a stored record's readings too, says whether they are in the wire's
ranges. A body that is not such an object, or
that raises any of store.BAD_JSON in the parse (nesting too deep, say),
is malformed, never an error of the server. The token must match the
station's registered credential (compared in constant time), and the
sequence number must exceed the last accepted one so retried sends are
cheap to deduplicate. Validation is a pure function
of its inputs; the caller supplies a lookup of each station's token and
last accepted seq.
"""

from __future__ import annotations

import hmac
import json
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable

from .store import (_MAX_SEQ, BAD_JSON, MAX_TS, STATION_ID_RE, Measurement, _encode_json,
                    check_keys, readings_in_range)

FRAME_KEYS = ("station_id", "token", "seq", "ts", "pm25", "pm10", "temp_c")

# a frame's values in FRAME_KEYS order; KeyError names a missing key
_frame_values = itemgetter(*FRAME_KEYS)


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
    return _encode_json(vars(frame))  # fields in declaration order: FRAME_KEYS


def parse_frame(text: str) -> TelemetryFrame:
    """Parse a frame without touching registry or sequence state.

    Raises ValueError on any syntax, key, or type failure.
    """
    return TelemetryFrame(*_parse_fields(text))


def _parse_fields(text: str) -> tuple[str, str, int, int, float, float, float]:
    """A frame's values in FRAME_KEYS order; ValueError as parse_frame.
    Past check_keys, only the wire's own rules for the values are left."""
    try:
        obj = json.loads(text)
        check_keys(obj, "frame", station_id=str, token=str, seq=int, ts=int, pm25=float,
                   pm10=float, temp_c=float)
        station_id, token, seq, ts, pm25, pm10, temp_c = _frame_values(obj)
    except BAD_JSON as exc:
        raise ValueError(f"malformed frame: {exc!r}") from exc
    if not STATION_ID_RE.fullmatch(station_id):
        raise ValueError(f"bad station_id: {station_id!r}")
    if not token:
        raise ValueError("token must not be empty")
    if not 0 <= seq <= _MAX_SEQ:
        raise ValueError(f"seq must be an unsigned 64-bit integer, got {seq}")
    if not 0 <= ts <= MAX_TS:
        raise ValueError(f"ts must be in 0..{MAX_TS}, got {ts}")
    return station_id, token, seq, ts, float(pm25), float(pm10), float(temp_c)


def parse_and_validate(
    text: str, lookup: Callable[[str], tuple[str, int | None] | None]
) -> ValidationOutcome:
    """Full validation of a submitted frame against one station's state.

    lookup maps a station_id to (token, last accepted seq, None = nothing
    accepted yet), or to None when unregistered. Pure: the caller applies
    any state change after an accepted outcome.
    """
    try:
        station_id, token, seq, ts, pm25, pm10, temp_c = _parse_fields(text)
    except ValueError:
        return _reject(RejectReason.MALFORMED)

    station = lookup(station_id)
    if station is None:
        return _reject(RejectReason.UNKNOWN_STATION)
    registered_token, last = station
    # in constant time; surrogatepass, as JSON can carry a lone surrogate
    if not hmac.compare_digest(token.encode("utf-8", "surrogatepass"),
                               registered_token.encode("utf-8", "surrogatepass")):
        return _reject(RejectReason.BAD_TOKEN)

    if last is not None:
        if seq == last:
            return _reject(RejectReason.DUPLICATE_SEQ)
        if seq < last:
            return _reject(RejectReason.STALE_SEQ)

    if not readings_in_range(pm25, pm10, temp_c):
        return _reject(RejectReason.OUT_OF_RANGE)
    return ValidationOutcome(Measurement(station_id, seq, ts, pm25, pm10, temp_c))
