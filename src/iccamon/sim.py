"""Deterministic virtual sensor stations.

Each node executes the firmware loop — read sensors, store locally, show
on the display, format the frame, send, wait — against a simulated clock,
so a 24-hour deployment replays in well under a second and every byte it
emits is a pure function of (scenario set, seed, horizon).

The generated signal follows the observed field behaviour: particulate
levels rise in the morning and evening traffic peaks, fall at night, and
drop to their lowest right after a rain, recovering gradually. Sensor
noise is a uniform ±fraction per channel, and readings pass through the
binary sensor codec so the values on the wire are exactly the quantized
values a hardware node would report. A fleet file is read with the store's
load_config and check_keys, coercing nothing; each station must make a
valid StationRecord, so a node emits only frames the wire takes.
"""

from __future__ import annotations

import functools
import logging
import math
import random
from collections import deque
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, get_type_hints
from urllib.parse import urlsplit

from .sensor import PmFrame, decode_pm_frame, decode_temp, encode_pm_frame, encode_temp
from .store import StationRecord, check_keys, load_config
from .telemetry import TelemetryFrame, serialize

logger = logging.getLogger(__name__)

DAY_S = 24 * 3600


@dataclass(frozen=True)
class RainEvent:
    start_ts: int
    duration_s: int
    attenuation: float

    def __post_init__(self):
        if not 0.0 < self.attenuation <= 1.0:
            raise ValueError(f"attenuation must be in (0, 1], got {self.attenuation}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")


@dataclass(frozen=True)
class Scenario:
    label: str
    base_pm25: float
    base_pm10: float
    traffic_amplitude: float = 0.0
    peak_morning_h: float = 8.0
    peak_evening_h: float = 18.0
    peak_width_h: float = 2.0
    rain: tuple[RainEvent, ...] = ()
    rain_recovery_s: int = 7200
    temp_base_c: float = 24.0
    temp_amplitude_c: float = 6.0
    noise: float = 0.10

    def __post_init__(self):
        if not 0.0 <= self.noise <= 0.5:
            raise ValueError(f"noise must be in [0, 0.5], got {self.noise}")
        if self.base_pm25 < 0 or self.base_pm10 < 0 or self.traffic_amplitude < 0:
            raise ValueError("PM baselines and amplitude must be >= 0")
        if self.peak_width_h <= 0:
            raise ValueError("peak_width_h must be positive")


def _hour_of_day(ts: float) -> float:
    return (ts % DAY_S) / 3600.0


def _circular_hours(a: float, b: float) -> float:
    d = abs(a - b) % 24.0
    return min(d, 24.0 - d)


def _bump(hour: float, center: float, width: float) -> float:
    d = _circular_hours(hour, center)
    return math.exp(-0.5 * (d / width) ** 2)


@functools.cache
def _peak_norm(morning: float, evening: float, width: float) -> float:
    """The double-peak profile's maximum over the minutes of a day."""
    return max(_bump(minute / 60.0, morning, width) + _bump(minute / 60.0, evening, width)
               for minute in range(24 * 60))


def _diurnal(scenario: Scenario, ts: float) -> float:
    """Double-peak traffic profile, normalized to unit maximum."""
    morning, evening, width = (scenario.peak_morning_h, scenario.peak_evening_h,
                               scenario.peak_width_h)
    hour = _hour_of_day(ts)
    return ((_bump(hour, morning, width) + _bump(hour, evening, width))
            / _peak_norm(morning, evening, width))


def _rain_factor(scenario: Scenario, ts: float) -> float:
    """Multiplicative washout: the full attenuation during an event, then a
    linear recovery back to 1 over rain_recovery_s."""
    factor = 1.0
    for ev in scenario.rain:
        end = ev.start_ts + ev.duration_s
        if ev.start_ts <= ts < end:
            factor *= ev.attenuation
        elif end <= ts < end + scenario.rain_recovery_s:
            progress = (ts - end) / scenario.rain_recovery_s
            factor *= ev.attenuation + (1.0 - ev.attenuation) * progress
    return factor


def true_signal(scenario: Scenario, ts: float) -> tuple[float, float, float]:
    """Noise-free (pm25, pm10, temp_c) at a simulation timestamp."""
    d = _diurnal(scenario, ts) if scenario.traffic_amplitude else 0.0
    r = _rain_factor(scenario, ts)
    pm25 = max(scenario.base_pm25 + scenario.traffic_amplitude * d, 0.0) * r
    pm10 = max(scenario.base_pm10 + scenario.traffic_amplitude * d, 0.0) * r
    hour = _hour_of_day(ts)
    temp = scenario.temp_base_c + scenario.temp_amplitude_c * math.sin(
        2.0 * math.pi * (hour - 9.0) / 24.0
    )
    return pm25, pm10, temp


def sample(scenario: Scenario, ts: float, rng: random.Random) -> tuple[float, float, float]:
    """One noisy reading: each channel scaled by (1 + u), u ~ U[-noise, +noise]."""
    pm25, pm10, temp = true_signal(scenario, ts)
    n = scenario.noise

    def jitter(v: float) -> float:
        return max(v * (1.0 + rng.uniform(-n, n)), 0.0)

    return jitter(pm25), jitter(pm10), jitter(temp)


class Reading(NamedTuple):
    ts: int
    pm25: int
    pm10: int
    temp_c: float


@dataclass
class NodeCounters:
    generated: int = 0
    delivered: int = 0
    failed_attempts: int = 0
    dropped: int = 0


SEND_TIMEOUT_S = 5.0  # HttpTransport's per-connection socket timeout
LOCAL_LOG_LEN = 72  # one day of readings at the default 20-minute period
# a frame the platform took: 409 means it already holds this seq (a retried
# send whose ack was lost), so the frame is safe to drop from the buffer
DELIVERED = (202, 409)


class Node:
    """One virtual station running the firmware loop on the sim clock.

    Configuration happens once, at construction. Each ``run_cycle`` is one
    pass of the loop in its fixed order: read, store locally, display,
    format, send, wait. The local log keeps the newest LOCAL_LOG_LEN
    readings, like a node's bounded flash.
    """

    def __init__(
        self,
        station: StationRecord,
        scenario: Scenario,
        seed: int,
        start_ts: int,
        buffer_cap: int | None = None,
    ):
        self.station = station
        self.scenario = scenario
        self.rng = random.Random(f"{seed}:{station.station_id}")
        self.clock = start_ts
        self.buffer: deque[TelemetryFrame] = deque()
        self.buffer_cap = buffer_cap
        self.seq = 0
        self.local_log: deque[Reading] = deque(maxlen=LOCAL_LOG_LEN)
        self.counters = NodeCounters()

    def run_cycle(self, transport) -> str:
        """Run one whole firmware cycle; returns the display line."""
        reading = self._read_sensors()
        self.local_log.append(reading)

        line = (
            f"[{self.station.station_id}] ts={reading.ts} "
            f"PM2.5={reading.pm25} ug/m3 PM10={reading.pm10} ug/m3 T={reading.temp_c:.4f} C"
        )
        logger.debug("%s", line)

        self.seq += 1
        self.buffer.append(
            TelemetryFrame(
                station_id=self.station.station_id,
                token=self.station.token,
                seq=self.seq,
                ts=reading.ts,
                pm25=float(reading.pm25),
                pm10=float(reading.pm10),
                temp_c=reading.temp_c,
            )
        )
        self.counters.generated += 1
        if self.buffer_cap is not None and len(self.buffer) > self.buffer_cap:
            self.buffer.popleft()
            self.counters.dropped += 1

        # drain the buffer head-first; on failure frames stay queued for
        # catch-up on a later cycle
        while self.buffer:
            if not transport.send(self.buffer[0], now=self.clock):
                self.counters.failed_attempts += 1
                break
            self.buffer.popleft()
            self.counters.delivered += 1

        self.clock += self.station.report_period_s
        return line

    def _read_sensors(self) -> Reading:
        ts = self.clock
        raw25, raw10, rawt = sample(self.scenario, ts, self.rng)
        # quantize at the sensor boundary, then cross the binary codec so
        # the wire emulation is exercised on every read; the standard and
        # atmospheric halves carry the same pm1.0, pm2.5, pm10 words
        pm = (_u16(raw25 * 0.6), _u16(raw25), _u16(raw10))
        decoded = decode_pm_frame(encode_pm_frame(PmFrame(*pm, *pm)))
        return Reading(ts, decoded.pm2_5_std, decoded.pm10_std, decode_temp(encode_temp(rawt)))

    def check_conservation(self) -> None:
        c = self.counters
        if c.generated != c.delivered + len(self.buffer) + c.dropped:
            raise AssertionError(
                f"{self.station.station_id}: generated {c.generated} != delivered "
                f"{c.delivered} + buffered {len(self.buffer)} + dropped {c.dropped}"
            )


def _u16(v: float) -> int:
    return max(0, min(0xFFFF, round(v)))


# -- transports --------------------------------------------------------------


class OfflineFileTransport:
    """Writes frames to an NDJSON file for later replay; never fails."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")

    def send(self, frame: TelemetryFrame, now: int) -> bool:
        self._fh.write(serialize(frame) + "\n")
        return True

    def close(self) -> None:
        self._fh.close()


class HttpTransport:
    """Delivers frames to a running ingestion server over one keep-alive
    connection. The simulator sends frame after frame on its simulated
    clock, with no wait between them, so one connection carries a whole
    run. A failed send closes it. If it had carried an earlier frame (the
    server may have closed it since), the send is tried once more on a new
    connection; a resend of a frame the server took is a 409."""

    def __init__(self, base_url: str):
        self.url = urlsplit(base_url.rstrip("/") + "/v1/telemetry")
        self._conn: HTTPConnection | None = None

    def send(self, frame: TelemetryFrame, now: int) -> bool:
        body = serialize(frame).encode()
        reused = self._conn is not None and self._conn.sock is not None
        try:
            if self._conn is None:  # KeyError: a URL without an http(s) scheme
                connection = {"http": HTTPConnection, "https": HTTPSConnection}[self.url.scheme]
                self._conn = connection(self.url.netloc, timeout=SEND_TIMEOUT_S)
            self._conn.request("POST", self.url.path, body, {"Content-Type": "application/json"})
            resp = self._conn.getresponse()
            resp.read()  # the whole reply, so the connection can carry the next request
        # OSError: no connection, a timeout, a reset; HTTPException: a reply that is not HTTP
        except (KeyError, OSError, HTTPException):
            self.close()  # the connection reopens on its next request
            return reused and self.send(frame, now)
        return resp.status in DELIVERED

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()


class CallableTransport:
    """In-process delivery through any (text) -> status_code callable."""

    def __init__(self, ingest: Callable[[str], int]):
        self._ingest = ingest

    def send(self, frame: TelemetryFrame, now: int) -> bool:
        return self._ingest(serialize(frame)) in DELIVERED

    def close(self) -> None:
        pass


class BlackoutTransport:
    """Wraps a transport, failing every send inside the outage windows."""

    def __init__(self, inner, outages: list[tuple[int, int]]):
        self.inner = inner
        self.outages = list(outages)

    def send(self, frame: TelemetryFrame, now: int) -> bool:
        for t0, t1 in self.outages:
            if t0 <= now < t1:
                return False
        return self.inner.send(frame, now)

    def close(self) -> None:
        self.inner.close()


# -- fleet runs ---------------------------------------------------------------


@dataclass
class FleetReport:
    seed: int
    start_ts: int
    horizon_s: int
    nodes: list[Node] = field(default_factory=list)

    @property
    def total_delivered(self) -> int:
        return sum(n.counters.delivered for n in self.nodes)

    def to_json_obj(self) -> dict:
        rows = [
            {
                "station_id": n.station.station_id,
                "generated": n.counters.generated,
                "delivered": n.counters.delivered,
                "buffered": len(n.buffer),
                "failed_attempts": n.counters.failed_attempts,
                "dropped": n.counters.dropped,
            }
            for n in self.nodes
        ]
        return {
            "seed": self.seed,
            "start_ts": self.start_ts,
            "horizon_s": self.horizon_s,
            "totals": {key: sum(row[key] for row in rows)
                       for key in ("generated", "delivered", "buffered", "failed_attempts", "dropped")},
            "nodes": rows,
        }


@dataclass(frozen=True)
class FleetMember:
    station: StationRecord
    scenario: Scenario


def run_fleet(
    members: list[FleetMember],
    horizon_s: int,
    transport,
    seed: int,
    start_ts: int,
) -> FleetReport:
    """Interleave all nodes on the simulated clock until the horizon.

    Nodes run whole firmware cycles in earliest-clock order (ties broken by
    station id), so runs are reproducible for a given (members, seed,
    horizon) regardless of wall-clock timing.
    """
    if not members:
        raise ValueError("need at least one fleet member")
    nodes = [Node(m.station, m.scenario, seed=seed, start_ts=start_ts) for m in members]
    end = start_ts + horizon_s
    while True:
        due = [n for n in nodes if n.clock < end]
        if not due:
            break
        node = min(due, key=lambda n: (n.clock, n.station.station_id))
        node.run_cycle(transport)
        node.check_conservation()

    # every node was checked after its last cycle; one that never ran holds nothing
    return FleetReport(seed=seed, start_ts=start_ts, horizon_s=horizon_s, nodes=nodes)


def iter_offline_frames(path: str | Path) -> Iterator[str]:
    """Yield the frame lines of an offline capture file, decoding each on its
    own: a line that is not UTF-8 is a ValueError naming path:lineno."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if line:
                yield line


# -- fleet config files -------------------------------------------------------


def load_fleet_config(path: str | Path) -> tuple[list[FleetMember], int]:
    """Parse a fleet scenario file.

    Returns (members, start_ts). Rain events are given as offsets from the
    run start (start_offset_s) and resolved to absolute timestamps here.
    Every error, bad JSON included, is a ValueError naming the file.
    """
    return load_config(path, "fleet scenario", _build_fleet)


def _build_fleet(obj) -> tuple[list[FleetMember], int]:
    check_keys(obj, "top level", start_ts=int, stations=list)
    start_ts = obj.get("start_ts", 1700000000)
    members = {}
    for entry in obj["stations"]:
        check_keys(entry, "station", station_id=str, display_name=str, lat=float, lon=float,
                   token=str, report_period_s=int, scenario=dict)
        sc = entry.pop("scenario")
        station = StationRecord(**{"display_name": entry["station_id"], **entry,
                                   "created_at": start_ts})
        # a scenario's keys and types are Scenario's fields, with rain a list
        check_keys(sc, "scenario", **{**get_type_hints(Scenario), "rain": list})
        rain = []
        for r in sc.get("rain", ()):
            check_keys(r, "rain event", start_offset_s=int, duration_s=int, attenuation=float)
            rain.append(RainEvent(start_ts + r["start_offset_s"], r["duration_s"],
                                  r["attenuation"]))
        scenario = Scenario(**{**sc, "rain": tuple(rain)})
        if station.station_id in members:  # two nodes would share one RNG and seq space
            raise ValueError(f"station_id {station.station_id!r} appears twice")
        members[station.station_id] = FleetMember(station=station, scenario=scenario)
    if not members:
        raise ValueError("no stations defined")
    return list(members.values()), start_ts
