"""Seeded inputs: fleet frames from ``sim.run_fleet`` plus an injected reject mix.

Every frame comes from the package's simulator with the benchmark's seed,
so the same seed gives byte-identical inputs. Rejects are injected at fixed
shares around real frames, and each operation carries the status the
service must answer.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path

from iccamon import sim
from iccamon.service import MonitorService
from iccamon.store import StationRecord, TimeSeriesStore
from iccamon.telemetry import TelemetryFrame, serialize

# Expected answers of POST /v1/telemetry, as listed in the README.
ACCEPTED, BAD_TOKEN, UNKNOWN_STATION, DUPLICATE = 202, 401, 404, 409
REJECT_KINDS = {"bad_token": BAD_TOKEN, "unknown_station": UNKNOWN_STATION, "duplicate_seq": DUPLICATE}


@dataclass(frozen=True)
class Op:
    """One submission: the wire text, the status expected, and what it is."""

    text: str
    expect: int
    kind: str  # "frame" or one of REJECT_KINDS
    frame: TelemetryFrame


class _Collect:
    """A transport that keeps every frame and never fails."""

    def __init__(self):
        self.frames: list[TelemetryFrame] = []

    def send(self, frame: TelemetryFrame, now: int) -> bool:
        self.frames.append(frame)
        return True


def load_fleet(path: str | Path, report_period_s: int | None = None):
    """Fleet members and start time; optionally override every cadence."""
    members, start_ts = sim.load_fleet_config(path)
    if report_period_s is not None:
        members = [
            sim.FleetMember(dataclasses.replace(m.station, report_period_s=report_period_s), m.scenario)
            for m in members
        ]
    return members, start_ts


def fleet_frames(members, start_ts: int, horizon_s: int, seed: int) -> list[TelemetryFrame]:
    """Every frame the fleet emits over the horizon, in delivery order."""
    sink = _Collect()
    sim.run_fleet(members, horizon_s, sink, seed=seed, start_ts=start_ts)
    return sink.frames


def inject_rejects(frames, shares: dict[str, float], seed: int) -> list[Op]:
    """Interleave rejects at fixed shares of len(frames), at seeded positions.

    At a chosen slot i: a bad-token copy of frame i goes before it (the token
    check precedes the sequence check, so it answers 401 and frame i is
    still accepted), an unknown-station frame goes before it (404), and a
    retry of frame i goes right after it (409, the firmware resend whose
    ack was lost).
    """
    rng = random.Random(f"rejects:{seed}")
    n = len(frames)
    slots = {}
    for kind in sorted(shares):
        if kind not in REJECT_KINDS:
            raise ValueError(f"unknown reject kind {kind!r}")
        count = round(n * shares[kind])
        slots[kind] = set(rng.sample(range(n), count))
    ops: list[Op] = []
    for i, frame in enumerate(frames):
        if i in slots.get("bad_token", ()):
            wrong = dataclasses.replace(frame, token=f"x{rng.getrandbits(60):015x}")
            ops.append(Op(serialize(wrong), BAD_TOKEN, "bad_token", wrong))
        if i in slots.get("unknown_station", ()):
            ghost = dataclasses.replace(frame, station_id=f"ghost-{i:06d}-{rng.getrandbits(24):06x}")
            ops.append(Op(serialize(ghost), UNKNOWN_STATION, "unknown_station", ghost))
        text = serialize(frame)
        ops.append(Op(text, ACCEPTED, "frame", frame))
        if i in slots.get("duplicate_seq", ()):
            ops.append(Op(text, DUPLICATE, "duplicate_seq", frame))
    return ops


def injected_counts(ops) -> dict[str, int]:
    counts = {kind: 0 for kind in REJECT_KINDS}
    for op in ops:
        if op.kind in counts:
            counts[op.kind] += 1
    return counts


def filler_stations(count: int, start_ts: int, seed: int) -> list[StationRecord]:
    """Registered stations that never report: they only grow the registry."""
    rng = random.Random(f"fillers:{seed}")
    return [
        StationRecord(
            station_id=f"fill-{i:05d}",
            display_name=f"Filler {i}",
            lat=round(rng.uniform(13.0, 14.5), 4),
            lon=round(rng.uniform(-90.0, -87.5), 4),
            token=f"{rng.getrandbits(64):016x}",
            report_period_s=1200,
            created_at=start_ts,
        )
        for i in range(count)
    ]


def build_template(data_dir: Path, stations, seed_frames) -> None:
    """A data directory holding the registry and the seeded history.

    The registry is written in the store's on-disk format in one go (upserting
    thousands of stations one by one rewrites the file each time); seeded
    frames go through ``MonitorService.ingest`` without fsync or rules.
    """
    data_dir.mkdir(parents=True)
    registry = [s.to_json_obj() for s in stations]
    (data_dir / TimeSeriesStore.REGISTRY_FILE).write_text(json.dumps(registry, ensure_ascii=False))
    store = TimeSeriesStore(data_dir, fsync=False)
    try:
        svc = MonitorService(store)
        for frame in seed_frames:
            status, body = svc.ingest(serialize(frame))
            if status != ACCEPTED:
                raise RuntimeError(f"seeding {frame.station_id} seq {frame.seq}: {status} {body}")
    finally:
        store.close()
