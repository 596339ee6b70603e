"""Output checks run after each timed round (outside the timing)."""

from __future__ import annotations

import hashlib
from pathlib import Path

from iccamon import icca
from iccamon.store import TimeSeriesStore


def store_digest(data_dir: Path) -> str:
    """SHA-256 over every series file and alerts.ndjson, in name order."""
    h = hashlib.sha256()
    series = sorted((data_dir / TimeSeriesStore.SERIES_DIR).glob("*.ndjson"))
    for path in series + [data_dir / "alerts.ndjson"]:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<absent>")
        h.update(b"\0")
    return h.hexdigest()


def expected_icca(frames, report_period_s: int, window_s: int, coverage_min: float) -> dict:
    """The /icca body fields recomputed with the package's pure icca functions.

    ``frames`` are one station's accepted frames in the order sent (ts order).
    """
    if not frames:
        return {"window_end": None, "sufficient": False, "icca": None}
    end = max(f.ts for f in frames)
    a25 = icca.rolling_average([(f.ts, f.pm25) for f in frames], end, window_s, report_period_s, coverage_min)
    a10 = icca.rolling_average([(f.ts, f.pm10) for f in frames], end, window_s, report_period_s, coverage_min)
    try:
        result = icca.overall_icca(a25, a10)
    except icca.InsufficientDataError:
        result = None
    return {
        "window_end": end,
        "sufficient": result is not None,
        "pm25_mean": a25.mean,
        "pm10_mean": a10.mean,
        "sample_count": a25.sample_count,
        "icca": None if result is None else {
            "value": result.value,
            "category": result.category.name,
            "dominant": result.dominant.value if result.dominant else None,
        },
    }


def observed_icca(body: dict) -> dict:
    """The same fields picked out of an /icca response body."""
    out = {"window_end": body["window_end"], "sufficient": body["sufficient"], "icca": None}
    if body["window_end"] is None:
        return out
    out["pm25_mean"] = body["pm25"]["mean"]
    out["pm10_mean"] = body["pm10"]["mean"]
    out["sample_count"] = body["pm25"]["sample_count"]
    if body["icca"] is not None:
        out["icca"] = {k: body["icca"][k] for k in ("value", "category", "dominant")}
    return out


def check_stations(store: TimeSeriesStore, accepted: dict, icca_bodies: dict, window_s: int,
                   coverage_min: float) -> list[str]:
    """Per station: stored count, latest record and /icca against what was sent.

    ``accepted`` maps station id to its accepted frames in send order (seeded
    history included); ``icca_bodies`` maps station id to its final /icca body.
    """
    problems = []
    for sid, frames in sorted(accepted.items()):
        if store.count(sid) != len(frames):
            problems.append(f"{sid}: stored {store.count(sid)} records, accepted {len(frames)}")
        latest = store.latest(sid)
        want = max(frames, key=lambda f: f.ts) if frames else None
        got = None if latest is None else (latest.seq, latest.ts, latest.pm25, latest.pm10, latest.temp_c)
        if want is not None and got != (want.seq, want.ts, want.pm25, want.pm10, want.temp_c):
            problems.append(f"{sid}: latest {got} != last accepted frame seq {want.seq}")
        period = store.get_station(sid).report_period_s
        expect = expected_icca(frames, period, window_s, coverage_min)
        seen = observed_icca(icca_bodies[sid])
        if seen != expect:
            problems.append(f"{sid}: /icca {seen} != recomputed {expect}")
    return problems
