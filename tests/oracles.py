"""Independent brute-force oracles the tests check the package against.

Deliberately written on different machinery than the package: the index
oracle evaluates the interpolation formula directly on exact rationals
(Decimal truncation + Fraction arithmetic), the stats oracle sorts and
accumulates by hand. Keep these free of iccamon internals.
"""

from __future__ import annotations

from decimal import ROUND_DOWN, Decimal
from fractions import Fraction

# (c_lo, c_hi, index_lo, index_hi), transcribed independently from the
# published scale.
ORACLE_PM25 = (
    ("0", "15.3", 0, 50),
    ("15.5", "40.2", 51, 100),
    ("40.5", "65.4", 101, 150),
    ("66", "159", 151, 200),
    ("160", "250", 201, 300),
    ("251", "500", 301, 500),
)
ORACLE_PM10 = (
    ("0", "54", 0, 50),
    ("56", "154", 51, 100),
    ("155", "254", 101, 150),
    ("255", "354", 151, 200),
    ("355", "424", 201, 300),
    ("424", "604", 301, 500),
)

CATEGORY_NAMES = (
    "Buena",
    "Moderada",
    "Dañina a la Salud de los Grupos Sensibles",
    "Dañina a la Salud",
    "Muy dañina a la Salud",
    "Peligroso",
)


def icca_oracle(ladder, concentration) -> tuple[int, bool]:
    """(index value, beyond_scale) by direct evaluation of the formula."""
    c = Decimal(str(concentration)).quantize(Decimal("0.1"), rounding=ROUND_DOWN)
    for c_lo, c_hi, i_lo, i_hi in ladder:
        lo, hi = Decimal(c_lo), Decimal(c_hi)
        if lo <= c <= hi:
            frac = Fraction(i_hi - i_lo) * (Fraction(c) - Fraction(lo)) / (
                Fraction(hi) - Fraction(lo)
            )
            # round half up on the exact rational
            value = i_lo + (2 * frac.numerator + frac.denominator) // (2 * frac.denominator)
            return value, False
    if c > Decimal(ladder[-1][1]):
        return 500, True
    for c_lo, _, i_lo, _ in ladder:
        if Decimal(c_lo) > c:
            return i_lo, False
    raise AssertionError(f"no oracle row for {concentration}")


def stats_oracle(series):
    """{mean, median, max, min} via hand-rolled sort and accumulation."""
    n = len(series)
    assert n > 0
    total = 0.0
    for v in series:
        total += v
    ordered = sorted(series)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    return {"mean": total / n, "median": median, "max": ordered[-1], "min": ordered[0]}


def exact_mean(values) -> float:
    """The mean of the values computed exactly, then rounded once to a float."""
    return float(sum(map(Fraction, values)) / len(values))


def byte_sum_checksum(data: bytes) -> int:
    total = 0
    for b in data:
        total += b
    return total % 65536


def history_oracle(frames, t0, t1) -> list[dict]:
    """The records a /history read over [t0, t1] serves, from the frames
    one station submitted, in submission order (dicts with the wire keys,
    each valid but maybe for its seq).

    A frame is kept only when its seq is above every kept frame's. The kept
    frames are ordered by ts, equal ts in submission order, and each is
    served as its wire keys minus the token, the three values as floats,
    plus the flag beyond_sensor_range when a PM value is above 500.
    """
    kept = []
    for frame in frames:
        if not kept or frame["seq"] > kept[-1]["seq"]:
            kept.append(frame)
    served = []
    for frame in sorted(kept, key=lambda f: f["ts"]):  # sorted() is stable
        if not t0 <= frame["ts"] <= t1:
            continue
        pm25, pm10 = float(frame["pm25"]), float(frame["pm10"])
        served.append({
            "station_id": frame["station_id"],
            "seq": frame["seq"],
            "ts": frame["ts"],
            "pm25": pm25,
            "pm10": pm10,
            "temp_c": float(frame["temp_c"]),
            "flags": ["beyond_sensor_range"] if pm25 > 500 or pm10 > 500 else [],
        })
    return served
