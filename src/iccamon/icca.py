"""Central American Air Quality Index (ICCA) computation.

Pure functions mapping particulate concentrations (µg/m³) to the 0-500
index scale, its six health categories, rolling 24-hour window averages,
and simple summary statistics. The scale is the published one, fixed as
module constants: the categories with their names, index ranges and
colors, and the two concentration ladders. No I/O, no hidden state; safe
to call from any thread.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from decimal import ROUND_DOWN, Decimal
from enum import Enum
from typing import Iterable, Sequence


class Pollutant(Enum):
    PM25 = "pm25"
    PM10 = "pm10"


@dataclass(frozen=True)
class Category:
    ordinal: int
    name: str
    index_lo: int
    index_hi: int
    color: str


# The published scale: six categories with their index ranges, names and
# display colors.
CATEGORIES = (
    Category(0, "Buena", 0, 50, "green"),
    Category(1, "Moderada", 51, 100, "yellow"),
    Category(2, "Dañina a la Salud de los Grupos Sensibles", 101, 150, "orange"),
    Category(3, "Dañina a la Salud", 151, 200, "red"),
    Category(4, "Muy dañina a la Salud", 201, 300, "purple"),
    Category(5, "Peligroso", 301, 500, "maroon"),
)

# Concentration ladders as printed, one row per category, in integer tenths
# of µg/m³ (153 is 15.3). Rows ascend; the printed table has gaps between
# some rows (e.g. PM2.5 15.3 → 15.5) and PM10 rows 4 and 5 share the 424
# bound, which the first-match scan gives to row 4. Both quirks are kept
# verbatim.
LADDERS = {
    Pollutant.PM25: ((0, 153), (155, 402), (405, 654), (660, 1590), (1600, 2500), (2510, 5000)),
    Pollutant.PM10: ((0, 540), (560, 1540), (1550, 2540), (2550, 3540), (3550, 4240), (4240, 6040)),
}


@dataclass(frozen=True)
class IccaResult:
    value: int
    category: Category
    dominant: Pollutant | None
    beyond_scale: bool = False


@dataclass(frozen=True)
class WindowAverage:
    mean: float | None
    sample_count: int
    expected_count: int
    coverage: float
    sufficient: bool


class InsufficientDataError(ValueError):
    """No pollutant window met the coverage requirement."""


DEFAULT_COVERAGE_MIN = 0.75
WINDOW_24H_S = 24 * 3600
DEFAULT_REPORT_PERIOD_S = 20 * 60


def _truncate_tenths(concentration: float) -> int:
    # One-decimal truncation defined on the decimal rendering of the value,
    # so 15.3 stays 153 tenths instead of drifting to 152 via binary floats.
    return int(Decimal(str(concentration)).scaleb(1).to_integral_value(rounding=ROUND_DOWN))


def sub_index(pollutant: Pollutant, concentration: float) -> IccaResult:
    """Index value for a single pollutant concentration in µg/m³.

    The concentration is truncated to one decimal and the ladder scanned
    upwards to the first row whose top is not below it. Inside that row it
    is linearly interpolated onto the row's index range, rounding half up
    to an integer; below the row it lies in a printed gap and takes the
    row's lower index bound. A value above the top of the ladder reports
    500 with beyond_scale set.
    """
    if isinstance(concentration, bool) or not isinstance(concentration, (int, float)):
        raise ValueError(f"concentration must be a number, got {concentration!r}")
    if not math.isfinite(concentration) or concentration < 0:
        raise ValueError(f"concentration must be finite and >= 0, got {concentration!r}")

    tenths = _truncate_tenths(concentration)
    for (lo, hi), cat in zip(LADDERS[pollutant], CATEGORIES):
        if tenths <= hi:
            if tenths < lo:
                # inside a printed gap: the next range up, at its lower
                # bound (the health-protective choice)
                return IccaResult(cat.index_lo, cat, pollutant)
            # exact integer arithmetic; (2n + d) // 2d rounds n/d half up
            num = (cat.index_hi - cat.index_lo) * (tenths - lo)
            den = hi - lo
            return IccaResult(cat.index_lo + (2 * num + den) // (2 * den), cat, pollutant)
    return IccaResult(500, CATEGORIES[-1], pollutant, beyond_scale=True)


def overall_icca(pm25_avg: WindowAverage | None, pm10_avg: WindowAverage | None) -> IccaResult:
    """Station index: the maximum of the available sub-indices.

    Only sufficient window averages participate; ties go to PM2.5.
    Raises InsufficientDataError when neither pollutant qualifies.
    """
    candidates: list[tuple[Pollutant, IccaResult]] = []
    for pollutant, avg in ((Pollutant.PM25, pm25_avg), (Pollutant.PM10, pm10_avg)):
        if avg is not None and avg.sufficient and avg.mean is not None:
            candidates.append((pollutant, sub_index(pollutant, avg.mean)))
    if not candidates:
        raise InsufficientDataError("no pollutant window met the coverage requirement")

    dominant, best = candidates[0]
    for pollutant, result in candidates[1:]:
        if result.value > best.value:
            dominant, best = pollutant, result
    beyond = any(r.beyond_scale for _, r in candidates)
    return IccaResult(best.value, best.category, dominant, beyond_scale=beyond)


def rolling_average(
    series: Iterable[tuple[float, float]],
    window_end: float,
    window_s: float = WINDOW_24H_S,
    report_period_s: float = DEFAULT_REPORT_PERIOD_S,
    coverage_min: float = DEFAULT_COVERAGE_MIN,
) -> WindowAverage:
    """Mean over samples with timestamp in (window_end - window_s, window_end].

    Coverage is measured against the station's report cadence; the average
    is only flagged sufficient when coverage reaches coverage_min.
    """
    if window_s <= 0 or report_period_s <= 0:
        raise ValueError("window_s and report_period_s must be positive")

    lo = window_end - window_s
    values = [v for ts, v in series if lo < ts <= window_end]
    expected = int(window_s // report_period_s)
    count = len(values)
    if expected > 0:
        coverage = count / expected
    else:
        coverage = 1.0 if count else 0.0
    mean = sum(values) / count if count else None
    return WindowAverage(
        mean=mean,
        sample_count=count,
        expected_count=expected,
        coverage=coverage,
        sufficient=coverage >= coverage_min,
    )


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    median: float
    max: float
    min: float


def summary_stats(series: Sequence[float]) -> SummaryStats:
    """Mean, median, max, and min of a non-empty value series."""
    if not series:
        raise ValueError("series must be non-empty")
    return SummaryStats(
        mean=sum(series) / len(series),
        median=statistics.median(series),
        max=max(series),
        min=min(series),
    )
