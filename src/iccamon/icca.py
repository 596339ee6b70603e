"""Central American Air Quality Index (ICCA) computation.

Pure functions mapping particulate concentrations (µg/m³) to the 0-500
index scale, its six health categories, rolling 24-hour window averages,
and simple summary statistics. No I/O, no hidden state; safe to call from
any thread.
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


# Index ranges and Spanish category names are fixed; only colors vary.
_CATEGORY_SCALE = (
    ("Buena", 0, 50),
    ("Moderada", 51, 100),
    ("Dañina a la Salud de los Grupos Sensibles", 101, 150),
    ("Dañina a la Salud", 151, 200),
    ("Muy dañina a la Salud", 201, 300),
    ("Peligroso", 301, 500),
)

DEFAULT_COLORS = ("green", "yellow", "orange", "red", "purple", "maroon")

# Concentration ladders as printed, one row per category, in µg/m³.
# The table contains gaps between some rows (e.g. PM2.5 15.3 → 15.5) and
# PM10 rows 4 and 5 share the 424 bound; both quirks are kept verbatim.
_LADDERS = {
    Pollutant.PM25: ((0, 15.3), (15.5, 40.2), (40.5, 65.4), (66, 159), (160, 250), (251, 500)),
    Pollutant.PM10: ((0, 54), (56, 154), (155, 254), (255, 354), (355, 424), (424, 604)),
}


@dataclass(frozen=True)
class BreakpointRow:
    c_lo: float
    c_hi: float
    category: Category


class BreakpointTable:
    """The per-pollutant concentration-to-index ladder.

    Validates its own shape on construction; the only degree of freedom is
    the display color assigned to each category.
    """

    def __init__(self, colors: Sequence[str] = DEFAULT_COLORS):
        if len(colors) != len(_CATEGORY_SCALE):
            raise ValueError(f"expected {len(_CATEGORY_SCALE)} colors, got {len(colors)}")
        self.categories: tuple[Category, ...] = tuple(
            Category(i, name, lo, hi, color)
            for i, ((name, lo, hi), color) in enumerate(zip(_CATEGORY_SCALE, colors))
        )
        self.rows: dict[Pollutant, tuple[BreakpointRow, ...]] = {
            pollutant: tuple(
                BreakpointRow(float(lo), float(hi), self.categories[i])
                for i, (lo, hi) in enumerate(ladder)
            )
            for pollutant, ladder in _LADDERS.items()
        }
        self._validate()

    def _validate(self) -> None:
        for pollutant, rows in self.rows.items():
            prev_hi = None
            for row in rows:
                if not row.c_lo < row.c_hi:
                    raise ValueError(f"{pollutant}: bad row ({row.c_lo}, {row.c_hi})")
                if prev_hi is not None and row.c_lo < prev_hi:
                    raise ValueError(f"{pollutant}: overlapping rows at {row.c_lo}")
                prev_hi = row.c_hi

    def category_for_value(self, value: int) -> Category:
        """Map an index value in 0..500 to its health category."""
        if not 0 <= value <= 500:
            raise ValueError(f"index value out of scale: {value}")
        for cat in self.categories:
            if value <= cat.index_hi:
                return cat
        raise AssertionError("unreachable")


DEFAULT_TABLE = BreakpointTable()


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


def sub_index(
    pollutant: Pollutant, concentration: float, table: BreakpointTable = DEFAULT_TABLE
) -> IccaResult:
    """Index value for a single pollutant concentration in µg/m³.

    The concentration is truncated to one decimal, located in the first
    ladder row containing it (ascending scan), and linearly interpolated
    onto that row's index range, rounding half up to an integer. A value
    falling in a printed gap takes the next range's lower index bound; a
    value above the top of the ladder reports 500 with beyond_scale set.
    """
    if isinstance(concentration, bool) or not isinstance(concentration, (int, float)):
        raise ValueError(f"concentration must be a number, got {concentration!r}")
    if not math.isfinite(concentration) or concentration < 0:
        raise ValueError(f"concentration must be finite and >= 0, got {concentration!r}")

    tenths = _truncate_tenths(concentration)
    rows = table.rows[pollutant]
    for row in rows:
        lo, hi = round(row.c_lo * 10), round(row.c_hi * 10)
        if lo <= tenths <= hi:
            cat = row.category
            # exact integer arithmetic; (2n + d) // 2d rounds n/d half up
            num = (cat.index_hi - cat.index_lo) * (tenths - lo)
            den = hi - lo
            value = cat.index_lo + (2 * num + den) // (2 * den)
            return IccaResult(value, cat, pollutant, beyond_scale=False)

    if tenths > round(rows[-1].c_hi * 10):
        return IccaResult(500, rows[-1].category, pollutant, beyond_scale=True)

    # inside a printed gap: assign the next range up, at its lower bound
    # (the health-protective choice)
    for row in rows:
        if round(row.c_lo * 10) > tenths:
            return IccaResult(row.category.index_lo, row.category, pollutant, beyond_scale=False)
    raise AssertionError("unreachable")


def overall_icca(
    pm25_avg: WindowAverage | None,
    pm10_avg: WindowAverage | None,
    table: BreakpointTable = DEFAULT_TABLE,
) -> IccaResult:
    """Station index: the maximum of the available sub-indices.

    Only sufficient window averages participate; ties go to PM2.5.
    Raises InsufficientDataError when neither pollutant qualifies.
    """
    candidates: list[tuple[Pollutant, IccaResult]] = []
    for pollutant, avg in ((Pollutant.PM25, pm25_avg), (Pollutant.PM10, pm10_avg)):
        if avg is not None and avg.sufficient and avg.mean is not None:
            candidates.append((pollutant, sub_index(pollutant, avg.mean, table)))
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
