"""Central American Air Quality Index (ICCA) computation.

Pure functions mapping particulate concentrations (µg/m³) to the 0-500
index scale, its six health categories, rolling 24-hour window averages
and simple summary statistics. A window's mean is exact and correctly
rounded: it is taken from an integer sum of scaled samples, which a caller
can also keep as a running sum. The scale is the published one, fixed as
module constants: the categories with their names, index ranges and
colors, and the two concentration ladders. No I/O; safe to call from any
thread. The one state kept is a functools cache of sub_index results by
pollutant and truncated tenths, in which every value beyond a ladder's top
shares one entry, so it holds at most 5,002 + 6,042 results: the same
inputs give the same (immutable) result, so it never changes an answer.
A WindowAverage is a NamedTuple, the cheapest immutable record to build:
a frame that moves its station's window builds two.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from decimal import ROUND_DOWN, Decimal
from enum import Enum
from typing import Iterable, NamedTuple, Sequence


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


class WindowAverage(NamedTuple):
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
    # A positional rendering ("15.35", "7") is cut after its first decimal
    # digit; an exponent form ("1e-05", "1e+16") goes through Decimal.
    text = repr(concentration)
    if "e" in text:
        return int(Decimal(text).scaleb(1).to_integral_value(rounding=ROUND_DOWN))
    whole, _, frac = text.partition(".")
    return int(whole + (frac[:1] or "0"))


def sub_index(pollutant: Pollutant, concentration: float) -> IccaResult:
    """Index value for a single pollutant concentration in µg/m³.

    The concentration is truncated to one decimal and the ladder scanned
    upwards to the first row whose top is not below it. Inside that row it
    is linearly interpolated onto the row's index range, rounding half up
    to an integer; below the row it lies in a printed gap and takes the
    row's lower index bound. A value above the top of the ladder reports
    500 with beyond_scale set. Results are cached per pollutant and tenths
    (a value beyond the scale counts as one past the top), so a repeated
    input returns the same IccaResult object.
    """
    if isinstance(concentration, bool) or not isinstance(concentration, (int, float)):
        raise ValueError(f"concentration must be a number, got {concentration!r}")
    if not math.isfinite(concentration) or concentration < 0:
        raise ValueError(f"concentration must be finite and >= 0, got {concentration!r}")

    tenths = _truncate_tenths(concentration)
    beyond = _BEYOND_TENTHS[pollutant]
    if tenths > beyond:  # one cache entry for every value beyond the scale
        tenths = beyond
    return _ladder_index(pollutant, tenths)


# one past each ladder's top: the first tenths beyond the scale
_BEYOND_TENTHS = {pollutant: ladder[-1][1] + 1 for pollutant, ladder in LADDERS.items()}


@functools.cache
def _ladder_index(pollutant: Pollutant, tenths: int) -> IccaResult:
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

    Only sufficient window averages participate; ties go to PM2.5. The
    result is beyond the scale when either pollutant is. Raises
    InsufficientDataError when neither pollutant qualifies.
    """
    r25 = (sub_index(Pollutant.PM25, pm25_avg.mean) if pm25_avg is not None
           and pm25_avg.sufficient and pm25_avg.mean is not None else None)
    r10 = (sub_index(Pollutant.PM10, pm10_avg.mean) if pm10_avg is not None
           and pm10_avg.sufficient and pm10_avg.mean is not None else None)
    if r25 is None or r10 is None:
        best = r10 if r25 is None else r25
        if best is None:
            raise InsufficientDataError("no pollutant window met the coverage requirement")
        return best  # sub_index already names its pollutant as dominant
    best = r10 if r10.value > r25.value else r25
    if best.beyond_scale or not (r25.beyond_scale or r10.beyond_scale):
        return best
    # PM2.5 at the top of its ladder wins the tie with a PM10 beyond the scale
    return IccaResult(best.value, best.category, best.dominant, beyond_scale=True)


# A float is an integer multiple of 2**-1074 (the smallest subnormal), so a
# value scaled by 2**1074 is an exact Python int. Sums of scaled values
# never drift, however many samples are added and taken away again.
SCALE_BITS = 1074


def scaled(value: float) -> int:
    """value * 2**SCALE_BITS as an exact int; value must be finite."""
    n, d = value.as_integer_ratio()  # d is a power of two
    return n << (SCALE_BITS + 1 - d.bit_length())


def window_average(
    count: int,
    scaled_sum: int,
    window_s: float,
    report_period_s: float,
    coverage_min: float,
) -> WindowAverage:
    """The WindowAverage of count samples whose scaled values sum to scaled_sum.

    The mean is the exact mean correctly rounded to a float: int true
    division rounds once, after the exact quotient.
    """
    if window_s <= 0 or report_period_s <= 0:
        raise ValueError("window_s and report_period_s must be positive")
    expected = int(window_s // report_period_s)
    if expected > 0:
        coverage = count / expected
    else:
        coverage = 1.0 if count else 0.0
    # mean, sample_count, expected_count, coverage, sufficient
    return WindowAverage(scaled_sum / (count << SCALE_BITS) if count else None, count, expected,
                         coverage, coverage >= coverage_min)


def rolling_average(
    series: Iterable[tuple[float, float]],
    window_end: float,
    window_s: float = WINDOW_24H_S,
    report_period_s: float = DEFAULT_REPORT_PERIOD_S,
    coverage_min: float = DEFAULT_COVERAGE_MIN,
) -> WindowAverage:
    """Mean over samples with timestamp in (window_end - window_s, window_end].

    Coverage is measured against the station's report cadence; the average
    is only flagged sufficient when coverage reaches coverage_min. The mean
    is exact and correctly rounded (see window_average), so it equals the
    one a running sum over the same samples gives, bit for bit.
    """
    lo = window_end - window_s
    values = [v for ts, v in series if lo < ts <= window_end]
    return window_average(
        len(values), sum(map(scaled, values)), window_s, report_period_s, coverage_min)


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
