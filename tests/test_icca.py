import random
from decimal import ROUND_DOWN, Decimal

import pytest

from iccamon import icca
from iccamon.icca import (
    CATEGORIES,
    LADDERS,
    Category,
    InsufficientDataError,
    Pollutant,
    WindowAverage,
    _truncate_tenths,
    overall_icca,
    rolling_average,
    scaled,
    sub_index,
    summary_stats,
    window_average,
)

from .oracles import (
    CATEGORY_NAMES,
    ORACLE_PM10,
    ORACLE_PM25,
    exact_mean,
    icca_oracle,
    stats_oracle,
)

ORACLE_LADDERS = {Pollutant.PM25: ORACLE_PM25, Pollutant.PM10: ORACLE_PM10}


def avg(mean, sufficient=True):
    return WindowAverage(mean=mean, sample_count=72, expected_count=72, coverage=1.0,
                         sufficient=sufficient)


class TestCategoryTable:
    def test_six_categories_exact(self):
        cats = CATEGORIES
        assert [c.ordinal for c in cats] == [0, 1, 2, 3, 4, 5]
        assert [c.name for c in cats] == list(CATEGORY_NAMES)
        assert [(c.index_lo, c.index_hi) for c in cats] == [
            (0, 50), (51, 100), (101, 150), (151, 200), (201, 300), (301, 500)]

    def test_ladders_preserved_verbatim(self):
        assert LADDERS[Pollutant.PM25] == (
            (0, 153), (155, 402), (405, 654), (660, 1590), (1600, 2500), (2510, 5000))
        assert LADDERS[Pollutant.PM10] == (
            (0, 540), (560, 1540), (1550, 2540), (2550, 3540), (3550, 4240), (4240, 6040))

    def test_rows_bound_to_categories_in_order(self):
        # sub_index pairs row i with CATEGORIES[i]
        for ladder in LADDERS.values():
            assert len(ladder) == len(CATEGORIES)

    def test_ladder_rows_ascending_and_disjoint(self):
        for pollutant, ladder in LADDERS.items():
            for lo, hi in ladder:
                assert lo < hi, (pollutant, lo, hi)
            for (_, prev_hi), (lo, _) in zip(ladder, ladder[1:]):
                # the one shared bound is PM10 424, printed as both rows' end
                shared = (pollutant, lo) == (Pollutant.PM10, 4240)
                assert lo > prev_hi or (shared and lo == prev_hi), (pollutant, lo)

    def test_ladders_equal_oracle_in_tenths(self):
        for pollutant, oracle in ORACLE_LADDERS.items():
            tenths = tuple((int(Decimal(lo) * 10), int(Decimal(hi) * 10))
                           for lo, hi, _, _ in oracle)
            assert LADDERS[pollutant] == tenths


class TestSubIndex:
    def test_lower_bound_of_scale(self):
        r = sub_index(Pollutant.PM25, 0.0)
        assert r.value == 0 and r.category.name == "Buena" and not r.beyond_scale

    @pytest.mark.parametrize(
        "pollutant,conc,value",
        [
            (Pollutant.PM25, 15.3, 50),
            (Pollutant.PM25, 40.5, 101),
            (Pollutant.PM25, 65.4, 150),
            (Pollutant.PM10, 54, 50),
            (Pollutant.PM10, 604, 500),
        ],
    )
    def test_published_endpoints(self, pollutant, conc, value):
        assert sub_index(pollutant, conc).value == value

    def test_interpolated_value_matches_oracle(self):
        # 27.85 truncates to 27.8; 51 + 49*(27.8-15.5)/(40.2-15.5) = 75.4 -> 75
        assert icca_oracle(ORACLE_PM25, 27.85) == (75, False)
        r = sub_index(Pollutant.PM25, 27.85)
        assert r.value == 75 and r.category.name == "Moderada"

    def test_gap_assigns_next_category_lower_bound(self):
        # 15.4 sits in the printed gap between 15.3 and 15.5
        assert not any(Decimal(lo) <= Decimal("15.4") <= Decimal(hi)
                       for lo, hi, _, _ in ORACLE_PM25)
        r = sub_index(Pollutant.PM25, 15.4)
        assert r.value == 51 and r.category.name == "Moderada"

    def test_gap_after_truncation(self):
        # 15.40..15.49 truncate into the gap; 15.39 truncates back to 15.3
        for c in (15.4, 15.41, 15.49):
            assert sub_index(Pollutant.PM25, c).value == 51
        assert sub_index(Pollutant.PM25, 15.39).value == 50

    def test_shared_pm10_bound_resolves_low(self):
        r = sub_index(Pollutant.PM10, 424)
        assert r.value == 300 and r.category.name == "Muy dañina a la Salud"

    def test_beyond_scale_clamps_to_500(self):
        r = sub_index(Pollutant.PM25, 750)
        assert r.value == 500 and r.beyond_scale
        r = sub_index(Pollutant.PM10, 604.1)
        assert r.value == 500 and r.beyond_scale
        assert not sub_index(Pollutant.PM25, 500).beyond_scale

    @pytest.mark.parametrize("bad", [-0.1, -5, float("nan"), float("inf"), float("-inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            sub_index(Pollutant.PM25, bad)

    def test_ladder_fidelity_all_printed_bounds(self):
        # every printed bound maps to its category index endpoint; the shared
        # PM10 424 bound resolves to the lower category by ascending scan
        for pollutant, ladder in ORACLE_LADDERS.items():
            for i, (c_lo, c_hi, i_lo, i_hi) in enumerate(ladder):
                expect_lo = i_lo
                if i > 0 and ladder[i - 1][1] == c_lo:
                    expect_lo = ladder[i - 1][3]
                assert sub_index(pollutant, float(c_lo)).value == expect_lo
                assert sub_index(pollutant, float(c_hi)).value == i_hi

    def test_matches_oracle_on_every_tenth(self):
        # exhaustive over the one-decimal grid up to 700, past both ladder
        # tops: every row, gap and shared bound
        for pollutant, ladder in ORACLE_LADDERS.items():
            for t in range(7001):
                c = t / 10
                got = sub_index(pollutant, c)
                value, beyond = icca_oracle(ladder, c)
                name = next(CATEGORY_NAMES[i] for i, (_, _, i_lo, i_hi) in enumerate(ladder)
                            if i_lo <= value <= i_hi)
                assert (got.value, got.beyond_scale, got.category.name) == (value, beyond, name), (
                    pollutant, c)

    def test_matches_oracle_on_random_sweep(self):
        rng = random.Random(2024)
        for pollutant, ladder in ORACLE_LADDERS.items():
            for _ in range(2000):
                # mix of decimal precisions, covering gaps and beyond-scale
                c = round(rng.uniform(0, 650), rng.choice((0, 1, 2)))
                got = sub_index(pollutant, c)
                value, beyond = icca_oracle(ladder, c)
                assert (got.value, got.beyond_scale) == (value, beyond), f"{pollutant} {c}"

    def test_monotone_in_concentration(self):
        rng = random.Random(7)
        for pollutant in Pollutant:
            values = sorted(round(rng.uniform(0, 640), 1) for _ in range(500))
            indices = [sub_index(pollutant, c).value for c in values]
            assert indices == sorted(indices)

    def test_value_consistent_with_category_range(self):
        rng = random.Random(99)
        for _ in range(500):
            c = round(rng.uniform(0, 640), 1)
            r = sub_index(Pollutant.PM25, c)
            assert 0 <= r.value <= 500
            assert r.category.index_lo <= r.value <= r.category.index_hi

    def test_deterministic(self):
        assert sub_index(Pollutant.PM10, 123.4) == sub_index(Pollutant.PM10, 123.4)


def decimal_tenths(concentration) -> int:
    """The truncation rule on the decimal rendering, computed in Decimal throughout."""
    return int(Decimal(str(concentration)).scaleb(1).to_integral_value(rounding=ROUND_DOWN))


class TestSubIndexCache:
    def test_holds_each_ladder_value_once_and_one_entry_beyond(self):
        cache = icca._ladder_index
        cache.cache_clear()
        for pollutant, ladder in LADDERS.items():
            for tenths in range(ladder[-1][1] + 1):
                result = sub_index(pollutant, tenths / 10)
                # a second call is served from the cache, and it is the oracle's
                assert sub_index(pollutant, tenths / 10 + 0.04) is result
                assert (result.value, result.beyond_scale) == icca_oracle(
                    ORACLE_LADDERS[pollutant], tenths / 10)
        assert cache.cache_info().currsize == 5001 + 6041
        rng = random.Random(29)
        for pollutant, ladder in LADDERS.items():
            top = ladder[-1][1] / 10
            beyond = [top + 0.1, top + 1000, 1e6, 1e300]
            beyond += [rng.uniform(top + 0.1, 10 ** rng.uniform(3, 300)) for _ in range(2000)]
            for c in beyond:
                result = sub_index(pollutant, c)
                assert (result.value, result.beyond_scale) == (500, True)
                assert result is sub_index(pollutant, 1e300)
        # every value beyond the scale shares one entry per pollutant
        assert cache.cache_info().currsize == 5002 + 6042


class TestTruncateTenths:
    def test_matches_decimal_rule_on_random_floats(self):
        rng = random.Random(10)
        values = [rng.uniform(0, 1e4) for _ in range(100_000)]
        values += [rng.uniform(0, 10) for _ in range(20_000)]
        got = [_truncate_tenths(c) for c in values]
        want = [decimal_tenths(c) for c in values]
        assert got == want, next(c for c, g, w in zip(values, got, want) if g != w)

    @pytest.mark.parametrize("c, tenths", [
        (15.3, 153), (15.35, 153), (0.1, 1), (0.0, 0), (-0.0, 0), (999.95, 9999),
        (1e-05, 0), (5e-324, 0), (0.0001, 0), (0.99, 9), (1e16, 10**17), (1.5e300, 15 * 10**300),
        (9999999999999998.0, 99999999999999980), (0, 0), (7, 70), (604, 6040), (10**20, 10**21),
    ])
    def test_edge_values(self, c, tenths):
        assert _truncate_tenths(c) == decimal_tenths(c) == tenths


class TestOverallIcca:
    def test_max_of_sub_indices(self):
        r = overall_icca(avg(10.0), avg(10.0))
        # sub-indices 33 and 9
        assert r.value == 33 and r.dominant is Pollutant.PM25

    def test_single_sufficient_pollutant(self):
        r = overall_icca(None, avg(54))
        assert r.value == 50 and r.dominant is Pollutant.PM10

    def test_tie_goes_to_pm25(self):
        r = overall_icca(avg(0), avg(0))
        assert r.value == 0 and r.dominant is Pollutant.PM25

    def test_insufficient_raises(self):
        with pytest.raises(InsufficientDataError):
            overall_icca(None, None)
        with pytest.raises(InsufficientDataError):
            overall_icca(avg(10.0, sufficient=False), None)

    def test_insufficient_side_ignored(self):
        r = overall_icca(avg(200.0, sufficient=False), avg(10.0))
        assert r.value == 9 and r.dominant is Pollutant.PM10

    def test_equals_max_property(self):
        rng = random.Random(11)
        for _ in range(300):
            a, b = rng.uniform(0, 600), rng.uniform(0, 600)
            r = overall_icca(avg(a), avg(b))
            assert r.value == max(
                sub_index(Pollutant.PM25, a).value, sub_index(Pollutant.PM10, b).value)

    def test_beyond_scale_propagates(self):
        assert overall_icca(avg(750.0), avg(10.0)).beyond_scale
        assert not overall_icca(avg(10.0), avg(10.0)).beyond_scale

    def test_pm25_at_its_top_wins_the_tie_with_pm10_beyond(self):
        # PM2.5 500.0 is the top of its ladder, not beyond it: 500 against
        # PM10's 500 beyond the scale, a tie that PM2.5 wins
        r = overall_icca(avg(500.0), avg(700.0))
        assert (r.value, r.dominant, r.beyond_scale) == (500, Pollutant.PM25, True)
        assert r.category is CATEGORIES[-1]
        assert not sub_index(Pollutant.PM25, 500.0).beyond_scale

    def test_pm10_beyond_dominates(self):
        r = overall_icca(avg(10.0), avg(700.0))
        assert (r.value, r.dominant, r.beyond_scale) == (500, Pollutant.PM10, True)

    # each ladder's bounds, a value inside each printed gap, the top and past it
    GRID_PM25 = (0.0, 15.3, 15.4, 15.5, 40.2, 40.3, 40.5, 65.4, 65.7, 66.0, 159.0, 159.5, 160.0,
                 250.0, 250.5, 251.0, 500.0, 500.09, 500.1, 700.0)
    GRID_PM10 = (0.0, 54.0, 55.0, 56.0, 154.0, 154.5, 155.0, 254.0, 254.5, 255.0, 354.0, 354.5,
                 355.0, 424.0, 604.0, 604.09, 604.1, 700.0)

    def test_grid_against_the_oracle(self):
        # every side is a sufficient mean, an insufficient one or None
        def sides(grid):
            return [(avg(c), c) for c in grid] + [(avg(grid[5], sufficient=False), None),
                                                 (None, None)]
        tops = (50, 100, 150, 200, 300, 500)
        for a25, c25 in sides(self.GRID_PM25):
            for a10, c10 in sides(self.GRID_PM10):
                want = {pollutant: icca_oracle(ORACLE_LADDERS[pollutant], c)
                        for pollutant, c in ((Pollutant.PM25, c25), (Pollutant.PM10, c10))
                        if c is not None}
                if not want:
                    with pytest.raises(InsufficientDataError):
                        overall_icca(a25, a10)
                    continue
                r = overall_icca(a25, a10)
                value = max(v for v, _ in want.values())
                # the first with the highest value: PM2.5 wins a tie
                dominant = next(p for p, (v, _) in want.items() if v == value)
                assert (r.value, r.dominant, r.beyond_scale) == (
                    value, dominant, any(b for _, b in want.values())), (c25, c10)
                assert r.category.name == CATEGORY_NAMES[
                    next(i for i, top in enumerate(tops) if value <= top)]


class TestRollingAverage:
    def test_constant_full_day(self):
        series = [(i * 1200, 10.0) for i in range(72)]
        w = rolling_average(series, window_end=71 * 1200)
        assert w.mean == 10.0 and w.coverage == 1.0 and w.sufficient
        assert w.expected_count == 72 and w.sample_count == 72

    def test_partial_coverage_insufficient(self):
        series = [(i * 1200, 10.0) for i in range(40)]
        w = rolling_average(series, window_end=71 * 1200)
        assert w.sample_count == 40
        assert w.coverage == pytest.approx(40 / 72)
        assert not w.sufficient

    def test_mean_of_few_samples(self):
        series = [(0, 5.0), (1200, 10.0), (2400, 15.0)]
        w = rolling_average(series, window_end=2400)
        assert w.mean == 10.0 and not w.sufficient

    def test_window_is_half_open_on_the_left(self):
        series = [(0, 100.0), (1, 1.0), (86400, 3.0)]
        w = rolling_average(series, window_end=86400)
        # ts=0 is exactly window_end - window and must be excluded
        assert w.sample_count == 2 and w.mean == 2.0

    def test_empty_window(self):
        w = rolling_average([], window_end=0)
        assert w.sample_count == 0 and w.mean is None and not w.sufficient

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            rolling_average([], 0, window_s=0)
        with pytest.raises(ValueError):
            rolling_average([], 0, report_period_s=0)

    def test_mean_is_exact_and_correctly_rounded(self):
        # a day of one-minute samples whose float sum drifts: sum(values)/n
        # misses the correctly rounded mean
        values = [10.0 + (k % 37) * 0.3 for k in range(1440)]
        assert sum(values) / len(values) != exact_mean(values)
        w = rolling_average([(k * 60, v) for k, v in enumerate(values)], 1439 * 60,
                            report_period_s=60)
        assert w.sample_count == 1440 and w.mean == exact_mean(values)

    def test_mean_matches_oracle_on_random_series(self):
        rng = random.Random(2718)
        long_expansions = (0.1, 12.3, 499.9, 0.7, 33.3)
        for _ in range(300):
            n = rng.randint(1, 300)
            values = [rng.choice(long_expansions) if rng.random() < 0.3
                      else rng.choice((round(rng.uniform(0, 999.9), 1), rng.uniform(0, 1000)))
                      for _ in range(n)]
            series = [(k * 60, v) for k, v in enumerate(values)]
            w = rolling_average(series, (n - 1) * 60, report_period_s=60)
            assert w.mean == exact_mean(values), values

    def test_window_average_is_rolling_average_on_scaled_sums(self):
        values = [0.1, 12.3, 499.9, 5e-324, 1e300]
        got = window_average(len(values), sum(map(scaled, values)), 86400, 1200, 0.75)
        want = rolling_average([(0, v) for v in values], 0)
        assert got == want and got.mean == exact_mean(values)
        # a running sum that adds and takes values away lands on the same integer
        running = 0
        for v in values + values:
            running += scaled(v)
        for v in values:
            running -= scaled(v)
        assert running == sum(map(scaled, values))


class TestSummaryStats:
    def test_odd_count(self):
        s = summary_stats([3, 1, 2])
        assert (s.mean, s.median, s.max, s.min) == (2, 2, 3, 1)

    def test_even_count_median(self):
        assert summary_stats([1, 2, 3, 4]).median == 2.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summary_stats([])

    def test_matches_oracle_on_random_series(self):
        rng = random.Random(31337)
        for _ in range(200):
            series = [rng.uniform(-1000, 1000) for _ in range(rng.randint(1, 50))]
            got = summary_stats(series)
            want = stats_oracle(series)
            assert got.mean == want["mean"]
            assert got.median == want["median"]
            assert got.max == want["max"]
            assert got.min == want["min"]
