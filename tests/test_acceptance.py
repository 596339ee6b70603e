"""Acceptance suite: one test per criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from pathlib import Path

from iccamon import icca
from iccamon.icca import Pollutant, sub_index, summary_stats
from iccamon.rules import AlertKind, Rule, RuleEngine
from iccamon.sensor import (
    FRAME_LEN,
    BadChecksum,
    BadHeader,
    BadLength,
    PmFrame,
    decode_pm_frame,
    encode_pm_frame,
)
from iccamon.service import MonitorService
from iccamon.sim import (
    BlackoutTransport,
    CallableTransport,
    load_fleet_config,
    run_fleet,
    true_signal,
)
from iccamon.store import TimeSeriesStore
from iccamon.telemetry import RejectReason, TelemetryFrame, parse_and_validate, parse_frame, serialize

from .helpers import log_data, register, stored
from .oracles import ORACLE_PM10, ORACLE_PM25, icca_oracle, stats_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DAY_S = 24 * 3600


class _Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.started = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.started
        assert elapsed < self.limit, f"over time budget: {elapsed:.2f}s >= {self.limit}s"
        return elapsed


def _ok(n, msg, budget):
    elapsed = budget.check()
    print(f"\ncriterion {n}: PASS ({elapsed:.2f}s) - {msg}")


class _FleetRun:
    """The shipped 5-station demo fleet run for 24 h into a fresh service."""
    def __init__(self, tmp_path, name, outages=None, rules=None, seed=7):
        self.members, self.start_ts = load_fleet_config(CONFIGS / "fleet_demo.json")
        self.store = TimeSeriesStore(register(tmp_path / name, *(m.station for m in self.members)))
        self.engine = RuleEngine(rules, alert_log=self.store.alert_log) if rules else None
        self.events = []
        if self.engine is not None:
            original = self.engine.observe
            self.engine.observe = lambda sid, res, ts: self.events.extend(original(sid, res, ts))
        self.service = MonitorService(self.store, rule_engine=self.engine)
        transport = CallableTransport(lambda text: self.service.ingest(text)[0])
        if outages:
            transport = BlackoutTransport(transport, outages)
        self.report = run_fleet(self.members, DAY_S, transport, seed=seed,
                                start_ts=self.start_ts)

    def station_ids(self):
        return [m.station.station_id for m in self.members]

    def records(self, sid):
        return stored(self.store, sid)

    def close(self):
        self.store.close()


def test_criterion_1_breakpoint_fidelity():
    budget = _Budget(1.0)
    checked = 0
    for pollutant, ladder in ((Pollutant.PM25, ORACLE_PM25), (Pollutant.PM10, ORACLE_PM10)):
        for i, (c_lo, c_hi, i_lo, i_hi) in enumerate(ladder):
            # ascending first-match scan resolves the shared PM10 424 bound
            # to the lower category's top index
            expect_lo = i_lo
            if i > 0 and ladder[i - 1][1] == c_lo:
                expect_lo = ladder[i - 1][3]
            assert sub_index(pollutant, float(c_lo)).value == expect_lo, (pollutant, c_lo)
            assert sub_index(pollutant, float(c_hi)).value == i_hi, (pollutant, c_hi)
            checked += 2
    # spot anchors from the published scale
    assert sub_index(Pollutant.PM25, 15.3).value == 50
    assert sub_index(Pollutant.PM25, 40.5).value == 101
    assert sub_index(Pollutant.PM25, 65.4).value == 150
    assert sub_index(Pollutant.PM25, 66).value == 151
    assert sub_index(Pollutant.PM25, 500).value == 500
    assert sub_index(Pollutant.PM10, 54).value == 50
    assert sub_index(Pollutant.PM10, 604).value == 500
    assert checked == 24
    _ok(1, "all 24 printed bounds map exactly to their index endpoints", budget)


def test_criterion_2_interpolation_oracle():
    budget = _Budget(5.0)
    rng = random.Random(20240811)
    ladders = {Pollutant.PM25: ORACLE_PM25, Pollutant.PM10: ORACLE_PM10}
    for pollutant, ladder in ladders.items():
        values = []
        for _ in range(10_000):
            c = round(rng.uniform(0.0, 650.0), rng.choice((0, 1, 2, 3)))
            values.append(c)
            got = sub_index(pollutant, c)
            want_value, want_beyond = icca_oracle(ladder, c)
            assert (got.value, got.beyond_scale) == (want_value, want_beyond), (pollutant, c)
        values.sort()
        indices = [sub_index(pollutant, c).value for c in values]
        for a, b in zip(indices, indices[1:]):
            assert a <= b
    _ok(2, "10,000 random concentrations per pollutant match the oracle; monotone", budget)


def test_criterion_3_codec():
    budget = _Budget(5.0)
    rng = random.Random(3)
    for _ in range(10_000):
        frame = PmFrame(*(rng.randint(0, 0xFFFF) for _ in range(13)))
        assert decode_pm_frame(encode_pm_frame(frame)) == frame

    valid = encode_pm_frame(PmFrame(3, 14, 15, 9, 26, 5, 35, 8, 97, 9, 32, 38, 4))
    escapes = []
    for pos in range(FRAME_LEN):
        for delta in range(1, 256):
            corrupted = bytearray(valid)
            corrupted[pos] = (corrupted[pos] + delta) & 0xFF
            try:
                decode_pm_frame(bytes(corrupted))
            except (BadHeader, BadLength, BadChecksum):
                continue
            escapes.append((pos, delta))
    # the byte-sum detects every single-byte change: edits before the checksum
    # shift the computed sum, edits inside it shift the stored value; the
    # characterized escape set is empty
    assert escapes == []
    _ok(3, "decode/encode identity on 10,000 frames; corruption sweep escape set empty", budget)


def test_criterion_4_protocol_round_trip():
    budget = _Budget(5.0)
    rng = random.Random(4)
    for _ in range(10_000):
        frame = TelemetryFrame(
            station_id=rng.choice(("utec-01", "santa-ana", "node_7", "a-b_c")),
            token="".join(rng.choice("0123456789abcdef") for _ in range(16)),
            seq=rng.randint(0, 2**64 - 1),
            ts=rng.randint(0, 2**40),
            pm25=round(rng.uniform(0, 999), rng.choice((0, 1, 2, 4))),
            pm10=round(rng.uniform(0, 999), rng.choice((0, 1, 2, 4))),
            temp_c=round(rng.uniform(0, 150), rng.choice((0, 1, 4))),
        )
        assert parse_frame(serialize(frame)) == frame

    registry = {"utec-01": "good-token"}
    ok = serialize(TelemetryFrame("utec-01", "good-token", 5, 100, 10.0, 20.0, 25.0))
    fixtures = {
        RejectReason.MALFORMED: '{"station_id":"utec-01","extra":1}',
        RejectReason.UNKNOWN_STATION: ok.replace("utec-01", "nowhere"),
        RejectReason.BAD_TOKEN: ok.replace("good-token", "bad-token"),
        RejectReason.DUPLICATE_SEQ: ok,
        RejectReason.STALE_SEQ: ok.replace('"seq":5', '"seq":2'),
        RejectReason.OUT_OF_RANGE: ok.replace('"temp_c":25.0', '"temp_c":151.0'),
    }
    last_seq = {"utec-01": 5}

    def lookup(seqs):
        return lambda sid: (registry[sid], seqs.get(sid)) if sid in registry else None

    for reason, text in fixtures.items():
        seqs = last_seq if reason in (RejectReason.DUPLICATE_SEQ, RejectReason.STALE_SEQ) else {}
        outcome = parse_and_validate(text, lookup(seqs))
        assert outcome.reason is reason, (reason, outcome)
    assert parse_and_validate(ok, lookup({})).accepted
    _ok(4, "parse/serialize identity on 10,000 frames; all six rejection reasons hit", budget)


def test_criterion_5_end_to_end_scenario(tmp_path):
    budget = _Budget(30.0)
    rules = [Rule("danina-a-la-salud", trigger_category_min=3, clear_consecutive=3),
             Rule("grupos-sensibles-watch", trigger_category_min=2, clear_consecutive=3)]
    run = _FleetRun(tmp_path, "e2e", rules=rules)
    try:
        # 5 stations x 72 reports, sequence gap-free
        assert run.report.total_delivered == 360
        total = 0
        for sid in run.station_ids():
            records = run.records(sid)
            total += len(records)
            assert [m.seq for m in records] == list(range(1, 73)), sid
        assert total == 360

        # the capital's 24-h PM2.5 mean sits in the 66-159 band and exactly
        # one "Dañina a la Salud" alert was raised
        capital = "san-salvador-centro"
        mean25 = sum(m.pm25 for m in run.records(capital)) / 72
        assert 66.0 <= mean25 <= 159.0, mean25
        danina = [e for e in run.events if e.rule_id == "danina-a-la-salud"]
        assert [e.kind for e in danina] == [AlertKind.RAISED]
        assert danina[0].station_id == capital
        assert danina[0].category == "Dañina a la Salud"

        # the overview shows all five stations, each seen within one report
        # period of the horizon end
        overview = run.service.overview_payload()["stations"]
        assert len(overview) == 5
        horizon_end = run.start_ts + DAY_S
        for entry in overview:
            assert horizon_end - entry["last_seen"] <= 1200
            assert entry["icca"] is not None

        # low-traffic stations never leave "Moderada" on any sufficient
        # rolling evaluation, and trip no rules at all
        for sid in run.station_ids():
            if sid == capital:
                continue
            records = run.records(sid)
            period = run.store.get_station(sid).report_period_s
            for k in range(len(records)):
                end = records[k].ts
                window = [(m.ts, m.pm25) for m in records[: k + 1]]
                a25 = icca.rolling_average(window, end, report_period_s=period)
                window10 = [(m.ts, m.pm10) for m in records[: k + 1]]
                a10 = icca.rolling_average(window10, end, report_period_s=period)
                if not (a25.sufficient or a10.sufficient):
                    continue
                result = icca.overall_icca(a25, a10)
                assert result.category.ordinal <= 1, (sid, k, result)
            assert not any(e.station_id == sid for e in run.events), sid
    finally:
        run.close()
    _ok(5, "360 records, seq 1..72 gap-free; one Dañina a la Salud alert; towns <= Moderada",
        budget)


def test_criterion_6_outage_recovery(tmp_path):
    budget = _Budget(30.0)
    healthy = _FleetRun(tmp_path, "healthy")
    start = healthy.start_ts
    # transport dead for the middle third of the day
    blackout = _FleetRun(tmp_path, "blackout", outages=[(start + 8 * 3600, start + 16 * 3600)])
    try:
        assert blackout.report.total_delivered == 360
        assert sum(n.counters.failed_attempts for n in blackout.report.nodes) > 0
        for sid in healthy.station_ids():
            assert blackout.records(sid) == healthy.records(sid), sid
    finally:
        healthy.close()
        blackout.close()
    _ok(6, "after a one-third blackout the store equals the no-outage run record-for-record",
        budget)


def test_criterion_7_crash_safety(tmp_path):
    budget = _Budget(10.0)
    from iccamon.store import Measurement, StationRecord

    data = register(tmp_path / "crash", StationRecord("st-1", "st-1", 13.7, -89.2, "tok"))
    store = TimeSeriesStore(data)
    for seq in range(1, 41):
        store.append(Measurement("st-1", seq, seq * 60, 10.0 + seq, 20.0, 25.0))
    log = data / "series" / "st-1.ndjson"
    pristine = log.read_bytes()
    rng = random.Random(7)
    # cuts fall in the records, not in the space padding after them
    offsets = rng.sample(range(len(log_data(log))), 50)
    for cut in offsets:
        log.write_bytes(pristine[:cut])
        expect_whole = pristine[:cut].count(b"\n")
        store = TimeSeriesStore(data)
        records = stored(store, "st-1")
        assert len(records) == expect_whole, cut
        assert [m.seq for m in records] == list(range(1, expect_whole + 1)), cut
        log.write_bytes(pristine)
    _ok(7, "50 random truncations: always the maximal whole-record prefix, never torn", budget)


def test_criterion_8_statistics_oracle():
    budget = _Budget(5.0)
    rng = random.Random(8)
    for _ in range(1000):
        n = rng.randint(1, 200)
        series = [rng.uniform(-500, 500) for _ in range(n)]
        got = summary_stats(series)
        want = stats_oracle(series)
        assert got.mean == want["mean"]
        assert got.median == want["median"]
        assert got.max == want["max"]
        assert got.min == want["min"]
    _ok(8, "summary stats equal the sort-based oracle on 1,000 random series, exactly", budget)


def test_criterion_9_diurnal_and_rain_claims():
    budget = _Budget(1.0)
    members, start_ts = load_fleet_config(CONFIGS / "fleet_demo.json")
    capital = next(m for m in members if m.station.station_id == "san-salvador-centro")
    sc = capital.scenario
    period = capital.station.report_period_s

    # peak-hour mean strictly above the 03:00 value
    v_03 = true_signal(sc, start_ts + 3 * 3600)[0]
    peak_ts = [start_ts + int(h * 3600) for h in (7, 7.5, 8, 8.5, 9, 17, 17.5, 18, 18.5, 19)]
    peak_mean = sum(true_signal(sc, t)[0] for t in peak_ts) / len(peak_ts)
    assert peak_mean > v_03

    # the first sample after the rain sits strictly below the last sample
    # before it (under both readings: after onset and after the event ends)
    rain = sc.rain[0]
    pre = true_signal(sc, rain.start_ts - period)[0]
    first_in = true_signal(sc, rain.start_ts)[0]
    first_after_end = true_signal(sc, rain.start_ts + rain.duration_s)[0]
    assert first_in < pre
    assert first_after_end < pre
    _ok(9, "peak-hours mean exceeds 03:00; first post-rain sample below pre-rain", budget)
