"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from iccamon import sim  # noqa: E402
from iccamon.service import MonitorService  # noqa: E402
from iccamon.store import TimeSeriesStore  # noqa: E402

from perfbench import inputs, run, spans, stats  # noqa: E402

# -- tail percentile ------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [
    (99, None),       # p90 would leave 9 above
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10800, 99.0),    # the ladder stops at p99
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    if pct is not None:
        assert stats.samples_beyond(n, pct) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values[::-1], 95) == 95
    assert stats.percentile([7], 99.9) == 7
    assert stats.samples_beyond(10000, 99.9) == 10
    # exactly ten values lie above p90 of 100 samples
    assert sum(v > stats.percentile(values, 90) for v in values) == stats.samples_beyond(100, 90)


def test_best_times_take_each_operations_second_fastest():
    def round_(scale, gap_ns):
        return SimpleNamespace(frame_ns=[i * 1000 * scale for i in range(1, 1001)],
                               read_ns=[5_000 * scale] * 100, gap_ns=[gap_ns] * 1000,
                               ref_ns=[200_000 * scale] * 100, station_days=0.5)

    best = run.BestTimes()
    best.add(round_(3, 200))
    with pytest.raises(RuntimeError):
        best.metrics()  # one round has no second-fastest time
    for scale, gap_ns in ((1, 400), (2, 100)):
        best.add(round_(scale, gap_ns))
    fig = best.metrics()
    # scales 3, 1, 2: the second fastest is the round at scale 2; gaps 200, 400, 100 -> 200
    assert best.second_fastest("frame_ns") == [i * 2000 for i in range(1, 1001)]
    # the tail follows the round size: p99 of 1,000 frames, p90 of 100 reads
    assert fig["frame_pct"] == 99.0 and fig["read_pct"] == 90.0
    assert fig["frame_p50_us"] == 1000 and fig["frame_tail_us"] == 1980
    assert fig["read_p50_us"] == 10 and fig["read_tail_us"] == 10
    phase_s = (sum(best.second_fastest("frame_ns")) + 1000 * 200) / 1e9
    assert fig["frames_per_s"] == pytest.approx(1000 / phase_s)
    assert fig["station_days_per_s"] == pytest.approx(0.5 / phase_s)
    assert fig["ref_slice_us"] == 400
    # one lucky try does not set an operation's time
    best.add(SimpleNamespace(frame_ns=[1] * 1000, read_ns=[1] * 100, gap_ns=[1] * 1000,
                             ref_ns=[1] * 100, station_days=0.5))
    assert best.second_fastest("frame_ns") == [i * 1000 for i in range(1, 1001)]
    with pytest.raises(RuntimeError):
        best.add(SimpleNamespace(frame_ns=[1], read_ns=[1] * 100, gap_ns=[1], ref_ns=[1] * 100,
                                 station_days=0.5))


def test_merged_best_times_are_the_two_fastest_of_both():
    def one(values):
        best = run.BestTimes()
        for v in values:
            best.add(SimpleNamespace(frame_ns=[v], read_ns=[v], gap_ns=[v], ref_ns=[v], station_days=0))
        return best

    for a, b in (([5, 9], [7, 8]), ([5, 6], [7, 8]), ([7, 8], [5, 6]), ([4, 9], [3, 10])):
        merged = one(a).merge(one(b))
        assert merged.times["frame_ns"] == ([sorted(a + b)[0]], [sorted(a + b)[1]])
        assert merged.rounds == 4


def test_reference_speed_scales_times_and_rates():
    figures = {"frame_p50_us": 500.0, "frame_tail_us": 990.0, "read_p50_us": 5.0, "read_tail_us": 8.0,
               "frames_per_s": 1000.0, "station_days_per_s": 0.5}
    # on a host at half speed, times halve and rates double at reference speed
    assert run.at_speed(figures, 0.5) == {
        "frame_p50_us": 250.0, "frame_tail_us": 495.0, "read_p50_us": 2.5, "read_tail_us": 4.0,
        "frames_per_s": 2000.0, "station_days_per_s": 1.0}
    assert run.at_speed(figures, 0.5, run.SCALED["read"]) == {"read_p50_us": 2.5, "read_tail_us": 4.0}
    assert run.at_speed({"setup_s": 0.2}, 0.5, run.SCALED["setup"]) == {"setup_s": 0.1}
    cfg = json.loads(run.CONFIG.read_text())["workloads"]
    scaled = {name: run.scaled_keys(SimpleNamespace(cfg=c)) for name, c in cfg.items()}
    # the POSTs of http-demo wait out a kernel timer, so they are not scaled
    assert scaled["http-demo"] == ("setup_s", "read_p50_us", "read_tail_us")
    assert set(scaled["ingest-dense"]) == {"setup_s"} | set(run.TIMES + run.RATES)
    assert set(scaled["replay-month"]) == set(run.TIMES + run.RATES)


# -- self time ----------------------------------------------------------------


def test_self_time_nested_children():
    # parent 0..100 with a child 10..40 that itself has a child 20..30:
    # only direct children count against the parent
    assert spans.self_time_ns(0, 100, [(10, 40)]) == 70
    assert spans.self_time_ns(10, 40, [(20, 30)]) == 20


def test_self_time_overlapping_children_counted_once():
    assert spans.self_time_ns(0, 100, [(10, 50), (30, 60), (55, 70)]) == 40
    assert spans.self_time_ns(0, 100, [(10, 20), (10, 20)]) == 90


def test_self_time_clips_children_to_the_parent():
    assert spans.self_time_ns(0, 100, [(-20, 10), (90, 150)]) == 80
    assert spans.self_time_ns(0, 100, [(200, 300)]) == 100
    assert spans.self_time_ns(0, 100, [(-5, 105)]) == 0


def test_analyse_assigns_server_spans_by_containment():
    # client op 1 (a POST) holds a server-thread ingest span 2 with a child 3;
    # client op 4 (a GET) holds server span 5; span 6 lies outside any op
    recorded = [
        (1, None, "op.frame", 0, 1000, None),
        (2, None, "service.ingest", 100, 600, None),
        (3, 2, "store.fsync", 200, 500, None),
        (4, None, "op.read.icca", 2000, 2300, None),
        (5, None, "service.read_icca", 2050, 2250, None),
        (6, None, "service.ingest", 5000, 5100, None),
    ]
    totals, rows = spans.analyse(recorded)
    assert totals.self_ns[("op.frame", "frame")] == 500
    assert totals.self_ns[("service.ingest", "frame")] == 200 + 100
    assert totals.self_ns[("store.fsync", "frame")] == 300
    assert totals.self_ns[("op.read.icca", "read")] == 100
    assert totals.calls[("service.read_icca", "read")] == 1
    request = {row[0]: row[2] for row in rows}
    assert request == {1: 1, 2: 1, 3: 1, 4: 4, 5: 4, 6: None}
    metrics = spans.layer_metrics(totals, frames=1, reads=1, accepted=1, http=True)
    assert metrics["service.http_overhead_us"] == pytest.approx(500 / 1e3)
    assert metrics["service.http_overhead_read_us"] == pytest.approx(100 / 1e3)
    assert metrics["store.fsyncs"] == 1


def test_recorder_wraps_and_restores():
    original = TimeSeriesStore.__dict__["token_registry"]
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert TimeSeriesStore.__dict__["token_registry"] is not original
        with recorder.span("op.frame"):
            TimeSeriesStore.token_registry(type("S", (), {"_stations": {}})())
    finally:
        recorder.uninstall()
    assert TimeSeriesStore.__dict__["token_registry"] is original
    names = [s[2] for s in recorder.take()]
    assert names == ["store.token_registry", "op.frame"]
    assert recorder.spans == []


# -- injected rejects ---------------------------------------------------------


def _frames(seed=3):
    members, start_ts = inputs.load_fleet(ROOT / "configs" / "fleet_demo.json", 60)
    return members, inputs.fleet_frames(members, start_ts, 3600, seed)


def test_inject_rejects_exact_shares_and_order():
    _, frames = _frames()
    shares = {"duplicate_seq": 0.05, "bad_token": 0.02, "unknown_station": 0.03}
    ops = inputs.inject_rejects(frames, shares, seed=9)
    counts = inputs.injected_counts(ops)
    assert counts == {k: round(len(frames) * v) for k, v in shares.items()}
    assert [op.frame for op in ops if op.kind == "frame"] == frames
    for i, op in enumerate(ops):
        if op.kind == "duplicate_seq":
            assert ops[i - 1].kind == "frame" and ops[i - 1].text == op.text
        if op.kind == "bad_token":
            nxt = next(o for o in ops[i:] if o.kind == "frame")
            assert (op.frame.station_id, op.frame.seq) == (nxt.frame.station_id, nxt.frame.seq)
            assert op.frame.token != nxt.frame.token
    assert ops == inputs.inject_rejects(frames, shares, seed=9)
    assert ops != inputs.inject_rejects(frames, shares, seed=10)


def test_injected_statuses_match_the_service(tmp_path):
    members, frames = _frames()
    ops = inputs.inject_rejects(frames, {"duplicate_seq": 0.1, "bad_token": 0.1,
                                         "unknown_station": 0.1}, seed=4)
    inputs.build_template(tmp_path / "data", [m.station for m in members], [])
    store = TimeSeriesStore(tmp_path / "data", fsync=False)
    try:
        svc = MonitorService(store)
        statuses = [svc.ingest(op.text)[0] for op in ops]
    finally:
        store.close()
    assert statuses == [op.expect for op in ops]


def test_fleet_frames_repeat_for_a_seed():
    members, start_ts = inputs.load_fleet(ROOT / "configs" / "fleet_demo.json")
    a = inputs.fleet_frames(members, start_ts, 86400, 5)
    assert a == inputs.fleet_frames(members, start_ts, 86400, 5)
    assert a != inputs.fleet_frames(members, start_ts, 86400, 6)
    assert all(isinstance(f, sim.TelemetryFrame) for f in a)


# -- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER
    cfg = json.loads(run.CONFIG.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(cfg["workloads"])
