#!/usr/bin/env python3
"""Run one iccamon benchmark workload and print its metrics.

    python3 perfbench/run.py --workload http-demo --seed 7 --seconds 20 --trace 0

Run from the repository root. ``--workload all`` runs every workload in
turn. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the workload untraced and then traced (half the time
each) and reports the per-layer metrics, the tracing overhead and each
layer's share of the untraced median. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 only when every output check passed.

Inputs are prepared in this process. Each half of ``--seconds`` is then
measured in a fresh child process, the two with different hash seeds, so
a workload's peak memory is its own and its store digest must repeat
across processes. Working data goes to ``.perfbench_work/`` under the
root; the spans of the last traced round and a JSON report are left
there.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
CONFIG = Path(__file__).resolve().parent / "workloads.json"
MIN_ROUNDS = 2
MIN_SETUPS = 20
# The metrics a workload lists under "scale_to_reference" are given at the
# host speed at which the reference slice (workloads.reference_slice) takes
# this long.
REF_SLICE_US = 100.0
# stay well inside the three minutes a run may take
DEADLINE_S = 150.0
# hash seeds of the children that measure the two halves of a run
HASH_SEEDS = ("1", "2")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    """Use the package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "iccamon" / "__init__.py").is_file():
        _fail(f"no iccamon package under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import iccamon

    if Path(iccamon.__file__).resolve().parent != (src / "iccamon").resolve():
        _fail(f"imported iccamon from {iccamon.__file__}, not from {src}")


# Workload-specific names of the end-to-end metrics, printed beside them:
# generic name -> (workload name, factor, unit).
ALIASES = {
    "http-demo": {
        "frame_p50_us": ("post_p50_ms", 1e-3, "ms"), "frame_tail_us": ("post_tail_ms", 1e-3, "ms"),
        "frames_per_s": ("post_per_s", 1.0, "1/s"),
        "read_p50_us": ("get_p50_ms", 1e-3, "ms"), "read_tail_us": ("get_tail_ms", 1e-3, "ms"),
    },
    "ingest-dense": {
        "frame_p50_us": ("ingest_p50_us", 1.0, "us"), "frame_tail_us": ("ingest_tail_us", 1.0, "us"),
        "frames_per_s": ("ingest_per_s", 1.0, "1/s"),
    },
    "replay-month": {},
}

E2E_UNITS = {
    "setup_s": "s", "frame_p50_us": "us", "frame_tail_us": "us", "frames_per_s": "1/s",
    "station_days_per_s": "1/s", "read_p50_us": "us", "read_tail_us": "us", "peak_rss_mb": "MB",
}


class BestTimes:
    """Each operation's two fastest times over a run's identical rounds.

    Every round sends the same operations against the same starting state,
    so the i-th frame (or read) of one round is the same work as the i-th of
    any other; so is the i-th gap between frames (the loop, or the simulator
    on replay-month), and the i-th reference slice, which samples the host's
    speed at the same point. An operation's **second-fastest** time over the
    run is its cost with little interference from the rest of the machine;
    unlike the fastest, one lucky try cannot set it (on http-demo a POST
    now and then skips the 40 ms stall it meets on every other try). Only
    these running pairs are kept, so the harness's memory does not grow
    with the rounds.
    """

    KINDS = ("frame_ns", "read_ns", "gap_ns", "ref_ns")

    def __init__(self):
        # kind -> (fastest times, second-fastest times), one entry per operation
        self.times: dict[str, tuple[list, list]] = {}
        self.station_days = 0.0
        self.rounds = 0

    def add(self, r) -> None:
        for kind in self.KINDS:
            samples = getattr(r, kind)
            if kind not in self.times:
                self.times[kind] = (list(samples), [float("inf")] * len(samples))
                continue
            first, second = self.times[kind]
            if len(first) != len(samples):
                raise RuntimeError(f"{kind}: {len(samples)} samples in a round, {len(first)} before")
            self.times[kind] = (list(map(min, first, samples)),
                                [min(b, max(a, x)) for a, b, x in zip(first, second, samples)])
        self.station_days = r.station_days
        self.rounds += 1

    def merge(self, other: "BestTimes") -> "BestTimes":
        """The two fastest times over both runs of the same rounds."""
        merged = BestTimes()
        for kind in self.KINDS:
            (a1, b1), (a2, b2) = self.times[kind], other.times[kind]
            merged.times[kind] = (list(map(min, a1, a2)), list(map(min, map(max, a1, a2), b1, b2)))
        merged.station_days = self.station_days
        merged.rounds = self.rounds + other.rounds
        return merged

    def second_fastest(self, kind: str) -> list:
        second = self.times[kind][1]
        if self.rounds < 2:
            raise RuntimeError(f"{self.rounds} round gives no second-fastest time")
        return second

    def metrics(self) -> dict:
        """Latency percentiles and rates of the second-fastest times, and the
        median second-fastest time of the reference slices.

        The tail is the highest ladder percentile that leaves ten operations
        above it in one round; the round size is fixed, so it does not move
        when the program gets faster.
        """
        from perfbench import stats

        out = {}
        for kind in ("frame", "read"):
            best = self.second_fastest(f"{kind}_ns")
            pct = stats.tail_percentile(len(best))
            if pct is None:
                raise RuntimeError(f"{len(best)} {kind} samples per round give no tail percentile")
            out[f"{kind}_p50_us"] = stats.percentile(best, 50) / 1e3
            out[f"{kind}_tail_us"] = stats.percentile(best, pct) / 1e3
            out[f"{kind}_pct"] = pct
        frame_ns = self.second_fastest("frame_ns")
        phase_s = (sum(frame_ns) + sum(self.second_fastest("gap_ns"))) / 1e9
        out["frames_per_s"] = len(frame_ns) / phase_s
        out["station_days_per_s"] = self.station_days / phase_s
        out["ref_slice_us"] = stats.percentile(self.second_fastest("ref_ns"), 50) / 1e3
        return out


TIMES = ("frame_p50_us", "frame_tail_us", "read_p50_us", "read_tail_us")
RATES = ("frames_per_s", "station_days_per_s")
# what "scale_to_reference" in workloads.json may name
SCALED = {"setup": ("setup_s",),
          "frame": ("frame_p50_us", "frame_tail_us", "frames_per_s", "station_days_per_s"),
          "read": ("read_p50_us", "read_tail_us")}


def scaled_keys(workload) -> tuple:
    return tuple(key for group in workload.cfg.get("scale_to_reference", ()) for key in SCALED[group])


def at_speed(figures: dict, factor: float, keys=TIMES + RATES) -> dict:
    """``keys`` of the latencies and rates with every time multiplied by ``factor``."""
    return {key: figures[key] / factor if key in RATES else figures[key] * factor for key in keys}


def measure(workload, seconds: float, run_dir: Path, deadline: float, recorder=None):
    """Identical rounds for about ``seconds`` (at least MIN_ROUNDS).

    Returns the rounds, stripped of their samples, and their BestTimes.
    """
    from perfbench import spans

    rounds = []
    best = BestTimes()
    start = last = time.perf_counter()
    round_s = 0.0
    # start another round while it would end less than half a round late
    while len(rounds) < MIN_ROUNDS or last + round_s / 2 - start < seconds:
        if rounds and last > deadline:
            break
        result = workload.run_round(run_dir / f"round-{len(rounds)}", recorder)
        now = time.perf_counter()
        round_s, last = now - last, now
        best.add(result)
        read_s = sum(result.read_ns) / 1e9
        result.read_share = read_s / (read_s + result.frame_phase_s)
        result.frames, result.reads = len(result.frame_ns), len(result.read_ns)
        result.frame_ns = result.read_ns = result.gap_ns = None
        if result.spans is not None:
            result.recover_ns = [t1 - t0 for _, _, n, t0, t1, _ in result.spans if n == "store.recover"]
            result.totals, result.rows = spans.analyse(result.spans)
            result.spans = None
            if rounds:
                rounds[-1].rows = None  # keep only the last round's spans
        rounds.append(result)
    return rounds, best


def summarize(rounds, best: BestTimes, setups, rss_mb: float, scaled: tuple):
    """End-to-end metrics of a set of rounds, as reported and as measured,
    the problems found, report notes.

    Latencies and rates come from the second-fastest times; ``setup_s`` is
    the median of the set-ups. The ``scaled`` metrics are reported at the
    reference speed.
    """
    from perfbench import stats

    problems = [p for r in rounds for p in r.problems]
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        problems.append("store digest differs between rounds of one seed (the two halves of a run "
                        f"use PYTHONHASHSEED {' and '.join(HASH_SEEDS)}): {sorted(digests)}")
    figures = best.metrics()
    notes = [f"{kind} tail is p{figures[kind + '_pct']:g}: {n} samples per round, "
             f"{stats.samples_beyond(n, figures[kind + '_pct'])} beyond"
             for kind, n in (("frame", rounds[0].frames), ("read", rounds[0].reads))]
    # set-up is mostly file reads and parsing, which do not slow with the
    # host as the reference slice does, so it is reported as measured
    measured = {"setup_s": statistics.median(setups)} | at_speed(figures, 1.0) | {"peak_rss_mb": rss_mb}
    metrics = measured | at_speed(measured, REF_SLICE_US / figures["ref_slice_us"], scaled)
    notes.append(f"reference slice {figures['ref_slice_us']:.2f} us (median second-fastest); metrics with "
                 f"a measured value in brackets are given at {REF_SLICE_US:g} us")
    share = statistics.median(r.read_share for r in rounds)
    notes.append(f"reads take {100 * share:.1f} % of the timed part of a round (median over rounds)")
    notes.append(f"rounds {len(rounds)}, set-ups {len(setups)}, digest {rounds[0].digest[:16]}")
    return metrics, measured, problems, notes


def report(workload, halves, trace: bool):
    """Metrics, attempted operations and problems of a run's two halves."""
    from perfbench import spans

    name = workload.name
    scaled = scaled_keys(workload)
    first, second = halves
    untraced = halves if not trace else [first]
    rounds = [r for h in untraced for r in h.rounds]
    best = untraced[0].best if len(untraced) == 1 else first.best.merge(second.best)
    setups = [x for h in untraced for x in h.setups]
    rss_mb = max(h.rss_mb for h in untraced)
    metrics, measured, problems, notes = summarize(rounds, best, setups, rss_mb, scaled)
    print(f"== {name}  seed {workload.seed}  {'untraced' if not trace else 'untraced half'}")
    for note in notes:
        print(f"   {note}")
    for key, value in metrics.items():
        alias = ALIASES[name].get(key)
        extra = f"   ({alias[0]} = {value * alias[1]:.4f} {alias[2]})" if alias else ""
        raw = f" [{measured[key]:12.4f}]" if key in scaled else ""
        print(f"   {key:<20} {value:14.4f}{raw} {E2E_UNITS[key]:<4}{extra}")
    attempted = sum(r.attempted for h in halves for r in h.rounds)
    if not trace:
        return metrics, attempted, problems

    traced = second.rounds
    t_metrics, _, t_problems, _ = summarize(traced, second.best, second.setups, second.rss_mb, scaled)
    problems += t_problems
    if rounds[0].digest != traced[0].digest:
        problems.append("traced rounds (PYTHONHASHSEED %s) left a different store digest than "
                        "untraced ones (PYTHONHASHSEED %s)" % (HASH_SEEDS[1], HASH_SEEDS[0]))
    totals = spans.LayerTotals()
    for r in traced:
        totals.add(r.totals)
    frames = sum(r.frames for r in traced)
    reads = sum(r.reads for r in traced)
    accepted = sum(r.accepted for r in traced)
    layer = spans.layer_metrics(totals, frames=frames, reads=reads, accepted=accepted, http=workload.http)
    recover_ns = [d for r in traced for d in r.recover_ns]
    layer["store.recover_s"] = statistics.median(recover_ns) / 1e9
    layer["host.ref_slice_us"] = second.best.metrics()["ref_slice_us"]
    # both halves at the reference speed where frames are scaled, so a change
    # of host speed between them is not counted as overhead
    layer["trace.overhead_pct"] = (metrics["frames_per_s"] / t_metrics["frames_per_s"] - 1.0) * 100.0
    problems += _check_invariants(workload, traced, totals)
    # layer shares compare traced times with the untraced ones at the host
    # speed of the traced half
    base = metrics | at_speed(metrics, layer["host.ref_slice_us"] / REF_SLICE_US, scaled)
    _report_layers(name, layer, base, totals, traced)
    _write_report(name, workload.seed, layer, metrics)
    return layer, attempted, problems


def _print_problems(problems) -> None:
    for p in problems[:20]:
        print(f"   MISMATCH {p}")


def _check_invariants(workload, traced, totals) -> list[str]:
    """Counts that must repeat exactly: rejects by reason, recovered records."""
    from perfbench import inputs

    problems = []
    want = {k: v * len(traced) for k, v in inputs.injected_counts(getattr(workload, "ops", ())).items()}
    got = {k: totals.tag_counts[("telemetry.validate", k)] for k in want}
    if got != want:
        problems.append(f"telemetry.rejects {got} != injected {want}")
    others = {k[1]: v for k, v in totals.tag_counts.items() if k[0] == "telemetry.validate" and k[1] not in want}
    if others:
        problems.append(f"unexpected rejects {others}")
    events = {r.totals.tag_sum[("rules.observe", "frame")] for r in traced}
    if len(events) != 1:
        problems.append(f"rules.events differ between rounds of one seed: {sorted(events)}")
    seeded = sum(len(v) for v in workload.accepted_before.values())
    for r in traced:
        if r.records_recovered != seeded:
            problems.append(f"recovered {r.records_recovered} records, seeded {seeded}")
    return problems


# Per-layer times that are per read or per call rather than per frame.
PER_READ = {"service.rolling_icca_read_self_us", "service.http_overhead_read_us"}
PER_CALL = {"service.read_icca_us", "service.read_overview_us",
            "service.read_history_us", "store.query_range_us", "host.ref_slice_us"}


def _report_layers(name, layer, metrics, totals, traced) -> None:
    from perfbench.spans import PER_LAYER

    frames = sum(r.frames for r in traced)
    if name == "replay-month":
        base, base_name = 1e6 / metrics["frames_per_s"], "untraced wall time per frame"
    else:
        base, base_name = metrics["frame_p50_us"], "untraced frame_p50_us"
    read_base = metrics["read_p50_us"]
    print(f"== {name}  traced half: per-layer metrics (share of {base_name} = {base:.1f} us;"
          f" per-read share of untraced read_p50_us = {read_base:.1f} us; both at the"
          f" traced half's host speed)")
    for key, unit in PER_LAYER.items():
        value = layer[key]
        share = ""
        if key in PER_READ:
            share = f"{100 * value / read_base:6.1f} % of read"
        elif unit == "us" and key not in PER_CALL:
            share = f"{100 * value / base:6.1f} %"
        print(f"   {key:<36} {value:14.4f} {unit:<6} {share}")
    rejects = {k[1]: v for k, v in totals.tag_counts.items() if k[0] == "telemetry.validate"}
    events = sum(totals.tag_sum[("rules.observe", c)] for c in ("frame", "read"))
    print(f"   telemetry.rejects per round {dict((k, v / len(traced)) for k, v in sorted(rejects.items()))}")
    print(f"   rules.events per round {events / len(traced):g}; "
          f"store.records_recovered {traced[0].records_recovered}; frames traced {frames}")
    print(f"   tracing overhead {layer['trace.overhead_pct']:.1f} % of untraced frames_per_s")
    for line in _predictions(name, layer, metrics, base):
        print(f"   prediction: {line}")


def _predictions(name, layer, metrics, base) -> list[str]:
    """The predictions, from an earlier profile, that the workloads were chosen on."""
    def verdict(ok):
        return "holds" if ok else "does NOT hold"

    out = []
    sim_share = layer["sim.cycle_self_us"] + layer["sensor.codec_us"]
    if name == "http-demo":
        share = layer["service.http_overhead_us"] / metrics["frame_p50_us"]
        out.append(f"HTTP overhead is most of post_p50: {layer['service.http_overhead_us']:.1f} us of "
                   f"{metrics['frame_p50_us']:.1f} us ({100 * share:.1f} %) -> {verdict(share > 0.5)}")
    if name == "ingest-dense":
        self_times = {
            "rolling window (service.rolling_icca self + icca.rolling_average)":
                layer["service.rolling_icca_self_us"] + layer["icca.rolling_average_us"],
            "store.token_registry": layer["store.token_registry_us"],
            "service.ingest self": layer["service.ingest_self_us"],
            "telemetry.validate": layer["telemetry.validate_us"],
            "store.append self": layer["store.append_self_us"],
            "store.fsync": layer["store.fsync_us"],
            "icca.overall_icca": layer["icca.overall_icca_us"],
            "rules.observe": layer["rules.observe_us"],
        }
        ranked = sorted(self_times.items(), key=lambda kv: -kv[1])
        top = {k for k, _ in ranked[:2]}
        ok = top == {"rolling window (service.rolling_icca self + icca.rolling_average)", "store.token_registry"}
        listing = ", ".join(f"{k} {v:.1f} us ({100 * v / base:.0f} %)" for k, v in ranked[:4])
        out.append(f"rolling window and token_registry are the two largest self times: {listing} "
                   f"-> {verdict(ok)}")
    if name == "replay-month":
        out.append(f"sim.cycle_self + sensor.codec is a large share: {sim_share:.1f} us of "
                   f"{base:.1f} us per frame ({100 * sim_share / base:.1f} %) -> {verdict(sim_share / base >= 0.25)}")
    else:
        out.append(f"sim and sensor absent on {name}: {sim_share:.3f} us -> {verdict(sim_share == 0)}")
    return out


def _write_spans(name, rows) -> None:
    """The spans of one traced round, one file per workload."""
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"trace-{name}.tsv", "w") as fh:
        fh.write("span_id\tparent_id\trequest_id\tname\tstart_ns\tend_ns\ttag\n")
        for row in rows:
            fh.write("\t".join("" if v is None else str(v) for v in row) + "\n")


def _write_report(name, seed, layer, metrics) -> None:
    (WORK / f"trace-{name}.json").write_text(
        json.dumps({"seed": seed, "untraced": metrics, "per_layer": layer}, indent=2) + "\n")


# -- child processes ------------------------------------------------------------


@dataclass
class Half:
    """What one child measured: its rounds (without samples), fastest times,
    set-up times and peak resident memory."""

    rounds: list
    best: BestTimes
    setups: list
    rss_mb: float


def child_main(argv) -> int:
    """``--child DIR INDEX SECONDS TRACED BUDGET``: measure the workload
    pickled in DIR and pickle a Half to DIR/half-INDEX.pickle."""
    wdir, index, seconds, traced, budget = Path(argv[0]), argv[1], float(argv[2]), argv[3] == "1", float(argv[4])
    _import_package()
    from perfbench import spans

    with open(wdir / "workload.pickle", "rb") as fh:
        workload = pickle.load(fh)
    recorder = spans.Recorder() if traced else None
    run_dir = wdir / f"half-{index}"
    rounds, best = measure(workload, seconds, run_dir, time.perf_counter() + budget, recorder)
    setups = [r.setup_s for r in rounds]
    while not traced and len(setups) < MIN_SETUPS // 2:
        setups.append(workload.setup_only(run_dir / "setup-only"))
    if traced:
        _write_spans(workload.name, rounds[-1].rows)
        rounds[-1].rows = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(wdir / f"half-{index}.pickle", "wb") as fh:
        pickle.dump(Half(rounds, best, setups, rss_mb), fh)
    return 0


def _spawn(wdir: Path, index: int, seconds: float, traced: bool, deadline: float) -> Half:
    """Run one half in a child, with its own hash seed, killed at the deadline."""
    budget = deadline - time.perf_counter()
    if budget <= 0:
        raise RuntimeError(f"no time left to start half {index} of {wdir.name}")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEEDS[index])
    sys.stdout.flush()
    args = [sys.executable, str(Path(__file__).resolve()), "--child", str(wdir), str(index),
            str(seconds), "1" if traced else "0", str(budget)]
    proc = subprocess.run(args, env=env, cwd=ROOT, timeout=budget + 20)
    if proc.returncode != 0:
        raise RuntimeError(f"half {index} of {wdir.name} exited with {proc.returncode}")
    with open(wdir / f"half-{index}.pickle", "rb") as fh:
        return pickle.load(fh)


def run_one(name: str, seed: int, seconds: float, trace: bool, wdir: Path, deadline: float):
    """Prepare the inputs here, then measure each half of the time in a child.

    With ``trace`` the second half is traced; otherwise both halves count.
    """
    from perfbench.workloads import WORKLOADS

    cfg = json.loads(CONFIG.read_text())
    workload = WORKLOADS[name](name, cfg["workloads"][name], ROOT / cfg["rules"], ROOT, seed)
    wdir.mkdir(parents=True)
    workload.prepare(wdir)
    with open(wdir / "workload.pickle", "wb") as fh:
        pickle.dump(workload, fh)
    halves = [_spawn(wdir, i, seconds / 2, trace and i == 1, deadline) for i in (0, 1)]
    metrics, attempted, problems = report(workload, halves, trace)
    if not trace:
        error_rate = min(len(problems), attempted) / attempted
        print(f"   {'error_rate':<20} {error_rate:14.6f}      ({len(problems)} of {attempted} operations)")
    _print_problems(problems)
    return metrics, attempted, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not CONFIG.is_file():
        _fail(f"missing {CONFIG}")
    _import_package()
    from perfbench.spans import PER_LAYER

    cfg = json.loads(CONFIG.read_text())
    for rel in [cfg["rules"]] + [w["fleet"] for w in cfg["workloads"].values()]:
        if not (ROOT / rel).is_file():
            _fail(f"missing input {rel} under {ROOT}")
    names = list(cfg["workloads"]) if args.workload == "all" else [args.workload]
    for n in names:
        if n not in cfg["workloads"]:
            _fail(f"unknown workload {n!r}; choose from {sorted(cfg['workloads'])} or 'all'")

    # on SIGTERM, unwind as on an error: subprocess.run kills and waits for
    # the running child, and the run's directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    deadline = time.perf_counter() + DEADLINE_S
    out_metrics: dict = {}
    attempted = 0
    problems: list[str] = []
    try:
        for n in names:
            metrics, a, p = run_one(n, args.seed, args.seconds, bool(args.trace), run_dir / n, deadline)
            attempted += a
            problems += p
            units = PER_LAYER if args.trace else E2E_UNITS
            for key, value in metrics.items():
                out_key = key if len(names) == 1 else f"{n}.{key}"
                out_metrics[out_key] = {"value": value, "unit": units[key]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = min(len(problems), attempted)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    # run as perfbench.run, so that what the children pickle names that module
    sys.path.insert(0, str(ROOT))
    from perfbench import run

    sys.exit(run.main())
