"""The three workloads, each run as repeated identical rounds.

A round copies the seeded template data directory, sets the service up
(timed as set-up), runs the workload's fixed operations (timed), then runs
the output checks (untimed) and digests the store. Every round of one seed
sends the same bytes, so every round must leave the same digest.

Closed loop throughout: one thread sends an operation and waits for its
answer before sending the next. ``http-demo`` uses at most two keep-alive
connections, one for POSTs and one for GETs, with one request in flight.
"""

from __future__ import annotations

import gc
import http.client
import json
import shutil
import socket
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from iccamon import sim
from iccamon.service import HttpServer, ServerConfig, build_service
from iccamon.telemetry import parse_frame

from . import checks, inputs
from .spans import OP_FRAME, OP_READ

DAY_S = 86400

# Data of the reference slice: a day of one-minute samples and a registry.
_REF_SAMPLES = [(i * 60, float(i % 97)) for i in range(1440)]
_REF_REGISTRY = {f"ref-{i:04d}": f"token-{i}" for i in range(500)}


def reference_slice() -> int:
    """Time, in ns, of a fixed piece of pure-Python work shaped like the
    service's hot loops: filter a day's window, average it, copy a registry,
    encode a small JSON body. It calls nothing from the package, so its time
    moves only with the speed of the host and the interpreter."""
    t0 = time.perf_counter_ns()
    window = [v for ts, v in _REF_SAMPLES if ts >= 21600]
    mean = sum(window) / len(window)
    registry = {k: v for k, v in _REF_REGISTRY.items()}
    json.dumps({"mean": mean, "stations": len(registry)})
    return time.perf_counter_ns() - t0


@dataclass
class RoundResult:
    """What one round measured and found; the span fields are set when traced."""

    setup_s: float
    records_recovered: int = 0
    frame_ns: list[int] = field(default_factory=list)
    read_ns: list[int] = field(default_factory=list)
    # per frame: time since the previous frame, read or reference slice ended
    # (the loop, the simulator on replay-month)
    gap_ns: list[int] = field(default_factory=list)
    # reference slices run between operations (see reference_slice)
    ref_ns: list[int] = field(default_factory=list)
    frame_phase_s: float = 0.0
    accepted: int = 0
    station_days: float = 0.0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    spans: list | None = None
    totals: object = None
    rows: list | None = None
    recover_ns: list[int] = field(default_factory=list)

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{what}: got {got!r}, expected {want!r}")


@dataclass
class Setup:
    service: object
    store: object
    server: HttpServer | None = None


class Workload:
    """Shared round mechanics; subclasses supply inputs and the timed part."""

    http = False

    def __init__(self, name: str, cfg: dict, rules_path: Path, root: Path, seed: int):
        self.name = name
        self.cfg = cfg
        self.rules_path = rules_path
        self.root = root
        self.seed = seed
        self.template: Path | None = None
        self.accepted_before: dict[str, list] = {}
        self.reads: list[tuple] = []
        self._history_counts: dict[tuple, int] = {}

    # -- preparation (untimed, outside set-up) --------------------------------

    def prepare(self, work_dir: Path) -> None:
        raise NotImplementedError

    def _prepare_seeded(self, work_dir: Path, shares: dict, registered: int | None = None) -> None:
        """Seed the template with ``seed_days`` of fleet frames; the next
        ``round_frames`` frames, with rejects injected, are the round's ops."""
        cfg = self.cfg
        members, start_ts = inputs.load_fleet(self.root / cfg["fleet"], cfg.get("report_period_s"))
        seed_end = start_ts + cfg["seed_days"] * DAY_S
        period = max(m.station.report_period_s for m in members)
        n = cfg["round_frames"]
        horizon = seed_end - start_ts + period * (n // len(members) + 2)
        frames = inputs.fleet_frames(members, start_ts, horizon, self.seed)
        seeded = [f for f in frames if f.ts < seed_end]
        self.ops = inputs.inject_rejects([f for f in frames if f.ts >= seed_end][:n], shares, self.seed)
        stations = [m.station for m in members]
        ids = [s.station_id for s in stations]
        fillers = inputs.filler_stations((registered or 0) - len(stations), start_ts, self.seed)
        self.template = work_dir / "template"
        inputs.build_template(self.template, stations + fillers, seeded)
        self.period_of = {s.station_id: s.report_period_s for s in stations}
        # silent registered stations must answer /icca with "no data"
        self.accepted_before = {sid: [] for sid in ids + [f.station_id for f in fillers[:2]]}
        for f in seeded:
            self.accepted_before[f.station_id].append(f)
        self.reads = self._read_mix(ids, (start_ts, seed_end - 1), cfg.get("reads_per_round", n))

    @staticmethod
    def _read_mix(station_ids, history_range, count: int) -> list[tuple]:
        """``count`` reads in cycles of five: /icca of one station, /history
        over ``history_range`` of three, one /overview.

        At the seed commit /icca is the cheapest kind and /overview the
        dearest on every workload, so with /history three fifths of the mix
        the median read falls in the middle of the /history reads, and the
        p90 or p95 tail inside the /overview reads, rather than on an edge
        between two kinds. The mix and the read rates are the benchmark's
        assumption, not measured traffic; a run prints the share of its
        time spent in reads.
        """
        t0, t1 = history_range
        mix = []
        i = 0
        while len(mix) < count:
            sid = [station_ids[(i + k) % len(station_ids)] for k in range(4)]
            mix += [("icca", sid[0]), ("history", sid[1], t0, t1), ("history", sid[2], t0, t1),
                    ("history", sid[3], t0, t1), ("overview",)]
            i += 1
        return mix[:count]

    # -- set-up -------------------------------------------------------------

    def setup(self, data_dir: Path) -> tuple[Setup, float]:
        shutil.copytree(self.template, data_dir)
        config = ServerConfig(data_dir=str(data_dir), rules_path=str(self.rules_path),
                              alert_source="rolling")
        t0 = time.perf_counter()
        service, store = build_service(config)
        server = None
        if self.http:
            server = HttpServer(service, "127.0.0.1", 0)
            server.start()
        return Setup(service, store, server), time.perf_counter() - t0

    @staticmethod
    def teardown(s: Setup) -> None:
        if s.server is not None:
            s.server.shutdown()
        s.store.close()

    def setup_only(self, data_dir: Path) -> float:
        gc.collect()
        s, elapsed = self.setup(data_dir)
        self.teardown(s)
        shutil.rmtree(data_dir)
        return elapsed

    # -- one round ------------------------------------------------------------

    def run_round(self, data_dir: Path, recorder=None) -> RoundResult:
        # every round starts from the same collector state, so the program's
        # own collections fall at the same points in every round
        gc.collect()
        try:
            if recorder is not None:
                recorder.install()
            try:
                s, setup_s = self.setup(data_dir)
                result = RoundResult(setup_s=setup_s)
                result.records_recovered = sum(s.store.count(sid) for sid in s.store.station_ids())
                self.timed(s, result, recorder)
            finally:
                if recorder is not None:
                    recorder.uninstall()
            if recorder is not None:
                result.spans = recorder.take()
            icca_bodies = self.final_icca(s)
            self.teardown(s)
            result.problems += checks.check_stations(
                s.store, self.accepted_after(result), icca_bodies,
                s.service.window_s, s.service.coverage_min)
            result.digest = checks.store_digest(data_dir)
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
        return result

    def timed(self, s: Setup, result: RoundResult, recorder) -> None:
        raise NotImplementedError

    def accepted_after(self, result: RoundResult) -> dict[str, list]:
        """Accepted frames per station after the round: seeded ones, then ours."""
        out = {sid: list(frames) for sid, frames in self.accepted_before.items()}
        for op in self.ops:
            if op.expect == inputs.ACCEPTED:
                out[op.frame.station_id].append(op.frame)
                result.accepted += 1
                result.station_days += self.period_of[op.frame.station_id] / DAY_S
        return out

    def final_icca(self, s: Setup) -> dict:
        return {sid: s.service.icca_payload(sid) for sid in self.accepted_before}

    @staticmethod
    def _ref(result: RoundResult) -> int:
        """One reference slice between operations; returns the clock at its end."""
        result.ref_ns.append(reference_slice())
        return time.perf_counter_ns()

    def _read(self, s: Setup, result: RoundResult, recorder, read) -> int:
        """One timed in-process read from the mix, beside the frames; returns
        the clock at its end."""
        svc = s.service
        span = recorder.span(f"{OP_READ}.{read[0]}") if recorder else nullcontext()
        t0 = time.perf_counter_ns()
        with span:
            if read[0] == "icca":
                body = svc.icca_payload(read[1])
            elif read[0] == "history":
                body = svc.history_payload(read[1], read[2], read[3])
            else:
                body = svc.overview_payload()
        end = time.perf_counter_ns()
        result.read_ns.append(end - t0)
        result.attempted += 1
        if read[0] == "history":
            result.expect(f"history count {read[1]}", body["count"], self.history_count(read))
        return end

    def history_count(self, read) -> int:
        """Seeded records of the station in the read's range (fixed per round)."""
        if read not in self._history_counts:
            _, sid, t0, t1 = read
            self._history_counts[read] = sum(1 for f in self.accepted_before[sid] if t0 <= f.ts <= t1)
        return self._history_counts[read]


class HttpDemo(Workload):
    """Five demo stations POSTing through the real HttpServer, reads beside."""

    http = True

    def prepare(self, work_dir: Path) -> None:
        self._prepare_seeded(work_dir, {})

    @staticmethod
    def _path(read) -> str:
        if read[0] == "icca":
            return f"/v1/stations/{read[1]}/icca"
        if read[0] == "history":
            return f"/v1/stations/{read[1]}/history?from={read[2]}&to={read[3]}"
        return "/v1/overview"

    def timed(self, s: Setup, result: RoundResult, recorder) -> None:
        port = s.server.port
        self._post = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self._get = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        for conn in (self._post, self._get):
            conn.connect()
            # like urllib3, so a stall seen here is the server's, not the client's
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        headers = {"Content-Type": "application/json"}
        clock = time.perf_counter_ns
        ref_every = self.cfg["ref_every"]
        start = time.perf_counter()
        prev = clock()
        for i, op in enumerate(self.ops):
            span = recorder.span(OP_FRAME) if recorder else nullcontext()
            t0 = clock()
            with span:
                self._post.request("POST", "/v1/telemetry", body=op.text.encode(), headers=headers)
                resp = self._post.getresponse()
                resp.read()
            result.gap_ns.append(t0 - prev)
            result.frame_ns.append(clock() - t0)
            result.expect(f"POST {op.kind} seq {op.frame.seq}", resp.status, op.expect)

            read = self.reads[i % len(self.reads)]
            span = recorder.span(f"{OP_READ}.{read[0]}") if recorder else nullcontext()
            t0 = clock()
            with span:
                self._get.request("GET", self._path(read))
                resp = self._get.getresponse()
                body = resp.read()
            end = clock()
            result.read_ns.append(end - t0)
            prev = self._ref(result) if i % ref_every == 0 else end
            result.expect(f"GET {self._path(read)}", resp.status, 200)
            if read[0] == "history" and resp.status == 200:
                result.expect(f"history count {read[1]}", json.loads(body)["count"],
                              self.history_count(read))
        result.frame_phase_s = time.perf_counter() - start - (sum(result.read_ns) + sum(result.ref_ns)) / 1e9
        result.attempted += 2 * len(self.ops)

    def final_icca(self, s: Setup) -> dict:
        bodies = {}
        try:
            for sid in self.accepted_before:
                self._get.request("GET", f"/v1/stations/{sid}/icca")
                bodies[sid] = json.loads(self._get.getresponse().read())
        finally:
            self._post.close()
            self._get.close()
        return bodies


class IngestDense(Workload):
    """In-process ingest into a 2,000-station registry, 60 s cadence, rejects mixed in."""

    def prepare(self, work_dir: Path) -> None:
        self._prepare_seeded(work_dir, self.cfg["reject_shares"], self.cfg["registered_stations"])

    def timed(self, s: Setup, result: RoundResult, recorder) -> None:
        ingest = s.service.ingest
        clock = time.perf_counter_ns
        statuses = []
        # spread the reads over the frames, so they sample the whole round
        read_every = len(self.ops) // len(self.reads)
        ref_every = self.cfg["ref_every"]
        reads = iter(self.reads)
        start = time.perf_counter()
        prev = clock()
        for i, op in enumerate(self.ops, 1):
            span = recorder.span(OP_FRAME) if recorder else nullcontext()
            t0 = clock()
            with span:
                status, _ = ingest(op.text)
            end = clock()
            result.gap_ns.append(t0 - prev)
            result.frame_ns.append(end - t0)
            prev = end
            statuses.append(status)
            if i % ref_every == 0:
                prev = self._ref(result)
            if i % read_every == 0 and (read := next(reads, None)) is not None:
                prev = self._read(s, result, recorder, read)
        result.frame_phase_s = time.perf_counter() - start - (sum(result.read_ns) + sum(result.ref_ns)) / 1e9
        result.attempted += len(self.ops)
        for op, status in zip(self.ops, statuses):
            result.expect(f"ingest {op.kind} {op.frame.station_id} seq {op.frame.seq}", status, op.expect)


class ReplayMonth(Workload):
    """The simulated fleet replayed through sim -> MonitorService.ingest."""

    def prepare(self, work_dir: Path) -> None:
        self.members, self.start_ts = inputs.load_fleet(self.root / self.cfg["fleet"])
        self.horizon = self.cfg["days"] * DAY_S
        self.template = work_dir / "template"
        inputs.build_template(self.template, [m.station for m in self.members], [])
        ids = [m.station.station_id for m in self.members]
        self.accepted_before = {sid: [] for sid in ids}
        self.reads = self._read_mix(ids, (self.start_ts, self.start_ts + DAY_S - 1),
                                    self.cfg["reads_per_round"])
        self.period_of = {m.station.station_id: m.station.report_period_s for m in self.members}
        self._sent: list[tuple[str, int]] = []
        self._delivered: dict[str, int] = {}

    def history_count(self, read) -> int:
        """Records of the first day stored so far: a station's frames arrive in
        ts order, one per period from the start."""
        _, sid, t0, t1 = read
        period = self.period_of[sid]
        first = max(0, -(-(t0 - self.start_ts) // period))
        last = min(self._delivered[sid] - 1, (t1 - self.start_ts) // period)
        return max(0, last - first + 1)

    def timed(self, s: Setup, result: RoundResult, recorder) -> None:
        ingest = s.service.ingest
        clock = time.perf_counter_ns
        sent = self._sent = []
        delivered = self._delivered = dict.fromkeys(self.period_of, 0)
        frame_ns, gap_ns = result.frame_ns, result.gap_ns
        prev = 0
        read_every = self.cfg["days"] * sum(DAY_S // p for p in self.period_of.values()) // len(self.reads)
        ref_every = self.cfg["ref_every"]
        reads = iter(self.reads)

        def deliver(text: str) -> int:
            nonlocal prev
            span = recorder.span(OP_FRAME) if recorder else nullcontext()
            t0 = clock()
            with span:
                status, _ = ingest(text)
            end = clock()
            gap_ns.append(t0 - prev)
            frame_ns.append(end - t0)
            prev = end
            sent.append((text, status))
            if status == inputs.ACCEPTED:
                # serialize() writes station_id first: {"station_id":"<id>",...
                delivered[text[15:text.index('"', 15)]] += 1
            if len(sent) % ref_every == 0:
                prev = self._ref(result)
            if len(sent) % read_every == 0 and (read := next(reads, None)) is not None:
                prev = self._read(s, result, recorder, read)
            return status

        start = time.perf_counter()
        prev = clock()
        report = sim.run_fleet(self.members, self.horizon, sim.CallableTransport(deliver),
                               seed=self.seed, start_ts=self.start_ts)
        result.frame_phase_s = time.perf_counter() - start - (sum(result.read_ns) + sum(result.ref_ns)) / 1e9
        result.attempted += len(sent)
        totals = report.to_json_obj()["totals"]
        result.expect("fleet buffered+dropped+failed", (totals["buffered"], totals["dropped"],
                      totals["failed_attempts"]), (0, 0, 0))
        result.expect("fleet delivered", totals["delivered"], len(sent))
        for text, status in sent:
            if status != inputs.ACCEPTED:
                result.expect(f"replay ingest {text[:60]}", status, inputs.ACCEPTED)

    def accepted_after(self, result: RoundResult) -> dict[str, list]:
        out = {sid: [] for sid in self.accepted_before}
        for text, status in self._sent:
            if status == inputs.ACCEPTED:
                frame = parse_frame(text)
                out[frame.station_id].append(frame)
                result.accepted += 1
                result.station_days += self.period_of[frame.station_id] / DAY_S
        return out


WORKLOADS = {"http-demo": HttpDemo, "ingest-dense": IngestDense, "replay-month": ReplayMonth}
