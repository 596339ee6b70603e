"""Operator command line.

    iccamon serve    --config server.json
    iccamon simulate --scenario fleet.json --duration 24 --seed 7 --offline out.ndjson
    iccamon replay   --config server.json [--data-dir D] out.ndjson
    iccamon icca     --pm25 27.85 --pm10 80
    iccamon report   --server http://127.0.0.1:8321 --window 24h

Exit codes: 0 success (a simulation with delivery failures still counts;
a replay where every frame got 202 or 409), 1 runtime failure (a replayed
frame rejected otherwise), 2 usage, config, storage or I/O error (a data
directory the store cannot open, a port in use, an unreadable frames file,
an output file that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import re
import signal
import sys
import threading
from pathlib import Path

import requests

from . import icca, service as service_mod, sim
from .icca import WindowAverage
from .sensor import dump_pm_frame
from .store import StorageError

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_WINDOW_RE = re.compile(r"^(\d+)([smh]?)$")
_WINDOW_UNIT_S = {"": 1, "s": 1, "m": 60, "h": 3600}


def parse_window(text: str) -> int:
    m = _WINDOW_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad window {text!r} (use e.g. 24h, 90m, 3600s)")
    window_s = int(m.group(1)) * _WINDOW_UNIT_S[m.group(2)]
    if window_s == 0:
        raise ValueError(f"window must be positive, got {text!r}")
    return window_s


def _use_color() -> bool:
    return sys.stdout.isatty()


_ANSI = {
    "green": "\x1b[32m", "yellow": "\x1b[33m", "orange": "\x1b[38;5;208m",
    "red": "\x1b[31m", "purple": "\x1b[35m", "maroon": "\x1b[38;5;88m",
}


def _colored(text: str, color: str) -> str:
    if _use_color() and color in _ANSI:
        return f"{_ANSI[color]}{text}\x1b[0m"
    return text


# -- serve ---------------------------------------------------------------------


def _open_service(args):
    """(config, service) from --config, with --data-dir overriding the
    config's data_dir; None, after printing why, when either is unusable."""
    try:
        config = service_mod.load_server_config(args.config)
        if args.data_dir:
            config.data_dir = args.data_dir
        svc, _ = service_mod.build_service(config)
    except StorageError as exc:
        print(f"storage error: {exc}", file=sys.stderr)
        return None
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return None
    return config, svc


def cmd_serve(args) -> int:
    opened = _open_service(args)
    if opened is None:
        return EXIT_USAGE
    config, svc = opened

    server = service_mod.HttpServer(svc, config.host, config.port)
    print(f"serving on {server.url} (data_dir={config.data_dir})", flush=True)

    def _stop(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGINT, _stop)
        signal.signal(signal.SIGTERM, _stop)
        server.start()
        threading.Event().wait()  # until SIGINT or SIGTERM raises out of it
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        logging.shutdown()
    print("shut down cleanly")
    return EXIT_OK


# -- replay --------------------------------------------------------------------


def cmd_replay(args) -> int:
    opened = _open_service(args)
    if opened is None:
        return EXIT_USAGE
    _, svc = opened
    by_status: dict[str, int] = {}
    try:
        for line in sim.iter_offline_frames(args.frames):
            status = str(svc.ingest(line)[0])
            by_status[status] = by_status.get(status, 0) + 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"frames error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(dict(sorted(by_status.items()))))
    # 409 means the store already holds the frame, as for a station's resend
    return EXIT_OK if set(by_status) <= {"202", "409"} else EXIT_RUNTIME


# -- simulate ------------------------------------------------------------------


def cmd_simulate(args) -> int:
    try:
        members, start_ts = sim.load_fleet_config(args.scenario)
    except (OSError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= args.duration < math.inf:  # also refuses nan
        print(f"duration must be finite and >= 0, got {args.duration}", file=sys.stderr)
        return EXIT_USAGE

    if args.offline:
        transport = sim.OfflineFileTransport(args.offline)
    else:
        transport = sim.HttpTransport(args.server)
    try:
        report = sim.run_fleet(
            members,
            horizon_s=int(args.duration * 3600),
            transport=transport,
            seed=args.seed,
            start_ts=start_ts,
        )
    finally:
        transport.close()

    payload = report.to_json_obj()
    print(json.dumps(payload, indent=2))
    if args.report_json:
        Path(args.report_json).write_text(json.dumps(payload, indent=2) + "\n")
    # partial delivery is a valid outcome; failures are in the report
    return EXIT_OK


# -- icca ----------------------------------------------------------------------


def cmd_icca(args) -> int:
    if args.pm25 is None and args.pm10 is None:
        print("need --pm25 and/or --pm10", file=sys.stderr)
        return EXIT_USAGE

    def one_shot(value):
        if value is None:
            return None
        return WindowAverage(mean=value, sample_count=1, expected_count=1,
                             coverage=1.0, sufficient=True)

    try:
        result = icca.overall_icca(one_shot(args.pm25), one_shot(args.pm10))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    color = result.category.color
    line = f"{result.value} {result.category.name} ({_colored(color, color)})"
    if args.pm25 is not None and args.pm10 is not None:
        line += f" dominant={result.dominant.value}"
    if result.beyond_scale:
        line += " beyond-scale"
    print(line)
    return EXIT_OK


# -- dump-frame ------------------------------------------------------------


def cmd_dump_frame(args) -> int:
    text = args.hex.replace(" ", "").replace(":", "")
    try:
        data = bytes.fromhex(text)
    except ValueError:
        print("error: argument is not valid hex", file=sys.stderr)
        return EXIT_USAGE
    print(dump_pm_frame(data))
    return EXIT_OK


# -- report --------------------------------------------------------------------


def _fetch_json(url: str, timeout: float = 10.0):
    resp = requests.get(url, timeout=timeout)
    if resp.status_code != 200:
        raise RuntimeError(f"{url} -> {resp.status_code}: {resp.text.strip()}")
    return resp.json()


def cmd_report(args) -> int:
    base = args.server.rstrip("/")
    try:
        window_s = parse_window(args.window)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.station:
            station_ids = [args.station]
        else:
            station_ids = [s["station_id"] for s in _fetch_json(f"{base}/v1/stations")]
        rows = []
        for sid in station_ids:
            snap = _fetch_json(f"{base}/v1/stations/{sid}/icca?window_s={window_s}")
            rows.append(_report_row(sid, args.window, snap))
    except (requests.RequestException, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    _print_report(rows)
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2, ensure_ascii=False) + "\n")
    return EXIT_OK


def _report_row(station_id: str, window: str, snap: dict) -> dict:
    def mean_of(side):
        avg = snap.get(side)
        return avg["mean"] if avg else None

    entry = snap.get("icca")
    return {
        "station": station_id,
        "window": window,
        "pm25_mean": mean_of("pm25"),
        "pm10_mean": mean_of("pm10"),
        "icca": entry["value"] if entry else None,
        "category": entry["category"] if entry else None,
        "color": entry["color"] if entry else None,
        "coverage": snap.get("coverage", 0.0),
    }


def _print_report(rows: list[dict]) -> None:
    def fmt(v, spec=""):
        if v is None:
            return "-"
        return format(v, spec)

    width = max([len("station")] + [len(r["station"]) for r in rows])
    header = f"{'station':<{width}} {'window':>7} {'pm25':>8} {'pm10':>8} {'icca':>5}  " \
             f"{'category':<42} {'color':<8} {'cov':>5}"
    print(header)
    print("-" * len(header))
    for r in rows:
        color = r["color"] or "-"
        print(
            f"{r['station']:<{width}} {r['window']:>7} {fmt(r['pm25_mean'], '.1f'):>8} "
            f"{fmt(r['pm10_mean'], '.1f'):>8} {fmt(r['icca']):>5}  "
            f"{fmt(r['category']):<42} {_colored(color, color):<8} {r['coverage']:>5.2f}"
        )


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iccamon", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the ingestion/query server")
    p.add_argument("--config", required=True, help="server config JSON")
    p.add_argument("--data-dir", help="override the config's data_dir")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("replay", help="ingest an offline frame file, no HTTP")
    p.add_argument("--config", required=True, help="server config JSON")
    p.add_argument("--data-dir", help="override the config's data_dir")
    p.add_argument("frames", help="NDJSON frames written by simulate --offline")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("simulate", help="run a virtual station fleet")
    p.add_argument("--scenario", required=True, help="fleet scenario JSON")
    p.add_argument("--duration", type=float, required=True, help="simulated hours")
    p.add_argument("--seed", type=int, default=0)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--server", help="deliver frames to this server URL")
    target.add_argument("--offline", help="write frames to this NDJSON file")
    p.add_argument("--report-json", help="also write the run report here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("icca", help="one-shot index computation")
    p.add_argument("--pm25", type=float)
    p.add_argument("--pm10", type=float)
    p.set_defaults(func=cmd_icca)

    p = sub.add_parser("dump-frame", help="decode a hex sensor frame for debugging")
    p.add_argument("hex", help="frame bytes as hex (spaces/colons allowed)")
    p.set_defaults(func=cmd_dump_frame)

    p = sub.add_parser("report", help="per-station table from a running server")
    p.add_argument("--server", required=True)
    p.add_argument("--station", help="only this station")
    p.add_argument("--window", default="24h")
    p.add_argument("--json", help="also write rows as JSON here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except OSError as exc:  # a port in use, an output path in a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
