import contextlib
import http.client
import json
import math
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import pytest
import requests

from iccamon import cli
from iccamon.rules import load_rules_config
from iccamon.service import HttpServer, MonitorService, load_server_config
from iccamon.sim import CallableTransport, load_fleet_config, run_fleet
from iccamon.store import Measurement, NdjsonLog, StationRecord, TimeSeriesStore

from .helpers import log_data, register, stored

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err and "Traceback" not in err


class TestIccaCommand:
    @pytest.mark.parametrize(
        "argv,first_words",
        [
            (["icca", "--pm25", "15.3"], "50 Buena"),
            (["icca", "--pm25", "0"], "0 Buena"),
            (["icca", "--pm25", "27.85"], "75 Moderada"),
            (["icca", "--pm10", "604"], "500 Peligroso"),
        ],
    )
    def test_values(self, capsys, argv, first_words):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith(first_words)

    def test_both_pollutants_reports_dominant(self, capsys):
        assert cli.main(["icca", "--pm25", "10", "--pm10", "10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("33 Buena") and "dominant=pm25" in out

    def test_beyond_scale_marked(self, capsys):
        assert cli.main(["icca", "--pm25", "750"]) == 0
        assert "beyond-scale" in capsys.readouterr().out

    def test_negative_exits_2(self, capsys):
        assert cli.main(["icca", "--pm25", "-3"]) == 2

    def test_no_values_exits_2(self, capsys):
        assert cli.main(["icca"]) == 2
        assert_one_error_line(capsys)


class TestSimulateCommand:
    def test_offline_deterministic(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        for out in (out_a, out_b):
            code = cli.main([
                "simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                "--duration", "2", "--seed", "7", "--offline", str(out)])
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            assert report["totals"]["delivered"] == 5 * 6
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_zero_duration_empty_report(self, tmp_path, capsys):
        code = cli.main([
            "simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
            "--duration", "0", "--seed", "1", "--offline", str(tmp_path / "o.ndjson")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["totals"]["generated"] == 0

    def test_report_json_written(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                  "--duration", "1", "--seed", "2",
                  "--offline", str(tmp_path / "o.ndjson"), "--report-json", str(path)])
        on_disk = json.loads(path.read_text())
        printed = json.loads(capsys.readouterr().out)
        assert on_disk == printed

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert cli.main(["simulate", "--scenario", str(bad), "--duration", "1",
                         "--offline", str(tmp_path / "o.ndjson")]) == 2

    @pytest.mark.parametrize("mutate", [
        lambda obj: obj["stations"][0].update(lat=None),
        lambda obj: obj["stations"][0]["scenario"].update(bogus=1),
        lambda obj: [obj],
        lambda obj: obj.update(report_perod_s=60),
        lambda obj: obj["stations"][0].update(report_perod_s=60),
        lambda obj: obj["stations"][0]["scenario"]["rain"][0].update(start_s=0),
        lambda obj: obj["stations"][0].update(token=12345),
        lambda obj: obj["stations"][0].update(lat=True),
        lambda obj: obj["stations"][0].update(report_period_s=1200.9),
        lambda obj: obj["stations"][0].update(station_id="San Salvador"),
        lambda obj: obj["stations"][0]["scenario"].update(peak_morning_h="8"),
        lambda obj: obj["stations"][0]["scenario"].update(base_pm25=math.nan),
        lambda obj: obj["stations"][0]["scenario"].update(base_pm25=math.inf),
        lambda obj: obj["stations"][0]["scenario"].update(base_pm25=10**400),
        # two nodes of one id share an RNG stream and a seq space: every frame
        # of the copy would be a duplicate, and its 409 count as delivered
        lambda obj: obj["stations"].append({**obj["stations"][0], "display_name": "copy"}),
    ], ids=["null-lat", "unknown-scenario-key", "top-level-list", "unknown-top-level-key",
            "unknown-station-key", "unknown-rain-key", "numeric-token", "bool-lat",
            "fractional-period", "id-off-the-wire", "string-scenario-number",
            "nan-scenario-number", "infinite-scenario-number", "huge-scenario-number",
            "repeated-station-id"])
    def test_bad_scenario_entry_exits_2(self, tmp_path, capsys, mutate):
        obj = json.loads((CONFIGS / "fleet_demo.json").read_text())
        obj = mutate(obj) or obj
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert cli.main(["simulate", "--scenario", str(bad), "--duration", "1",
                         "--offline", str(tmp_path / "o.ndjson")]) == 2
        err = capsys.readouterr().err
        assert "scenario error:" in err and "bad.json" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o.ndjson").exists()

    # 1e12 hours is finite, but its frames would fill the disk before the run ends
    @pytest.mark.parametrize("hours", ["nan", "inf", "-1", "1e12"])
    def test_duration_not_finite_or_negative_exits_2(self, tmp_path, capsys, hours):
        out = tmp_path / "o.ndjson"
        assert cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                         "--duration", hours, "--offline", str(out)]) == 2
        err = capsys.readouterr().err
        assert "duration must be" in err and "error:" in err and err.count("\n") == 1
        assert not out.exists()

    def test_duration_whose_seconds_overflow_exits_2(self, tmp_path, capsys):
        # 1e306 hours is above the ten-year cap: refused before the output opens
        out = tmp_path / "o.ndjson"
        assert cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                         "--duration", "1e306", "--offline", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "duration must be" in err and "1e+306" in err
        assert not out.exists()

    def test_unreachable_server_still_exits_0(self, capsys):
        code = cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                         "--duration", "1", "--seed", "1",
                         "--server", "http://127.0.0.1:1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["totals"]["delivered"] == 0
        assert report["totals"]["buffered"] == report["totals"]["generated"] == 15

    def test_server_without_scheme_buffers_every_frame(self, capsys):
        code = cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                         "--duration", "1", "--seed", "1", "--server", "localhost"])
        assert code == 0
        totals = json.loads(capsys.readouterr().out)["totals"]
        assert totals["delivered"] == 0
        assert totals["buffered"] == totals["generated"] == 15

    def test_live_server_takes_every_frame_then_each_resend_as_duplicate(self, tmp_path, capsys):
        members, _ = load_fleet_config(CONFIGS / "fleet_demo.json")
        store = TimeSeriesStore(register(tmp_path / "data", *(m.station for m in members)),
                                fsync=False)
        service = MonitorService(store)
        statuses = []
        ingest = service.ingest

        def recording_ingest(text):
            result = ingest(text)
            statuses.append(result[0])
            return result

        service.ingest = recording_ingest
        server = HttpServer(service, port=0)
        connections = []
        admit = server._admit
        server._admit = lambda sock: (connections.append(sock), admit(sock))
        server.start()
        try:
            for expected in (202, 409):  # the second, identical run resends every frame
                assert cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                                 "--duration", "1", "--seed", "1", "--server", server.url]) == 0
                totals = json.loads(capsys.readouterr().out)["totals"]
                assert totals["delivered"] == totals["generated"] == 15
                assert statuses == [expected] * 15
                statuses.clear()
        finally:
            server.shutdown()
        assert [store.count(sid) for sid in store.station_ids()] == [3] * 5
        assert len(connections) == 2  # each run's frames share one keep-alive connection

    def test_offline_file_in_missing_directory_exits_2(self, tmp_path, capsys):
        assert cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                         "--duration", "1", "--offline", str(tmp_path / "no" / "x.ndjson")]) == 2
        assert_one_error_line(capsys)

    def test_report_json_in_missing_directory_exits_2(self, tmp_path, capsys):
        assert cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                         "--duration", "1", "--offline", str(tmp_path / "o.ndjson"),
                         "--report-json", str(tmp_path / "no" / "r.json")]) == 2
        assert_one_error_line(capsys)


@pytest.fixture
def live_server(tmp_path):
    members, start_ts = load_fleet_config(CONFIGS / "fleet_demo.json")
    store = TimeSeriesStore(register(tmp_path / "data", *(m.station for m in members)),
                            fsync=False)
    service = MonitorService(store)
    run_fleet(members, 24 * 3600, CallableTransport(lambda t: service.ingest(t)[0]),
              seed=7, start_ts=start_ts)
    server = HttpServer(service, port=0)
    server.start()
    yield server
    server.shutdown()
    store.close()


class TestReportCommand:
    def test_five_rows_after_scenario(self, live_server, tmp_path, capsys):
        json_path = tmp_path / "rows.json"
        code = cli.main(["report", "--server", live_server.url,
                         "--window", "24h", "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        rows = json.loads(json_path.read_text())
        assert len(rows) == 5
        for row in rows:
            assert row["station"] in out
            # golden: every number matches the API the table is built from
            snap = requests.get(
                f"{live_server.url}/v1/stations/{row['station']}/icca?window_s=86400").json()
            assert row["icca"] == (snap["icca"]["value"] if snap["icca"] else None)
            assert row["pm25_mean"] == snap["pm25"]["mean"]
            assert row["pm10_mean"] == snap["pm10"]["mean"]
            assert row["coverage"] == snap["coverage"]
        capital = next(r for r in rows if r["station"] == "san-salvador-centro")
        assert capital["category"] == "Dañina a la Salud" and capital["color"] == "red"

    def test_single_station(self, live_server, capsys):
        assert cli.main(["report", "--server", live_server.url,
                         "--station", "santa-ana"]) == 0
        out = capsys.readouterr().out
        assert "santa-ana" in out and "san-salvador-centro" not in out

    def test_unknown_station_exits_1(self, live_server, capsys):
        assert cli.main(["report", "--server", live_server.url,
                         "--station", "ghost"]) == 1

    def test_unreachable_server_exits_1(self, capsys):
        assert cli.main(["report", "--server", "http://127.0.0.1:1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error: http://127.0.0.1:1/v1/stations: " in err

    @pytest.mark.parametrize("server", ["localhost", "127.0.0.1:1"])
    def test_server_without_scheme_exits_1(self, capsys, server):
        assert cli.main(["report", "--server", server]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"error: {server}/v1/stations: " in err

    def test_reply_not_json_exits_1(self, capsys):
        class Html(BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Length", "6")
                self.end_headers()
                self.wfile.write(b"<html>")

            def log_message(self, *args):
                pass

        with HTTPServer(("127.0.0.1", 0), Html) as server:
            thread = threading.Thread(target=server.serve_forever, args=(0.05,))
            thread.start()
            try:
                code = cli.main(["report", "--server",
                                 f"http://127.0.0.1:{server.server_address[1]}"])
            finally:
                server.shutdown()
                thread.join()
        assert code == 1
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv, body, path", [
        ([], b'{"stations": ["x"]}', "/v1/stations"),
        (["--station", "a"], b"[]", "/v1/stations/a/icca?window_s=86400"),
        (["--station", "a"], b'{"icca": null, "pm25": null, "pm10": null, "coverage": "x"}',
         "/v1/stations/a/icca?window_s=86400"),
    ], ids=["stations-of-strings", "icca-a-list", "coverage-a-string"])
    def test_reply_of_another_shape_exits_1(self, capsys, argv, body, path):
        class Reply(BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with HTTPServer(("127.0.0.1", 0), Reply) as server:
            thread = threading.Thread(target=server.serve_forever, args=(0.05,))
            thread.start()
            base = f"http://127.0.0.1:{server.server_address[1]}"
            try:
                code = cli.main(["report", "--server", base, *argv])
            finally:
                server.shutdown()
                thread.join()
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: {base}{path}: unexpected reply")

    def test_json_in_missing_directory_exits_2(self, live_server, tmp_path, capsys):
        assert cli.main(["report", "--server", live_server.url,
                         "--json", str(tmp_path / "no" / "r.json")]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("window", ["soon", "0", "0h"])
    def test_bad_window_exits_2(self, live_server, window):
        assert cli.main(["report", "--server", live_server.url, "--window", window]) == 2


class TestDumpFrame:
    def test_dumps_valid_frame(self, capsys):
        from iccamon.sensor import PmFrame, encode_pm_frame

        data = encode_pm_frame(PmFrame(pm2_5_std=17))
        assert cli.main(["dump-frame", data.hex()]) == 0
        out = capsys.readouterr().out
        assert "pm2_5_std" in out and "= 17" in out

    def test_corrupt_frame_still_dumps_with_error(self, capsys):
        assert cli.main(["dump-frame", "00" * 32]) == 0
        assert "decode failed" in capsys.readouterr().out

    def test_bad_hex_exits_2(self):
        assert cli.main(["dump-frame", "zz"]) == 2


class TestParseWindow:
    def test_units(self):
        assert cli.parse_window("24h") == 86400
        assert cli.parse_window("90m") == 5400
        assert cli.parse_window("3600s") == 3600
        assert cli.parse_window("120") == 120

    @pytest.mark.parametrize("text", ["1d", "0", "0s", "00m", "0h"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            cli.parse_window(text)


class TestShippedConfigs:
    def test_each_demo_config_loads(self, tmp_path):
        cfg = load_server_config(CONFIGS / "server_demo.json")
        # relative paths in the server config are relative to its directory
        assert Path(cfg.rules_path) == CONFIGS / "rules_demo.json"
        assert Path(cfg.data_dir).resolve() == CONFIGS.parent / "demo_data"
        engine = load_rules_config(CONFIGS / "rules_demo.json",
                                   alert_log=NdjsonLog(tmp_path / "alerts.ndjson", fsync=False))
        assert [r.rule_id for r in engine.rules] == ["danina-a-la-salud", "grupos-sensibles-watch"]
        members, _ = load_fleet_config(CONFIGS / "fleet_demo.json")
        stations = json.loads((CONFIGS / "stations_demo.json").read_text())
        records = [StationRecord.from_json_obj(obj) for obj in stations]
        assert [r.station_id for r in records] == [m.station.station_id for m in members]


class TestReplayCommand:
    @staticmethod
    def server_config(tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "stations.json").write_bytes((CONFIGS / "stations_demo.json").read_bytes())
        config = tmp_path / "server.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path / "unused")}))
        return config, data_dir

    def test_offline_run_replays_then_replays_as_duplicates(self, tmp_path, capsys):
        frames = tmp_path / "frames.ndjson"
        assert cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                         "--duration", "6", "--seed", "7", "--offline", str(frames)]) == 0
        capsys.readouterr()
        config, data_dir = self.server_config(tmp_path)
        argv = ["replay", "--config", str(config), "--data-dir", str(data_dir), str(frames)]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"202": 5 * 18}
        # the second pass finds every seq stored already
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"409": 5 * 18}
        store = TimeSeriesStore(data_dir, fsync=False)
        assert sum(store.count(sid) for sid in store.station_ids()) == 5 * 18
        assert not (tmp_path / "unused").exists()

    def test_rejected_frame_exits_1(self, tmp_path, capsys):
        frames = tmp_path / "frames.ndjson"
        frames.write_text(
            '{"station_id":"santa-ana","token":"wrong","seq":1,"ts":1700006400,'
            '"pm25":12.3,"pm10":20.0,"temp_c":28.5}\n')
        config, data_dir = self.server_config(tmp_path)
        assert cli.main(["replay", "--config", str(config), "--data-dir", str(data_dir),
                         str(frames)]) == 1
        assert json.loads(capsys.readouterr().out) == {"401": 1}

    @pytest.mark.parametrize("frame", [
        "[" * 4000 + "]" * 4000,
        '{"station_id":"santa-ana","token":"7d05b6c4aa2e9f13","seq":1,"ts":1700006400,'
        '"pm25":' + "9" * 400 + ',"pm10":20.0,"temp_c":28.5}',
    ], ids=["nested-too-deep", "400-digit-pm25"])
    def test_frame_the_parser_refuses_is_malformed(self, tmp_path, capsys, caplog, frame):
        frames = tmp_path / "frames.ndjson"
        frames.write_text(frame + "\n")
        config, data_dir = self.server_config(tmp_path)
        assert cli.main(["replay", "--config", str(config), "--data-dir", str(data_dir),
                         str(frames)]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out) == {"422": 1}
        assert "Traceback" not in err
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_config_nested_too_deep_exits_2(self, tmp_path, capsys):
        config = tmp_path / "server.json"
        config.write_text('{"data_dir": ' + "[" * 4000 + "]" * 4000 + "}")
        assert cli.main(["replay", "--config", str(config), str(tmp_path / "f.ndjson")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(config) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_non_utf8_frames_file_exits_2(self, tmp_path, capsys):
        frames = tmp_path / "frames.ndjson"
        frames.write_bytes(b"\xff\xfe{}\n")
        config, data_dir = self.server_config(tmp_path)
        assert cli.main(["replay", "--config", str(config), "--data-dir", str(data_dir),
                         str(frames)]) == 2
        assert_one_error_line(capsys)

    def test_bad_byte_names_the_line_and_prints_counts_so_far(self, tmp_path, capsys):
        frames = tmp_path / "frames.ndjson"
        assert cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                         "--duration", "2", "--seed", "7", "--offline", str(frames)]) == 0
        capsys.readouterr()
        lines = frames.read_bytes().splitlines(keepends=True)
        frames.write_bytes(b"".join(lines[:20]) + b"\xff\n" + b"".join(lines[20:]))
        config, data_dir = self.server_config(tmp_path)
        assert cli.main(["replay", "--config", str(config), "--data-dir", str(data_dir),
                         str(frames)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("frames error:") and err.count("\n") == 1
        assert f"{frames}:21:" in err
        assert json.loads(out) == {"202": 20}

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "server.json"
        bad.write_text("{nope")
        assert cli.main(["replay", "--config", str(bad), str(tmp_path / "f.ndjson")]) == 2

    def test_demo_config_from_another_directory(self, tmp_path, monkeypatch, capsys):
        frames = tmp_path / "frames.ndjson"
        assert cli.main(["simulate", "--scenario", str(CONFIGS / "fleet_demo.json"),
                         "--duration", "6", "--seed", "7", "--offline", str(frames)]) == 0
        capsys.readouterr()
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "stations.json").write_bytes(
            (CONFIGS / "stations_demo.json").read_bytes())
        monkeypatch.chdir(tmp_path)
        # the rules file is found next to the config; --data-dir stays
        # relative to the working directory
        assert cli.main(["replay", "--config", str(CONFIGS / "server_demo.json"),
                         "--data-dir", "data", "frames.ndjson"]) == 0
        assert json.loads(capsys.readouterr().out) == {"202": 5 * 18}
        store = TimeSeriesStore(tmp_path / "data", fsync=False)
        assert sum(store.count(sid) for sid in store.station_ids()) == 5 * 18

    def test_missing_rules_file_names_key_and_config(self, tmp_path, capsys):
        config = tmp_path / "server.json"
        config.write_text(json.dumps({"data_dir": "data", "rules_path": "missing.json"}))
        assert cli.main(["replay", "--config", str(config), str(tmp_path / "f.ndjson")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and str(config) in err
        assert "rules_path" in err and str(tmp_path / "missing.json") in err
        assert not (tmp_path / "data").exists()

    def test_rule_without_rule_id_exits_2(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [{"trigger_category_min": 3}]}))
        config, data_dir = self.server_config(tmp_path)
        config.write_text(json.dumps({"data_dir": str(data_dir), "rules_path": str(rules)}))
        assert cli.main(["replay", "--config", str(config), str(tmp_path / "f.ndjson")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_rule_naming_unknown_sink_exits_2(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(
            {"rules": [{"rule_id": "r", "trigger_category_min": 3, "sink_ids": ["nope"]}]}))
        config, data_dir = self.server_config(tmp_path)
        config.write_text(json.dumps({"data_dir": str(data_dir), "rules_path": str(rules)}))
        assert cli.main(["replay", "--config", str(config), str(tmp_path / "f.ndjson")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "rules.json" in err and "'nope'" in err


class TestStorageErrorAtOpen:
    """A data directory the store cannot open gives one line and exit 2."""

    @staticmethod
    def data_dir(tmp_path):
        config, data_dir = TestReplayCommand.server_config(tmp_path)
        store = TimeSeriesStore(data_dir, fsync=False)
        for seq in range(1, 4):
            store.append(Measurement("santa-ana", seq, 1700006400 + seq * 1200, 12.3, 20.0, 28.5))
        return config, data_dir

    @pytest.mark.parametrize("corrupt", [
        lambda d: (d / "stations.json").write_text("[{nope"),
        lambda d: (d / "stations.json").write_text('{"station_id": "santa-ana"}'),
        lambda d: (d / "stations.json").write_text(
            (d / "stations.json").read_text().replace('"lat"', '"latitude"', 1)),
        lambda d: (d / "stations.json").write_text(
            re.sub(r'"token": "[^"]*"', '"token": 12345', (d / "stations.json").read_text(),
                   count=1)),
        lambda d: (d / "stations.json").write_text(
            (d / "stations.json").read_text().replace('"santa-ana"', '"santa ana"')),
        lambda d: (d / "stations.json").write_text(
            json.dumps(2 * json.loads((d / "stations.json").read_text()))),
        lambda d: (d / "series" / "santa-ana.ndjson").write_bytes(
            b"\n".join(line if i != 1 else b"{torn"
                       for i, line in enumerate(
                           (d / "series" / "santa-ana.ndjson").read_bytes().split(b"\n")))),
        lambda d: (d / "series" / "santa-ana.ndjson").write_bytes(
            log_data(d / "series" / "santa-ana.ndjson") + b"[1]\n"),
        lambda d: [(d / "series" / "santa-ana.ndjson").unlink(),
                   (d / "series" / "santa-ana.ndjson").mkdir()],
        lambda d: (d / "stations.json").write_text("[" * 4000 + "]" * 4000),
        lambda d: (d / "series" / "santa-ana.ndjson").write_bytes(
            log_data(d / "series" / "santa-ana.ndjson") + b"[" * 4000 + b"]" * 4000 + b"\n"),
        lambda d: (d / "series" / "santa-ana.ndjson").write_bytes(
            log_data(d / "series" / "santa-ana.ndjson").replace(
                b'"pm25":12.3', b'"pm25":NaN', 1)),
        lambda d: (d / "series" / "santa-ana.ndjson").write_bytes(
            log_data(d / "series" / "santa-ana.ndjson").replace(
                b'"pm10":20.0', b'"pm10":1e400', 1)),
        lambda d: (d / "series" / "santa-ana.ndjson").write_bytes(
            log_data(d / "series" / "santa-ana.ndjson").replace(
                b'"pm25":12.3', b'"pm25":' + b"9" * 400, 1)),
        lambda d: (d / "series" / "santa-ana.ndjson").write_bytes(
            log_data(d / "series" / "santa-ana.ndjson").replace(
                b'"pm25":12.3', b'"pm25":-900.0', 1)),
    ], ids=["registry-not-json", "registry-object", "registry-unknown-key",
            "registry-numeric-token", "registry-id-with-space", "registry-repeated-id",
            "corrupt-mid-record",
            "record-not-an-object", "log-unreadable", "registry-nested-too-deep",
            "record-nested-too-deep", "record-nan", "record-infinite", "record-400-digit-pm25",
            "record-negative-pm25"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, corrupt):
        # serve opens the data directory through the same _open_service
        config, data_dir = self.data_dir(tmp_path)
        corrupt(data_dir)
        assert cli.main(["replay", "--config", str(config), "--data-dir", str(data_dir),
                         str(tmp_path / "f.ndjson")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("storage error:") and err.count("\n") == 1
        assert "Traceback" not in err and str(data_dir) in err

    def test_corrupt_alert_log_line_exits_2(self, tmp_path, capsys):
        config, data_dir = self.data_dir(tmp_path)
        config.write_text(json.dumps({"rules_path": str(CONFIGS / "rules_demo.json")}))
        (data_dir / "alerts.ndjson").write_text("{nope\n")
        assert cli.main(["replay", "--config", str(config), "--data-dir", str(data_dir),
                         str(tmp_path / "f.ndjson")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("storage error:") and "alerts.ndjson:1" in err

    @pytest.mark.parametrize("key, value", [("rule_id", ["unhealthy"]), ("station_id", 7)],
                             ids=["list-rule-id", "int-station-id"])
    def test_alert_log_key_of_another_type_is_blamed_on_the_log(self, tmp_path, capsys,
                                                                key, value):
        # a list rule_id once failed to hash in the rules' filter, outside
        # the log's reader, and was reported as an error of the rules file
        config, data_dir = self.data_dir(tmp_path)
        config.write_text(json.dumps({"rules_path": str(CONFIGS / "rules_demo.json")}))
        event = {"rule_id": "unhealthy", "station_id": "utec-01", "kind": "raised",
                 "icca_value": 153, "category": "Dañina", "ts": 1, key: value}
        (data_dir / "alerts.ndjson").write_text(json.dumps(event) + "\n")
        assert cli.main(["replay", "--config", str(config), "--data-dir", str(data_dir),
                         str(tmp_path / "f.ndjson")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("storage error:") and err.count("\n") == 1
        assert "alerts.ndjson:1: corrupt alert event" in err


class TestServeCommand:
    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "server.json"
        bad.write_text('{"port": "eighty"}')
        assert cli.main(["serve", "--config", str(bad)]) == 2
        bad.write_text("{nope")
        assert cli.main(["serve", "--config", str(bad)]) == 2

    def test_port_in_use_exits_2(self, tmp_path, capsys):
        config = tmp_path / "server.json"
        with socket.create_server(("127.0.0.1", 0)) as taken:
            config.write_text(json.dumps({"host": "127.0.0.1", "port": taken.getsockname()[1],
                                          "data_dir": str(tmp_path / "data")}))
            assert cli.main(["serve", "--config", str(config)]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_serve_subprocess_creates_data_dir_and_stops_cleanly(self, tmp_path, signum):
        config = tmp_path / "server.json"
        data_dir = tmp_path / "fresh_data"
        config.write_text(json.dumps({
            "host": "127.0.0.1", "port": 0, "data_dir": str(data_dir)}))
        proc = subprocess.Popen(
            [sys.executable, "-m", "iccamon.cli", "serve", "--config", str(config)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            # scan startup output for the line carrying the bound port
            url = None
            for _ in range(5):
                line = proc.stdout.readline()
                hit = re.search(r"http://127\.0\.0\.1:\d+", line)
                if hit:
                    url = hit.group(0)
                    break
            assert url, "no listen URL announced"
            deadline = time.time() + 10
            while time.time() < deadline:
                try:
                    if requests.get(f"{url}/v1/stations", timeout=1).status_code == 200:
                        break
                except requests.RequestException:
                    time.sleep(0.05)
            else:
                pytest.fail("server never answered")
            assert data_dir.is_dir()
            proc.send_signal(signum)
            assert proc.wait(timeout=10) == 0
            assert "shut down cleanly" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestServeKilled:
    """A real serve, killed with SIGKILL at random moments and restarted,
    loses no acknowledged frame and logs no alert twice."""

    STATION = StationRecord("utec-01", "San Salvador", 13.70, -89.19, "tok-a",
                            report_period_s=3600)

    @staticmethod
    def frame(seq: int) -> str:
        # hourly frames: 30 h of heavy air, then 30 h of clean air, so the
        # rule raises and clears again and again
        pm25 = 150.0 if seq // 30 % 2 == 0 else 5.0
        return json.dumps({"station_id": "utec-01", "token": "tok-a", "seq": seq,
                           "ts": 1700006400 + seq * 3600, "pm25": pm25, "pm10": 20.0,
                           "temp_c": 28.5})

    @staticmethod
    @contextlib.contextmanager
    def serving(config, log):
        """(process, connection) of a child serve, killed on exit if alive."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "iccamon.cli", "serve", "--config", str(config)],
            stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on "), line
            url = urlsplit(line.split()[2])
            conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
            try:
                yield proc, conn
            finally:
                conn.close()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_acknowledged_frames_and_alerts_survive_sigkill(self, tmp_path):
        rng = random.Random(5)
        data_dir = register(tmp_path / "data", self.STATION)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(
            {"rules": [{"rule_id": "r", "trigger_category_min": 3, "clear_consecutive": 2}]}))
        config = tmp_path / "server.json"
        config.write_text(json.dumps({"host": "127.0.0.1", "port": 0, "data_dir": str(data_dir),
                                      "rules_path": str(rules)}))
        sent, acked = [], set()
        with open(tmp_path / "serve.log", "w") as log:
            for _ in range(5):
                with self.serving(config, log) as (proc, conn):
                    killer = threading.Timer(rng.uniform(0.1, 0.6), proc.kill)
                    killer.start()
                    try:
                        while True:  # back to back, until the kill cuts the connection
                            sent.append(len(sent) + 1)
                            conn.request("POST", "/v1/telemetry", self.frame(sent[-1]))
                            with conn.getresponse() as resp:
                                resp.read()
                            assert resp.status == 202
                            acked.add(sent[-1])
                    except (OSError, http.client.HTTPException):
                        pass
                    finally:
                        killer.join()
                    assert proc.wait() == -signal.SIGKILL

            store = TimeSeriesStore(data_dir, fsync=False)
            kept = {m.seq for m in stored(store, "utec-01")}
            assert acked <= kept <= set(sent)

            # a station resends what got no answer: each is stored once or refused
            with self.serving(config, log) as (proc, conn):
                for seq in sorted(set(sent) - acked):
                    conn.request("POST", "/v1/telemetry", self.frame(seq))
                    with conn.getresponse() as resp:
                        resp.read()
                    assert resp.status in (202, 409)
        logged = [seq for seq, _ in NdjsonLog(data_dir / "series" / "utec-01.ndjson").read(
            lambda obj: obj["seq"], "record")]
        assert len(logged) == len(set(logged)) and set(logged) >= kept

        events = [event for event, _ in NdjsonLog(data_dir / "alerts.ndjson").read(
            lambda obj: ((obj["rule_id"], obj["station_id"]), obj["kind"]), "event")]
        assert len(events) >= 2  # the rule raised and cleared at least once
        last = {}
        for key, kind in events:
            assert last.get(key) != kind, events
            last[key] = kind
