import json
import logging
import random
from collections import deque
from pathlib import Path

import pytest

from iccamon import cli
from iccamon.sensor import decode_pm_frame, encode_pm_frame
from iccamon.service import MonitorService
from iccamon.sim import (
    DAY_S,
    BlackoutTransport,
    CallableTransport,
    LOCAL_LOG_LEN,
    FleetMember,
    Node,
    OfflineFileTransport,
    RainEvent,
    Scenario,
    load_fleet_config,
    run_fleet,
    sample,
    true_signal,
)
from iccamon.store import StationRecord, TimeSeriesStore

from .helpers import register, stored

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
START = 1700006400  # 00:00 UTC


def scenario(**overrides):
    base = dict(label="test", base_pm25=30.0, base_pm10=60.0, traffic_amplitude=20.0,
                noise=0.10)
    base.update(overrides)
    return Scenario(**base)


def station(sid="utec-01", period=1200):
    return StationRecord(sid, sid, 13.7, -89.2, f"tok-{sid}", report_period_s=period)


class ListTransport:
    """Collects frames; scriptable failure window by sim time."""

    def __init__(self, fail_between=None):
        self.frames = []
        self.fail_between = fail_between

    def send(self, frame, now):
        if self.fail_between and self.fail_between[0] <= now < self.fail_between[1]:
            return False
        self.frames.append(frame)
        return True

    def close(self):
        pass


class TestScenarioValidation:
    def test_noise_bounds(self):
        with pytest.raises(ValueError):
            scenario(noise=0.6)

    def test_attenuation_bounds(self):
        with pytest.raises(ValueError):
            RainEvent(0, 3600, 0.0)
        with pytest.raises(ValueError):
            RainEvent(0, 3600, 1.2)

    @pytest.mark.parametrize("key, value", [("base_pm25", 1500.0), ("temp_base_c", 5000.0)])
    def test_scenario_whose_peak_the_wire_refuses_is_refused(self, tmp_path, capsys, key,
                                                              value):
        # such a node's frames would each be refused with 422 (and its buffer
        # head retried forever), or its sensor codec would raise mid-run
        obj = json.loads((CONFIGS / "fleet_demo.json").read_text())
        obj["stations"][0]["scenario"][key] = value
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=r"fleet\.json"):
            load_fleet_config(path)
        assert cli.main(["simulate", "--scenario", str(path), "--duration", "6",
                         "--offline", str(tmp_path / "o.ndjson")]) == 2
        assert capsys.readouterr().err.startswith("scenario error:")

    def test_scenario_just_inside_the_bound_sends_only_frames_the_wire_takes(self, tmp_path):
        # peaks of 999.0 ug/m3 and 149.85 C at the widest noise
        inside = dict(base_pm25=566.0, base_pm10=566.0, traffic_amplitude=100.0,
                      temp_base_c=99.9, temp_amplitude_c=0.0, noise=0.5)
        with pytest.raises(ValueError, match="peak PM"):
            scenario(**{**inside, "base_pm10": 566.1})
        with pytest.raises(ValueError, match="peak temperature"):
            scenario(**{**inside, "temp_amplitude_c": -0.1})
        store = TimeSeriesStore(register(tmp_path / "data", station()), fsync=False)
        service = MonitorService(store)
        statuses = []

        def ingest(text):
            statuses.append(service.ingest(text)[0])
            return statuses[-1]

        report = run_fleet([FleetMember(station(), scenario(**inside))], DAY_S,
                           CallableTransport(ingest), seed=3, start_ts=START)
        assert statuses == [202] * 72 and report.to_json_obj()["totals"]["delivered"] == 72
        # the readings came near both limits
        records = stored(store, "utec-01")
        assert max(r.pm10 for r in records) > 950 and max(r.temp_c for r in records) > 145


class TestTrueSignal:
    def test_constant_without_traffic_or_rain(self):
        sc = scenario(traffic_amplitude=0.0)
        values = {true_signal(sc, START + h * 3600)[:2] for h in range(24)}
        assert values == {(30.0, 60.0)}

    def test_peak_hours_exceed_night(self):
        sc = scenario()
        v_peak = true_signal(sc, START + 8 * 3600)[0]
        v_night = true_signal(sc, START + 3 * 3600)[0]
        assert v_peak > v_night

    def test_rain_attenuation_is_exactly_multiplicative(self):
        rain = RainEvent(START + 10 * 3600, 7200, 0.3)
        wet = scenario(rain=(rain,))
        dry = scenario()
        ts = START + 11 * 3600
        assert true_signal(wet, ts)[0] == pytest.approx(0.3 * true_signal(dry, ts)[0], rel=0, abs=0)
        assert true_signal(wet, ts)[1] == 0.3 * true_signal(dry, ts)[1]

    def test_rain_recovers_linearly_after_event(self):
        rain = RainEvent(START, 3600, 0.5)
        sc = scenario(rain=(rain,), rain_recovery_s=7200, traffic_amplitude=0.0)
        end = START + 3600
        assert true_signal(sc, end)[0] == 0.5 * 30.0
        halfway = true_signal(sc, end + 3600)[0]
        assert halfway == pytest.approx(0.75 * 30.0)
        assert true_signal(sc, end + 7200)[0] == 30.0

    def test_deterministic(self):
        sc = scenario(rain=(RainEvent(START, 600, 0.9),))
        assert true_signal(sc, START + 1234) == true_signal(sc, START + 1234)

    def test_temperature_follows_daily_cycle(self):
        sc = scenario()
        afternoon = true_signal(sc, START + 15 * 3600)[2]
        dawn = true_signal(sc, START + 3 * 3600)[2]
        assert afternoon > dawn


class TestSample:
    def test_zero_noise_equals_true_signal(self):
        sc = scenario(noise=0.0)
        rng = random.Random(1)
        assert sample(sc, START, rng) == true_signal(sc, START)

    def test_noise_bounded_by_fraction(self):
        sc = scenario(noise=0.10)
        rng = random.Random(2)
        for k in range(500):
            ts = START + k * 600
            truth = true_signal(sc, ts)
            noisy = sample(sc, ts, rng)
            for t, n in zip(truth, noisy):
                assert abs(n - t) <= 0.10 * abs(t) + 1e-9

    def test_seeded_determinism(self):
        sc = scenario()
        a = [sample(sc, START + i, random.Random(42)) for i in range(5)]
        b = [sample(sc, START + i, random.Random(42)) for i in range(5)]
        assert a == b


class TestNode:
    def test_phase_cycle_order(self, caplog):
        # read, store locally, display, format, send, wait, seen from outside:
        # at send time the reading is stored and displayed and the clock has
        # not moved; after the cycle it has moved by one period
        node = Node(station(), scenario(), seed=1, start_ts=START)
        seen = []

        class OrderCheckingTransport(ListTransport):
            def send(self, frame, now):
                assert node.local_log[-1].ts == frame.ts == node.clock == now
                shown = [r.getMessage() for r in caplog.records]
                assert any(f"ts={frame.ts} " in line for line in shown)
                seen.append(frame)
                return super().send(frame, now)

        caplog.set_level(logging.DEBUG, logger="iccamon.sim")
        transport = OrderCheckingTransport()
        for _ in range(3):
            node.run_cycle(transport)
            assert node.clock == seen[-1].ts + node.station.report_period_s
        assert [f.seq for f in seen] == [1, 2, 3]

    def test_72_cycles_deliver_seq_1_to_72(self):
        node = Node(station(), scenario(), seed=3, start_ts=START)
        transport = ListTransport()
        while node.clock < START + 24 * 3600:
            node.run_cycle(transport)
        assert node.counters.delivered == 72
        assert [f.seq for f in transport.frames] == list(range(1, 73))
        assert [f.ts for f in transport.frames] == [START + k * 1200 for k in range(72)]
        assert len(node.buffer) == 0
        assert len(node.local_log) == 72

    def test_outage_buffers_then_drains_in_order(self):
        # transport down for cycles 10..20 (by sim time)
        down = (START + 10 * 1200, START + 21 * 1200)
        node = Node(station(), scenario(), seed=4, start_ts=START)
        transport = ListTransport(fail_between=down)
        for _ in range(30):
            node.run_cycle(transport)
            node.check_conservation()
        assert node.counters.delivered == 30
        assert [f.seq for f in transport.frames] == list(range(1, 31))
        assert node.counters.failed_attempts == 11

    def test_display_line_emitted(self):
        node = Node(station(), scenario(), seed=5, start_ts=START)
        line = node.run_cycle(ListTransport())
        assert "PM2.5=" in line and "utec-01" in line
        assert f"ts={START} " in line

    def test_state_stays_bounded_over_many_cycles(self):
        node = Node(station(), scenario(), seed=8, start_ts=START)
        transport = ListTransport()
        for _ in range(1000):
            node.run_cycle(transport)
        sizes = {k: len(v) for k, v in vars(node).items() if isinstance(v, (list, deque))}
        assert sizes and max(sizes.values()) <= LOCAL_LOG_LEN, sizes
        newest = transport.frames[-LOCAL_LOG_LEN:]
        assert [r.ts for r in node.local_log] == [f.ts for f in newest]
        assert [r.pm25 for r in node.local_log] == [f.pm25 for f in newest]

    def test_buffer_cap_drops_oldest(self):
        node = Node(station(), scenario(), seed=6, start_ts=START, buffer_cap=5)
        transport = ListTransport(fail_between=(START, START + 100 * 1200))
        for _ in range(10):
            node.run_cycle(transport)
        assert len(node.buffer) == 5
        assert node.counters.dropped == 5
        assert [f.seq for f in node.buffer] == [6, 7, 8, 9, 10]
        node.check_conservation()

    def test_sensor_path_identity(self):
        # the encode/decode round trip must hand back exactly the quantized
        # values that were sampled
        from iccamon.sensor import PmFrame

        sc = scenario()
        for k in range(100):
            ts = START + k * 1200
            p25, p10, _ = sample(sc, ts, random.Random(f"probe:{k}"))
            frame = PmFrame(pm2_5_std=round(p25), pm10_std=round(p10))
            decoded = decode_pm_frame(encode_pm_frame(frame))
            assert decoded.pm2_5_std == round(p25)
            assert decoded.pm10_std == round(p10)


class TestRunFleet:
    def members(self, n=5):
        return [FleetMember(station(f"st-{i}"), scenario()) for i in range(n)]

    def test_five_nodes_24h_deliver_360(self):
        transport = ListTransport()
        report = run_fleet(self.members(), 24 * 3600, transport, seed=7, start_ts=START)
        assert report.to_json_obj()["totals"]["delivered"] == 360
        assert all(n.counters.generated == 72 and not n.buffer for n in report.nodes)
        per_station = {}
        for f in transport.frames:
            per_station.setdefault(f.station_id, []).append(f.seq)
        assert all(seqs == list(range(1, 73)) for seqs in per_station.values())

    def test_same_seed_identical_offline_files(self, tmp_path):
        for name in ("a", "b"):
            transport = OfflineFileTransport(tmp_path / f"{name}.ndjson")
            run_fleet(self.members(), 6 * 3600, transport, seed=11, start_ts=START)
            transport.close()
        assert (tmp_path / "a.ndjson").read_bytes() == (tmp_path / "b.ndjson").read_bytes()
        assert (tmp_path / "a.ndjson").stat().st_size > 0

    def test_different_seed_differs(self, tmp_path):
        for name, seed in (("a", 1), ("b", 2)):
            transport = OfflineFileTransport(tmp_path / f"{name}.ndjson")
            run_fleet(self.members(), 2 * 3600, transport, seed=seed, start_ts=START)
            transport.close()
        assert (tmp_path / "a.ndjson").read_bytes() != (tmp_path / "b.ndjson").read_bytes()

    def test_zero_duration_empty_report(self):
        report = run_fleet(self.members(), 0, ListTransport(), seed=1, start_ts=START)
        assert report.to_json_obj()["totals"]["delivered"] == 0
        assert all(n.counters.generated == 0 for n in report.nodes)

    def test_blackout_counts_failures_and_buffers(self):
        outage = [(START + 4 * 3600, START + 8 * 3600)]
        inner = ListTransport()
        report = run_fleet(self.members(1), 6 * 3600, BlackoutTransport(inner, outage),
                           seed=2, start_ts=START)
        node = report.nodes[0]
        assert node.counters.generated == 18
        assert len(node.buffer) == 6  # cycles at 4h..5h40 stay queued
        assert node.counters.delivered == 12
        assert node.counters.failed_attempts > 0

    def test_callable_transport_statuses(self):
        accepted = []

        def ingest(text):
            accepted.append(text)
            return 202

        report = run_fleet(self.members(1), 3600, CallableTransport(ingest), seed=3,
                           start_ts=START)
        assert report.to_json_obj()["totals"]["delivered"] == 3 == len(accepted)


class TestServiceIntegration:
    def _fresh_service(self, tmp_path, name, members):
        from iccamon.service import MonitorService
        from iccamon.store import TimeSeriesStore

        store = TimeSeriesStore(register(tmp_path / name, *(m.station for m in members)),
                                fsync=False)
        return MonitorService(store), store

    def test_offline_replay_equals_online_run(self, tmp_path):
        from iccamon.sim import iter_offline_frames

        members, start_ts = load_fleet_config(CONFIGS / "fleet_demo.json")
        offline_path = tmp_path / "frames.ndjson"
        transport = OfflineFileTransport(offline_path)
        run_fleet(members, 6 * 3600, transport, seed=21, start_ts=start_ts)
        transport.close()

        online, store_a = self._fresh_service(tmp_path, "online", members)
        run_fleet(members, 6 * 3600, CallableTransport(lambda t: online.ingest(t)[0]),
                  seed=21, start_ts=start_ts)

        replayed, store_b = self._fresh_service(tmp_path, "replayed", members)
        for line in iter_offline_frames(offline_path):
            status, _ = replayed.ingest(line)
            assert status == 202
        for m in members:
            sid = m.station.station_id
            assert stored(store_b, sid) == stored(store_a, sid)
        store_a.close()
        store_b.close()

    def test_duplicate_delivery_stored_once(self, tmp_path):
        members, start_ts = load_fleet_config(CONFIGS / "fleet_demo.json")
        members = members[:1]
        service, store = self._fresh_service(tmp_path, "dup", members)

        class DuplicatingTransport:
            def send(self, frame, now):
                from iccamon.telemetry import serialize
                text = serialize(frame)
                first = service.ingest(text)[0]
                second = service.ingest(text)[0]
                assert second == 409
                return first in (202, 409)

            def close(self):
                pass

        run_fleet(members, 4 * 3600, DuplicatingTransport(), seed=5, start_ts=start_ts)
        sid = members[0].station.station_id
        assert [m.seq for m in stored(store, sid)] == list(range(1, 13))
        store.close()

    def test_http_transport_reopens_after_the_server_drops_its_connection(self, tmp_path):
        import socket

        from iccamon.service import HttpServer
        from iccamon.sim import HttpTransport
        from iccamon.telemetry import TelemetryFrame

        members, start_ts = load_fleet_config(CONFIGS / "fleet_demo.json")
        st = members[0].station
        service, store = self._fresh_service(tmp_path, "http", members[:1])
        frames = [TelemetryFrame(st.station_id, st.token, seq, start_ts + seq * 1200,
                                 20.0, 40.0, 25.0) for seq in (1, 2, 3)]
        server = HttpServer(service, port=0)
        server.start()
        transport = HttpTransport(server.url)
        try:
            assert transport.send(frames[0], now=0)
            with server._lock:
                for sock in server._connections:
                    sock.shutdown(socket.SHUT_RDWR)
            # the dropped connection fails, and the frame goes out on a new one
            assert transport.send(frames[1], now=0) and transport.send(frames[2], now=0)
        finally:
            transport.close()
            server.shutdown()
        assert [m.seq for m in stored(store, st.station_id)] == [1, 2, 3]
        store.close()


class TestFleetConfig:
    def test_demo_config_loads(self):
        members, start_ts = load_fleet_config(CONFIGS / "fleet_demo.json")
        assert len(members) == 5
        assert start_ts % 86400 == 0
        capital = members[0]
        assert capital.station.station_id == "san-salvador-centro"
        assert capital.scenario.rain[0].start_ts == start_ts + 72000
        assert {m.station.report_period_s for m in members} == {1200}

    def test_rejects_empty_fleet(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"stations": []}))
        with pytest.raises(ValueError):
            load_fleet_config(path)

    def test_demo_registry_matches_demo_fleet(self):
        # the Quick demo serves the shipped registry to the demo fleet: every
        # station, token, place, period and created_at must be the fleet's
        members, _ = load_fleet_config(CONFIGS / "fleet_demo.json")
        registry = json.loads((CONFIGS / "stations_demo.json").read_text())
        assert [StationRecord(**r) for r in registry] == [m.station for m in members]
