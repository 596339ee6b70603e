import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from iccamon.icca import CATEGORIES, IccaResult, Pollutant
from iccamon.rules import (
    AlertEvent,
    AlertKind,
    FileSink,
    Rule,
    RuleEngine,
    RuleState,
    WebhookSink,
    dispatch,
    evaluate,
    load_rules_config,
)


def icca(value):
    cat = next(c for c in CATEGORIES if value <= c.index_hi)
    return IccaResult(value, cat, Pollutant.PM25)


def run_sequence(rule, values, start_ts=0):
    """Feed a value sequence through evaluate, collecting all events."""
    state = RuleState()
    events = []
    for i, v in enumerate(values):
        emitted, state = evaluate(rule, "st-1", state, icca(v), start_ts + i)
        events.extend(emitted)
    return events, state


class TestEvaluate:
    def test_raises_at_trigger_category(self):
        rule = Rule("r1", trigger_category_min=3)
        # 24-h PM2.5 mean of 70 interpolates to index 153, "Dañina a la Salud"
        events, state = run_sequence(rule, [153])
        assert [e.kind for e in events] == [AlertKind.RAISED]
        assert events[0].category == "Dañina a la Salud"
        assert events[0].icca_value == 153
        assert state.active

    def test_no_flapping_while_active(self):
        rule = Rule("r1", trigger_category_min=3)
        events, state = run_sequence(rule, [153, 153, 160, 200, 154])
        assert len(events) == 1 and state.active

    def test_hysteresis_requires_consecutive_below(self):
        rule = Rule("r1", trigger_category_min=3, clear_consecutive=3)
        # two below, then back above: still active, no Cleared
        events, state = run_sequence(rule, [153, 100, 100, 160])
        assert [e.kind for e in events] == [AlertKind.RAISED]
        assert state.active and state.below_count == 0

    def test_clears_after_consecutive_below(self):
        rule = Rule("r1", trigger_category_min=3, clear_consecutive=3)
        events, state = run_sequence(rule, [153, 100, 90, 80])
        assert [e.kind for e in events] == [AlertKind.RAISED, AlertKind.CLEARED]
        assert not state.active

    def test_clear_consecutive_one(self):
        rule = Rule("r1", trigger_category_min=1, clear_consecutive=1)
        events, _ = run_sequence(rule, [60, 40, 60, 40])
        assert [e.kind for e in events] == [
            AlertKind.RAISED, AlertKind.CLEARED, AlertKind.RAISED, AlertKind.CLEARED]

    def test_below_trigger_never_raises(self):
        rule = Rule("r1", trigger_category_min=4)
        events, _ = run_sequence(rule, [0, 100, 200, 150])
        assert events == []

    def test_alternation_under_random_sequences(self):
        rng = random.Random(21)
        for trial in range(50):
            rule = Rule("r", trigger_category_min=rng.randint(1, 5),
                        clear_consecutive=rng.randint(1, 4))
            values = [rng.randint(0, 500) for _ in range(200)]
            events, _ = run_sequence(rule, values)
            kinds = [e.kind for e in events]
            for a, b in zip(kinds, kinds[1:]):
                assert a != b, f"trial {trial}: consecutive {a}"
            if kinds:
                assert kinds[0] is AlertKind.RAISED

    def test_replay_determinism(self):
        rng = random.Random(5)
        values = [rng.randint(0, 500) for _ in range(300)]
        rule = Rule("r", trigger_category_min=2, clear_consecutive=2)
        assert run_sequence(rule, values) == run_sequence(rule, values)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule("r", trigger_category_min=0)
        with pytest.raises(ValueError):
            Rule("r", trigger_category_min=6)
        with pytest.raises(ValueError):
            Rule("r", trigger_category_min=3, clear_consecutive=0)


class _Receiver(BaseHTTPRequestHandler):
    bodies = []
    fail = False
    entered = None  # an Event, when set by a test: set on each POST
    release = None  # an Event, when set by a test: awaited (2 s at most) before replying

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if type(self).entered is not None:
            type(self).entered.set()
            type(self).release.wait(2.0)
        if type(self).fail:
            self.send_response(500)
        else:
            type(self).bodies.append(json.loads(body))
            self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def receiver():
    class Handler(_Receiver):
        bodies = []
        fail = False

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield Handler, f"http://127.0.0.1:{server.server_address[1]}/hook"
    server.shutdown()


EVENT = AlertEvent("r1", "utec-01", AlertKind.RAISED, 153, "Dañina a la Salud", 1700000000)


class TestSinks:
    def test_file_sink_one_line_per_event(self, tmp_path):
        sink = FileSink("f", tmp_path / "alerts.ndjson")
        sink.deliver(EVENT)
        sink.deliver(EVENT)
        lines = (tmp_path / "alerts.ndjson").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == EVENT.to_json_obj()

    def test_webhook_body_equals_event_serialization(self, receiver):
        handler, url = receiver
        records = dispatch(EVENT, [WebhookSink("w", url)])
        assert records[0].ok and records[0].attempts == 1
        assert handler.bodies == [EVENT.to_json_obj()]

    def test_unreachable_webhook_recorded_not_raised(self):
        records = dispatch(EVENT, [WebhookSink("w", "http://127.0.0.1:1/none", timeout=0.2)])
        assert len(records) == 1
        assert not records[0].ok and records[0].attempts == 2
        assert records[0].error

    def test_failure_is_retried_once(self, receiver):
        handler, url = receiver
        handler.fail = True
        records = dispatch(EVENT, [WebhookSink("w", url)])
        assert records[0].attempts == 2 and not records[0].ok

    def test_one_failing_sink_does_not_block_others(self, tmp_path, receiver):
        handler, url = receiver
        sinks = [WebhookSink("w", "http://127.0.0.1:1/none", timeout=0.2),
                 FileSink("f", tmp_path / "a.ndjson")]
        records = dispatch(EVENT, sinks)
        assert [r.ok for r in records] == [False, True]


class TestRuleEngine:
    def test_failed_deliveries_counted_not_kept(self, receiver):
        handler, url = receiver
        handler.fail = True
        engine = RuleEngine([Rule("r1", 3, sink_ids=("w",))], {"w": WebhookSink("w", url)})

        def list_sizes():
            return {k: len(v) for k, v in vars(engine).items() if isinstance(v, list)}

        before = list_sizes()
        for i in range(5):
            assert len(engine.observe(f"st-{i}", icca(153), ts=i)) == 1
        assert engine.failed_deliveries == 5
        assert list_sizes() == before

    def test_slow_webhook_does_not_stall_other_stations(self, receiver):
        handler, url = receiver
        handler.entered, handler.release = threading.Event(), threading.Event()
        engine = RuleEngine([Rule("r1", 3, sink_ids=("w",))], {"w": WebhookSink("w", url, 1.0)})
        result = []
        blocked = threading.Thread(target=lambda: result.append(engine.observe("a", icca(153), 1)))
        blocked.start()
        try:
            assert handler.entered.wait(2.0)
            t0 = time.monotonic()
            assert engine.observe("b", icca(10), 1) == []
            elapsed = time.monotonic() - t0
        finally:
            handler.release.set()
            blocked.join(5.0)
        assert elapsed < 0.2
        assert not blocked.is_alive()
        assert len(result[0]) == 1 and engine.failed_deliveries == 0

    def test_observe_writes_alert_log(self, tmp_path):
        engine = RuleEngine([Rule("r1", 3)], alert_log_path=tmp_path / "alerts.ndjson")
        assert engine.observe("utec-01", icca(153), ts=1) != []
        assert engine.observe("utec-01", icca(153), ts=2) == []
        lines = (tmp_path / "alerts.ndjson").read_text().splitlines()
        assert len(lines) == 1

    def test_states_independent_per_station(self):
        engine = RuleEngine([Rule("r1", 3)])
        assert len(engine.observe("a", icca(153), 1)) == 1
        assert len(engine.observe("b", icca(153), 1)) == 1

    def test_config_loading(self, tmp_path):
        cfg = {
            "rules": [{"rule_id": "unhealthy", "trigger_category_min": 3,
                       "clear_consecutive": 2, "sink_ids": ["log"]}],
            "sinks": [{"sink_id": "log", "type": "file", "path": "out.ndjson"},
                      {"sink_id": "hook", "type": "webhook",
                       "url": "http://127.0.0.1:9/x", "timeout": 0.5}],
            "alert_log": "alerts.ndjson",
        }
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(cfg))
        engine = load_rules_config(path)
        assert engine.rules[0].rule_id == "unhealthy"
        assert engine.rules[0].clear_consecutive == 2
        assert engine.sinks["hook"].url == "http://127.0.0.1:9/x"
        assert engine.sinks["hook"].timeout == 0.5
        engine.observe("utec-01", icca(170), ts=9)
        assert (tmp_path / "out.ndjson").exists()
        assert (tmp_path / "alerts.ndjson").exists()
        assert engine.failed_deliveries == 0

    def test_config_rejects_unknown_sink_type(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"sinks": [{"sink_id": "x", "type": "carrier-pigeon"}]}))
        with pytest.raises(ValueError):
            load_rules_config(path)

    @pytest.mark.parametrize("cfg", [
        {"rules": [{"trigger_category_min": 3}]},
        {"rules": [{"rule_id": "r", "trigger_category_min": "3"}]},
        {"rules": {"rule_id": "r"}},
        {"sinks": [{"sink_id": "x", "type": "file"}]},
        [],
    ])
    def test_config_bad_entry_names_the_file(self, tmp_path, cfg):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match="rules.json"):
            load_rules_config(path)
