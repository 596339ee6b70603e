import json
import math
import os
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from iccamon.icca import CATEGORIES, IccaResult, Pollutant
from iccamon.rules import (
    AlertEvent,
    AlertKind,
    Rule,
    RuleEngine,
    WebhookSink,
    dispatch,
    evaluate,
    load_rules_config,
)
from iccamon.store import NdjsonLog, StorageError, _encode

from .helpers import log_data


def icca(value):
    cat = next(c for c in CATEGORIES if value <= c.index_hi)
    return IccaResult(value, cat, Pollutant.PM25)


def run_sequence(rule, values, start_ts=0):
    """Feed a value sequence through evaluate, collecting all events; the
    events and the final state (None while idle, else the count below)."""
    state = None
    events = []
    for i, v in enumerate(values):
        event, state = evaluate(rule, "st-1", state, icca(v), start_ts + i)
        if event:
            events.append(event)
    return events, state


class TestEvaluate:
    def test_raises_at_trigger_category(self):
        rule = Rule("r1", trigger_category_min=3)
        # 24-h PM2.5 mean of 70 interpolates to index 153, "Dañina a la Salud"
        events, state = run_sequence(rule, [153])
        assert [e.kind for e in events] == [AlertKind.RAISED]
        assert events[0].category == "Dañina a la Salud"
        assert events[0].icca_value == 153
        assert state == 0

    def test_no_flapping_while_active(self):
        rule = Rule("r1", trigger_category_min=3)
        events, state = run_sequence(rule, [153, 153, 160, 200, 154])
        assert len(events) == 1 and state == 0

    def test_hysteresis_requires_consecutive_below(self):
        rule = Rule("r1", trigger_category_min=3, clear_consecutive=3)
        # two below, then back above: still active, no Cleared
        events, state = run_sequence(rule, [153, 100, 100, 160])
        assert [e.kind for e in events] == [AlertKind.RAISED]
        assert state == 0

    def test_clears_after_consecutive_below(self):
        rule = Rule("r1", trigger_category_min=3, clear_consecutive=3)
        events, state = run_sequence(rule, [153, 100, 90, 80])
        assert [e.kind for e in events] == [AlertKind.RAISED, AlertKind.CLEARED]
        assert state is None

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
    raw = []  # the same bodies, as the bytes received
    attempts = []  # the raw body of every POST, failed ones included
    gets = 0
    fail = False
    redirect = None  # a URL, when set by a test: every POST is answered 302 to it
    entered = None  # an Event, when set by a test: set on each POST
    release = None  # an Event, when set by a test: awaited (2 s at most) before replying

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        type(self).attempts.append(body)
        if type(self).entered is not None:
            type(self).entered.set()
            type(self).release.wait(2.0)
        if type(self).redirect is not None:
            self.send_response(302)
            self.send_header("Location", type(self).redirect)
            self.send_header("Content-Length", "0")
        elif type(self).fail:
            self.send_response(500)
        else:
            type(self).bodies.append(json.loads(body))
            type(self).raw.append(body)
            self.send_response(200)
        self.end_headers()

    def do_GET(self):
        type(self).gets += 1
        self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def receivers():
    """Starts webhook receivers: each call gives (handler class, url)."""
    servers = []

    def start():
        class Handler(_Receiver):
            bodies = []
            raw = []
            attempts = []
            gets = 0
            fail = False

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return Handler, f"http://127.0.0.1:{server.server_address[1]}/hook"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def receiver(receivers):
    return receivers()


@pytest.fixture
def alert_log(tmp_path):
    return NdjsonLog(tmp_path / "alerts.ndjson")


EVENT = AlertEvent("r1", "utec-01", AlertKind.RAISED, 153, "Dañina a la Salud", 1700000000)
LINE = _encode(EVENT.to_json_obj())  # EVENT's alert-log line


class TestSinks:
    def test_webhook_body_equals_event_serialization(self, receiver):
        handler, url = receiver
        assert dispatch(LINE, [WebhookSink("w", url)]) == 0
        assert handler.bodies == [EVENT.to_json_obj()]
        # the fields in declaration order, compact UTF-8
        assert handler.attempts == ['{"rule_id":"r1","station_id":"utec-01","kind":"raised",'
                                    '"icca_value":153,"category":"Dañina a la Salud",'
                                    '"ts":1700000000}'.encode()]

    def test_webhook_body_is_the_alert_log_line(self, tmp_path, receiver, alert_log):
        # compact UTF-8, so "ñ" goes out as its two bytes, not as "\u00f1"
        handler, url = receiver
        engine = RuleEngine([Rule("r1", 3, sink_ids=("w",))], {"w": WebhookSink("w", url)},
                            alert_log=alert_log)
        events = engine.observe("utec-01", icca(153), ts=1)
        assert "ñ" in events[0].category
        engine.notify(events)
        assert handler.raw == log_data(tmp_path / "alerts.ndjson").splitlines()

    def test_unreachable_webhook_recorded_not_raised(self, caplog):
        failed = dispatch(LINE, [WebhookSink("w", "http://127.0.0.1:1/none", timeout=0.2)])
        assert failed == 1
        [message] = [r.getMessage() for r in caplog.records if r.name == "iccamon.rules"]
        assert "sink w failed after 2 attempts" in message
        assert "127.0.0.1" in message  # the error text is kept

    def test_failure_is_retried_once(self, tmp_path, receiver, alert_log):
        handler, url = receiver
        handler.fail = True
        engine = RuleEngine([Rule("r1", 3, sink_ids=("w",))], {"w": WebhookSink("w", url)},
                            alert_log=alert_log)
        engine.notify(engine.observe("utec-01", icca(153), ts=1))
        assert engine.failed_deliveries == 1
        # both attempts carry the event's alert-log line
        [line] = log_data(tmp_path / "alerts.ndjson").splitlines()
        assert handler.attempts == [line, line]

    def test_one_failing_sink_does_not_block_others(self, tmp_path, receivers, alert_log):
        failing, failing_url = receivers()
        working, working_url = receivers()
        failing.fail = True
        engine = RuleEngine([Rule("r1", 3, sink_ids=("w1", "w2"))],
                            {"w1": WebhookSink("w1", failing_url),
                             "w2": WebhookSink("w2", working_url)}, alert_log=alert_log)
        engine.notify(engine.observe("utec-01", icca(153), ts=1))
        assert engine.failed_deliveries == 1
        [line] = log_data(tmp_path / "alerts.ndjson").splitlines()
        assert failing.attempts == [line, line]
        assert working.attempts == [line]

    def test_redirect_is_a_failure_not_followed(self, receivers):
        # urlopen would follow a 302 to a POST as a bodiless GET, and count
        # the event as delivered although no endpoint received it
        moved, moved_url = receivers()
        target, target_url = receivers()
        moved.redirect = target_url
        assert dispatch(LINE, [WebhookSink("w", moved_url)]) == 1
        assert moved.attempts == [LINE, LINE]
        assert target.attempts == [] and target.gets == 0


class TestRuleEngine:
    def test_failed_deliveries_counted_not_kept(self, receiver, alert_log):
        handler, url = receiver
        handler.fail = True
        engine = RuleEngine([Rule("r1", 3, sink_ids=("w",))], {"w": WebhookSink("w", url)},
                            alert_log=alert_log)

        def list_sizes():
            return {k: len(v) for k, v in vars(engine).items() if isinstance(v, list)}

        before = list_sizes()
        for i in range(5):
            events = engine.observe(f"st-{i}", icca(153), ts=i)
            assert len(events) == 1
            engine.notify(events)
        assert engine.failed_deliveries == 5
        assert list_sizes() == before

    def test_slow_webhook_does_not_stall_other_stations(self, receiver, alert_log):
        handler, url = receiver
        handler.entered, handler.release = threading.Event(), threading.Event()
        engine = RuleEngine([Rule("r1", 3, sink_ids=("w",))], {"w": WebhookSink("w", url, 1.0)},
                            alert_log=alert_log)
        result = []
        def raise_and_notify():
            result.append(engine.observe("a", icca(153), 1))
            engine.notify(result[0])

        blocked = threading.Thread(target=raise_and_notify)
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

    def test_observe_writes_alert_log(self, tmp_path, alert_log):
        engine = RuleEngine([Rule("r1", 3)], alert_log=alert_log)
        assert engine.observe("utec-01", icca(153), ts=1) != []
        assert engine.observe("utec-01", icca(153), ts=2) == []
        lines = log_data(tmp_path / "alerts.ndjson").splitlines()
        assert [json.loads(line) for line in lines] == [
            AlertEvent("r1", "utec-01", AlertKind.RAISED, 153, "Dañina a la Salud", 1).to_json_obj()]

    def test_alert_log_fsyncs_each_event(self, tmp_path, alert_log, monkeypatch):
        synced = []  # the inode of each file fsynced
        monkeypatch.setattr("os.fsync", lambda fd: synced.append(os.fstat(fd).st_ino))
        engine = RuleEngine([Rule("r1", 3)], alert_log=alert_log)
        engine.observe("a", icca(153), ts=1)
        engine.observe("b", icca(153), ts=1)
        # each event's line, and once, after the first, the new log's directory entry
        log, folder = (os.stat(path).st_ino for path in (alert_log.path, tmp_path))
        assert synced == [log, folder, log]

    def test_alert_log_failure_logged_counted_and_sinks_still_called(
            self, tmp_path, receiver, caplog):
        handler, url = receiver
        engine = RuleEngine([Rule("r1", 3, sink_ids=("w",))], {"w": WebhookSink("w", url)},
                            alert_log=NdjsonLog(tmp_path / "alerts.ndjson"))
        (tmp_path / "alerts.ndjson").mkdir()  # the log can no longer be opened
        [event] = engine.observe("a", icca(153), ts=1)
        assert engine.failed_deliveries == 1
        assert handler.bodies == []  # observe calls no sink
        engine.notify([event])
        assert engine.failed_deliveries == 1
        assert handler.bodies == [event.to_json_obj()]
        [record] = [r for r in caplog.records if r.name == "iccamon.rules"]
        assert record.levelname == "ERROR" and "alert event not logged" in record.getMessage()
        assert engine.observe("a", icca(10), ts=2) == []  # the state moved on all the same

    def test_states_resume_from_alert_log(self, tmp_path, alert_log):
        log = tmp_path / "alerts.ndjson"
        rules = [Rule("r1", 3, clear_consecutive=2), Rule("r2", 2, clear_consecutive=2)]
        first = RuleEngine(rules, alert_log=alert_log)
        assert len(first.observe("a", icca(153), 1)) == 2
        assert len(first.observe("b", icca(153), 1)) == 2
        assert [e.kind for e in first.observe("b", icca(20), 2)] == []
        assert [e.kind for e in first.observe("b", icca(20), 3)] == [AlertKind.CLEARED] * 2
        # restarted: "a" is still active for both rules, "b" for neither
        second = RuleEngine(rules, alert_log=alert_log)
        assert second.observe("a", icca(153), 4) == []
        assert [e.kind for e in second.observe("b", icca(153), 4)] == [AlertKind.RAISED] * 2
        # a rule dropped from the config leaves no state behind
        third = RuleEngine([Rule("r1", 3, clear_consecutive=2)], alert_log=alert_log)
        assert set(third._states) == {("r1", "a"), ("r1", "b")}
        assert third.observe("a", icca(153), 5) == []
        assert third.observe("b", icca(153), 5) == []  # second raised it again after its clear
        kinds = [json.loads(line)["kind"] for line in log_data(log).splitlines()]
        assert kinds == ["raised"] * 4 + ["cleared"] * 2 + ["raised"] * 2

    def test_torn_alert_log_tail_is_cut(self, tmp_path, alert_log, caplog):
        log = tmp_path / "alerts.ndjson"
        raised = json.dumps(AlertEvent("r1", "a", AlertKind.RAISED, 153, "x", 1).to_json_obj())
        cleared = json.dumps(AlertEvent("r1", "a", AlertKind.CLEARED, 20, "x", 2).to_json_obj())
        log.write_text(raised + "\n" + cleared[:25])  # the cleared write was cut short
        engine = RuleEngine([Rule("r1", 3, clear_consecutive=1)], alert_log=alert_log)
        assert "torn record tail" in caplog.text
        assert log.read_text() == raised + "\n" + " " * 25  # blanked, so the file keeps its size
        assert engine.observe("a", icca(153), 3) == []  # still active
        assert [e.kind for e in engine.observe("a", icca(20), 4)] == [AlertKind.CLEARED]
        kinds = [json.loads(line)["kind"] for line in log_data(log).splitlines()]
        assert kinds == ["raised", "cleared"]

    def test_corrupt_alert_log_line_raises_storage_error(self, tmp_path, alert_log):
        (tmp_path / "alerts.ndjson").write_text('{"rule_id":"r1"}\n')
        with pytest.raises(StorageError, match=r"alerts\.ndjson:1: corrupt alert event"):
            RuleEngine([Rule("r1", 3)], alert_log=alert_log)

    def test_states_independent_per_station(self, alert_log):
        engine = RuleEngine([Rule("r1", 3)], alert_log=alert_log)
        assert len(engine.observe("a", icca(153), 1)) == 1
        assert len(engine.observe("b", icca(153), 1)) == 1

    def test_config_loading(self, tmp_path, receiver, alert_log):
        handler, url = receiver
        cfg = {
            "rules": [{"rule_id": "unhealthy", "trigger_category_min": 3,
                       "clear_consecutive": 2, "sink_ids": ["hook"]}],
            "sinks": [{"sink_id": "hook", "type": "webhook", "url": url, "timeout": 0.5}],
        }
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(cfg))
        engine = load_rules_config(path, alert_log=alert_log)
        assert engine.rules[0].rule_id == "unhealthy"
        assert engine.rules[0].clear_consecutive == 2
        assert engine.rules[0].sink_ids == ("hook",)
        assert engine.sinks["hook"].url == url
        assert engine.sinks["hook"].timeout == 0.5
        assert engine.alert_log is alert_log
        [event] = engine.observe("utec-01", icca(170), ts=9)
        engine.notify([event])
        assert handler.bodies == [event.to_json_obj()]
        assert engine.failed_deliveries == 0

    def test_unknown_sink_id_rejected_at_construction(self, alert_log):
        with pytest.raises(ValueError, match="unknown sink 'missing'"):
            RuleEngine([Rule("r1", 3, sink_ids=("missing",))], {}, alert_log=alert_log)

    def test_config_rejects_unknown_sink_type(self, tmp_path, alert_log):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"sinks": [{"sink_id": "x", "type": "carrier-pigeon"}]}))
        with pytest.raises(ValueError):
            load_rules_config(path, alert_log=alert_log)

    @pytest.mark.parametrize("cfg", [
        {"rules": [{"trigger_category_min": 3}]},
        {"rules": [{"rule_id": "r", "trigger_category_min": "3"}]},
        {"rules": {"rule_id": "r"}},
        {"sinks": [{"sink_id": "x", "type": "file"}]},
        [],
        "{nope",  # written as is: not JSON
        {"rules": [{"rule_id": "r", "trigger_category_min": 9}]},
        {"rules": [{"rule_id": "r", "trigger_category_min": 3, "sink_ids": ["nope"]}]},
        {"rules": [], "alert_log": "alerts.ndjson"},
        {"rules": [{"rule_id": "r", "trigger_category_min": 3, "clear_after": 2}]},
        {"sinks": [{"sink_id": "f", "type": "file", "path": "a.ndjson", "mode": "w"}]},
        {"sinks": [{"sink_id": "w", "type": "webhook", "url": "http://x", "timeout": "x"}]},
        {"sinks": [{"sink_id": "w", "type": "webhook", "url": "http://x", "timeout": 0}]},
        {"sinks": [{"sink_id": "w", "type": "webhook", "url": "http://x", "timeout": True}]},
        {"sinks": [{"sink_id": "w", "type": "webhook", "url": 5}]},
        {"sinks": [{"sink_id": "f", "type": "file", "path": 5}]},
        {"sinks": [{"sink_id": "f", "type": "file", "path": "a.ndjson"}]},  # no file sinks
        {"rules": [{"rule_id": "r", "trigger_category_min": True}]},
        {"rules": [{"rule_id": "r", "trigger_category_min": 3.0}]},
        {"rules": [{"rule_id": "r", "trigger_category_min": 3, "clear_consecutive": 2.5}]},
        {"rules": [{"rule_id": 5, "trigger_category_min": 3}]},
        {"rules": [{"rule_id": "r", "trigger_category_min": 3},
                   {"rule_id": "r", "trigger_category_min": 2}]},
        {"rules": [], "sinks": {}},
        {"rules": [{"rule_id": "r", "trigger_category_min": 3, "sink_ids": "ab"}],
         "sinks": [{"sink_id": "a", "type": "webhook", "url": "http://x"},
                   {"sink_id": "b", "type": "webhook", "url": "http://x"}]},
        {"sinks": [{"sink_id": "w", "type": "webhook", "url": "localhost:9000/hook"}]},
        {"sinks": [{"sink_id": "w", "type": "webhook", "url": "file:///etc/passwd"}]},
        {"sinks": [{"sink_id": "w", "type": "webhook", "url": "ftp://x/hook"}]},
        {"sinks": [{"sink_id": "w", "type": "webhook", "url": "http://"}]},
        {"sinks": [{"sink_id": "w", "url": "http://x"}]},  # no type
        pytest.param('{"rules": ' + "[" * 4000 + "]" * 4000 + "}", id="nested-too-deep"),
        pytest.param('{"sinks": [{"sink_id": "w", "type": "webhook", "url": "http://x", '
                     '"timeout": ' + "9" * 400 + "}]}", id="400-digit-timeout"),
        pytest.param({"sinks": [{"sink_id": "w", "type": "webhook", "url": "http://x",
                                 "timeout": math.inf}]}, id="infinite-timeout"),
        # the later sink would replace the earlier one, and take its deliveries
        pytest.param({"rules": [{"rule_id": "r", "trigger_category_min": 3, "sink_ids": ["w"]}],
                      "sinks": [{"sink_id": "w", "type": "webhook", "url": "http://a/hook"},
                                {"sink_id": "w", "type": "webhook", "url": "http://b/hook"}]},
                     id="repeated-sink-id"),
        # each event would be POSTed to the sink twice
        pytest.param({"rules": [{"rule_id": "r", "trigger_category_min": 3,
                                 "sink_ids": ["w", "w"]}],
                      "sinks": [{"sink_id": "w", "type": "webhook", "url": "http://a/hook"}]},
                     id="sink-listed-twice-by-a-rule"),
    ])
    def test_config_bad_entry_names_the_file(self, tmp_path, alert_log, cfg):
        path = tmp_path / "rules.json"
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        with pytest.raises(ValueError, match="rules.json"):
            load_rules_config(path, alert_log=alert_log)
