"""Category-transition alerting with hysteresis.

A rule raises when a station's index reaches its trigger category and
clears only after a configurable number of consecutive evaluations below
it, so noisy readings near a boundary don't flap. Events go to pluggable
sinks (NDJSON file, outbound webhook); sink failures are logged and
retried once but never block ingestion.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import requests

from .icca import IccaResult

logger = logging.getLogger(__name__)

_JSON_SEP = (",", ":")


@dataclass(frozen=True)
class Rule:
    rule_id: str
    trigger_category_min: int
    clear_consecutive: int = 3
    sink_ids: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= self.trigger_category_min <= 5:
            raise ValueError(f"trigger_category_min must be in 1..5, got {self.trigger_category_min}")
        if self.clear_consecutive < 1:
            raise ValueError("clear_consecutive must be >= 1")


class AlertKind(Enum):
    RAISED = "raised"
    CLEARED = "cleared"


@dataclass(frozen=True)
class AlertEvent:
    rule_id: str
    station_id: str
    kind: AlertKind
    icca_value: int
    category: str
    ts: int

    def to_json_obj(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "station_id": self.station_id,
            "kind": self.kind.value,
            "icca_value": self.icca_value,
            "category": self.category,
            "ts": self.ts,
        }


@dataclass(frozen=True)
class RuleState:
    active: bool = False
    below_count: int = 0


def evaluate(
    rule: Rule, station_id: str, state: RuleState, icca: IccaResult, ts: int
) -> tuple[list[AlertEvent], RuleState]:
    """One pure state transition for a (rule, station) pair.

    Raised fires on the first evaluation at or above the trigger category
    while inactive; Cleared fires after clear_consecutive consecutive
    evaluations strictly below it while active.
    """
    at_or_above = icca.category.ordinal >= rule.trigger_category_min
    if not state.active:
        if at_or_above:
            event = AlertEvent(
                rule.rule_id, station_id, AlertKind.RAISED, icca.value, icca.category.name, ts
            )
            return [event], RuleState(active=True, below_count=0)
        return [], state

    if at_or_above:
        if state.below_count:
            return [], RuleState(active=True, below_count=0)
        return [], state
    below = state.below_count + 1
    if below >= rule.clear_consecutive:
        event = AlertEvent(
            rule.rule_id, station_id, AlertKind.CLEARED, icca.value, icca.category.name, ts
        )
        return [event], RuleState(active=False, below_count=0)
    return [], RuleState(active=True, below_count=below)


@dataclass(frozen=True)
class DeliveryRecord:
    sink_id: str
    ok: bool
    attempts: int
    error: str | None = None


class FileSink:
    """Appends one NDJSON line per event."""

    def __init__(self, sink_id: str, path: str | Path):
        self.sink_id = sink_id
        self.path = Path(path)

    def deliver(self, event: AlertEvent) -> None:
        line = json.dumps(event.to_json_obj(), separators=_JSON_SEP, ensure_ascii=False) + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)


class WebhookSink:
    """POSTs the event as JSON to a configured URL."""

    def __init__(self, sink_id: str, url: str, timeout: float = 5.0):
        self.sink_id = sink_id
        self.url = url
        self.timeout = timeout

    def deliver(self, event: AlertEvent) -> None:
        resp = requests.post(self.url, json=event.to_json_obj(), timeout=self.timeout)
        resp.raise_for_status()


def dispatch(event: AlertEvent, sinks) -> list[DeliveryRecord]:
    """Deliver an event to each sink, retrying a failure once.

    Never raises; failures come back in the delivery records and are
    logged.
    """
    records = []
    for sink in sinks:
        error = None
        attempts = 0
        ok = False
        while attempts < 2 and not ok:
            attempts += 1
            try:
                sink.deliver(event)
                ok = True
            except Exception as exc:
                error = str(exc)
        if not ok:
            logger.warning("sink %s failed after %d attempts: %s", sink.sink_id, attempts, error)
        records.append(DeliveryRecord(sink.sink_id, ok, attempts, None if ok else error))
    return records


class RuleEngine:
    """Evaluates the rule chain on every index update for a station."""

    def __init__(self, rules, sinks=None, alert_log_path: str | Path | None = None):
        self.rules = list(rules)
        self.sinks = dict(sinks or {})
        self.alert_log_path = Path(alert_log_path) if alert_log_path else None
        self._states: dict[tuple[str, str], RuleState] = {}
        self._lock = threading.Lock()
        self.failed_deliveries = 0  # sink deliveries still failing after their retry

    def observe(self, station_id: str, icca: IccaResult, ts: int) -> list[AlertEvent]:
        """Run every rule against one station index evaluation.

        The caller must only pass indices computed from sufficient windows.
        """
        emitted: list[AlertEvent] = []
        with self._lock:
            for rule in self.rules:
                key = (rule.rule_id, station_id)
                state = self._states.get(key, RuleState())
                events, new_state = evaluate(rule, station_id, state, icca, ts)
                self._states[key] = new_state
                for event in events:
                    emitted.append(event)
                    self._record(event, rule)
        return emitted

    def _record(self, event: AlertEvent, rule: Rule) -> None:
        if self.alert_log_path is not None:
            FileSink("alert_log", self.alert_log_path).deliver(event)
        sinks = []
        for sid in rule.sink_ids:
            sink = self.sinks.get(sid)
            if sink is None:
                logger.warning("rule %s references unknown sink %s", rule.rule_id, sid)
            else:
                sinks.append(sink)
        self.failed_deliveries += sum(not r.ok for r in dispatch(event, sinks))


def load_rules_config(path: str | Path) -> RuleEngine:
    """Build an engine from a JSON config file.

    Schema:
        {"rules": [{"rule_id": ..., "trigger_category_min": 1..5,
                    "clear_consecutive": n, "sink_ids": [...]}],
         "sinks": [{"sink_id": ..., "type": "file", "path": ...} |
                   {"sink_id": ..., "type": "webhook", "url": ...}],
         "alert_log": "alerts.ndjson"}   # optional, relative to the config
    """
    path = Path(path)
    obj = json.loads(path.read_text())
    rules = [
        Rule(
            rule_id=r["rule_id"],
            trigger_category_min=r["trigger_category_min"],
            clear_consecutive=r.get("clear_consecutive", 3),
            sink_ids=tuple(r.get("sink_ids", ())),
        )
        for r in obj.get("rules", ())
    ]
    sinks = {}
    for s in obj.get("sinks", ()):
        if s["type"] == "file":
            sinks[s["sink_id"]] = FileSink(s["sink_id"], path.parent / s["path"])
        elif s["type"] == "webhook":
            sinks[s["sink_id"]] = WebhookSink(s["sink_id"], s["url"], s.get("timeout", 5.0))
        else:
            raise ValueError(f"unknown sink type: {s['type']!r}")
    alert_log = obj.get("alert_log")
    alert_log_path = path.parent / alert_log if alert_log else None
    return RuleEngine(rules, sinks, alert_log_path)
