"""Category-transition alerting with hysteresis.

A rule raises when a station's index reaches its trigger category and
clears only after a configurable number of consecutive evaluations below
it, so noisy readings near a boundary don't flap. Events are appended to
the alert log, read back at start so rule states survive a restart, and
sent to webhook sinks by notify, once the caller holds no lock. A failure
of either is logged, never raised. The rules file is read with the store's
load_config and check_keys, as every config file is.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from urllib.error import HTTPError
from urllib.parse import urlsplit
from urllib.request import HTTPRedirectHandler, Request, build_opener

from .icca import IccaResult
from .store import NdjsonLog, StorageError, _encode, check_keys, load_config

logger = logging.getLogger(__name__)

WEBHOOK_TIMEOUT_S = 5.0  # a webhook sink's default per-delivery timeout


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


_IDLE = RuleState()  # the state of a pair with no evaluation yet


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


class _NoRedirect(HTTPRedirectHandler):
    """Follows no redirect, so any 3xx raises HTTPError. urlopen would follow
    a 301, 302 or 303 to a POST as a GET without the body, and count an
    event as delivered that no endpoint received."""

    def redirect_request(self, *args):
        return None


_open = build_opener(_NoRedirect).open


class WebhookSink:
    """POSTs the event's alert-log line, compact UTF-8 JSON, to a configured
    URL. An error status, any redirect or a failed connection raises."""

    def __init__(self, sink_id: str, url: str, timeout: float = WEBHOOK_TIMEOUT_S):
        self.sink_id = sink_id
        self.url = url
        self.timeout = timeout

    def deliver(self, event: AlertEvent) -> None:
        request = Request(self.url, _encode(event.to_json_obj()),
                          {"Content-Type": "application/json"})
        try:
            _open(request, timeout=self.timeout).close()
        except HTTPError as exc:
            with exc:  # the error holds the response, and with it the socket
                raise


def dispatch(event: AlertEvent, sinks) -> int:
    """Deliver an event to each sink, retrying a failure once.

    Never raises; returns how many sinks still failed after their retry,
    each logged with its last error.
    """
    failed = 0
    for sink in sinks:
        for _attempt in range(2):
            try:
                sink.deliver(event)
                break
            except Exception as exc:
                error = exc
        else:
            failed += 1
            # a urllib error does not name the host, so the URL follows it
            logger.warning("sink %s failed after 2 attempts: %s (%s)", sink.sink_id, error, sink.url)
    return failed


def _event_state(obj: dict) -> tuple[tuple[str, str], bool]:
    key = obj["rule_id"], obj["station_id"]
    # here, where read names the line: a list would fail to hash in _recover_states
    if type(key[0]) is not str or type(key[1]) is not str:
        raise TypeError(f"rule_id and station_id must be strings, got {key!r}")
    return key, AlertKind(obj["kind"]) is AlertKind.RAISED


def _recover_states(log: NdjsonLog, rule_ids) -> dict[tuple[str, str], RuleState]:
    """Rule states from an alert log: per (rule, station), active when its
    last event is raised. Events of rules not in rule_ids are ignored. A
    restart loses only a pending clear countdown, which starts from zero.
    """
    return {key: RuleState(active=active)
            for (key, active), _ in log.read(_event_state, "alert event") if key[0] in rule_ids}


class RuleEngine:
    """Evaluates the rule chain on every index update for a station.

    Each event is appended to the alert log, and construction resumes the
    states that log records, so a restart does not raise an active alert a
    second time.
    """

    def __init__(self, rules, sinks=None, *, alert_log: NdjsonLog):
        self.rules = list(rules)
        self.sinks = dict(sinks or {})
        for rule in self.rules:
            for sid in rule.sink_ids:
                if sid not in self.sinks:
                    raise ValueError(f"rule {rule.rule_id!r} names unknown sink {sid!r}")
        self._sinks_of = {r.rule_id: [self.sinks[sid] for sid in r.sink_ids] for r in self.rules}
        if len(self._sinks_of) < len(self.rules):  # states are keyed by rule_id too
            raise ValueError("two rules share a rule_id")
        self.alert_log = alert_log
        self._states: dict[tuple[str, str], RuleState] = _recover_states(
            alert_log, {r.rule_id for r in self.rules})
        self._lock = threading.Lock()
        self.failed_deliveries = 0  # failed alert-log appends, and sinks after their retry

    def observe(self, station_id: str, icca: IccaResult, ts: int) -> list[AlertEvent]:
        """Run every rule against one station index evaluation; the events.

        The caller must only pass indices computed from sufficient windows.
        States change and events are appended to the one alert log under
        the engine's lock. A station's events keep their order because the
        caller serialises each station (ingest holds the store's
        per-station lock). No sink is called: pass the events to notify,
        after releasing any lock that others wait on.
        """
        emitted: list[AlertEvent] = []
        with self._lock:
            for rule in self.rules:
                key = (rule.rule_id, station_id)
                state = self._states.get(key, _IDLE)
                events, new_state = evaluate(rule, station_id, state, icca, ts)
                self._states[key] = new_state
                for event in events:
                    self._log(event)
                emitted += events
        return emitted

    def notify(self, events) -> None:
        """Send each event to its rule's sinks (see dispatch). Holds no lock
        while a sink runs, which may take twice its timeout."""
        for event in events:
            failed = dispatch(event, self._sinks_of[event.rule_id])
            if failed:
                with self._lock:
                    self.failed_deliveries += failed

    def _log(self, event: AlertEvent) -> None:
        """Append an event to the alert log. Call under the lock."""
        try:
            self.alert_log.append(_encode(event.to_json_obj()))
        except StorageError as exc:
            # the frame is stored and still gets its 202; a restart may raise the event again
            logger.error("alert event not logged: %s", exc)
            self.failed_deliveries += 1


def load_rules_config(path: str | Path, *, alert_log: NdjsonLog) -> RuleEngine:
    """Build an engine from a JSON config file that writes alert_log.

    Schema; any other key, or a value of another type, is an error:
        {"rules": [{"rule_id": ..., "trigger_category_min": 1..5,
                    "clear_consecutive": n, "sink_ids": [...]}],
         "sinks": [{"sink_id": ..., "type": "webhook", "url": ..., "timeout": s}]}
    Every error, bad JSON included, is a ValueError naming the file.
    """
    return load_config(path, "rules config", lambda obj: _build_engine(obj, alert_log))


def _build_engine(obj, alert_log) -> RuleEngine:
    check_keys(obj, "top level", rules=list, sinks=list)
    rules = []
    for r in obj.get("rules", ()):
        check_keys(r, "rule", rule_id=str, trigger_category_min=int, clear_consecutive=int,
                   sink_ids=list)
        rules.append(Rule(**{**r, "sink_ids": tuple(r.get("sink_ids", ()))}))
    sinks = {}
    for s in obj.get("sinks", ()):
        if s["type"] != "webhook":
            raise ValueError(f"unknown sink type: {s['type']!r}")
        check_keys(s, "webhook sink", sink_id=str, type=str, url=str, timeout=float)
        url = urlsplit(s["url"])
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"webhook url must be http(s)://host..., got {s['url']!r}")
        timeout = s.get("timeout", WEBHOOK_TIMEOUT_S)
        if timeout <= 0:  # check_keys refused a timeout that is not finite
            raise ValueError(f"webhook timeout must be positive, got {timeout!r}")
        if s["sink_id"] in sinks:  # the later entry would replace the earlier one unseen
            raise ValueError(f"sink_id {s['sink_id']!r} appears twice")
        sinks[s["sink_id"]] = WebhookSink(s["sink_id"], s["url"], timeout)
    return RuleEngine(rules, sinks, alert_log=alert_log)
