"""Shared set-up for tests that open a store, and their HTTP client."""

import http.client
import json
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

from iccamon.store import Measurement, StationRecord, TimeSeriesStore

_record_values = itemgetter(*Measurement._fields)


def register(data_dir, *stations: StationRecord) -> Path:
    """Write the station registry under data_dir, as an operator does before
    starting the service, and return data_dir."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    registry = [st.to_json_obj() for st in stations]
    (data_dir / TimeSeriesStore.REGISTRY_FILE).write_text(json.dumps(registry))
    return data_dir


def log_data(path) -> bytes:
    """An NDJSON log's bytes up to its data end: the whole lines, without the
    space padding the store keeps after them."""
    raw = Path(path).read_bytes()
    return raw[:raw.rfind(b"\n") + 1]


def stored(store, station_id, t0=0, t1=2**62) -> list[Measurement]:
    """The records TimeSeriesStore.query_range serves, parsed back from
    their stored lines."""
    return [Measurement(*_record_values(json.loads(line)))
            for line in store.query_range(station_id, t0, t1)]


class Reply(NamedTuple):
    """An HTTP response: its status and its body bytes."""
    status: int
    body: bytes

    def json(self):
        return json.loads(self.body)


def fetch(url: str, body: bytes | None = None, timeout: float = 10.0) -> Reply:
    """GET url, or POST body to it, on a connection of its own."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        conn.request("GET" if body is None else "POST",
                     parts.path + (f"?{parts.query}" if parts.query else ""), body)
        response = conn.getresponse()
        return Reply(response.status, response.read())
    finally:
        conn.close()
