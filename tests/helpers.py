"""Shared set-up for tests that open a store."""

import json
from pathlib import Path

from iccamon.store import Measurement, StationRecord, TimeSeriesStore


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
    return [Measurement.from_json_obj(json.loads(line))
            for line in store.query_range(station_id, t0, t1)]
