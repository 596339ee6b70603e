import json
import random

import pytest

from iccamon.store import BEYOND_SENSOR_RANGE
from iccamon.telemetry import (
    RejectReason,
    TelemetryFrame,
    parse_and_validate,
    parse_frame,
    serialize,
)

REGISTRY = {"utec-01": "tok-a", "santa-ana": "tok-b"}


def frame(**overrides):
    base = dict(station_id="utec-01", token="tok-a", seq=1, ts=1700000000,
                pm25=12.3, pm10=20.0, temp_c=28.5)
    base.update(overrides)
    return TelemetryFrame(**base)


def validate(text, last_seq=None):
    seqs = last_seq or {}
    return parse_and_validate(
        text, lambda sid: (REGISTRY[sid], seqs.get(sid)) if sid in REGISTRY else None)


class TestSerialize:
    def test_canonical_text(self):
        assert serialize(frame()) == (
            '{"station_id":"utec-01","token":"tok-a","seq":1,"ts":1700000000,'
            '"pm25":12.3,"pm10":20.0,"temp_c":28.5}'
        )

    def test_no_trailing_zeros_beyond_one_decimal(self):
        assert '"pm25":12.3,' in serialize(frame(pm25=12.30))

    def test_one_line(self):
        assert "\n" not in serialize(frame())

    def test_round_trip_random_frames(self):
        rng = random.Random(13)
        for i in range(2000):
            f = TelemetryFrame(
                station_id=rng.choice(("utec-01", "st_2", "a-b-c")),
                token="".join(rng.choice("abcdef0123456789") for _ in range(12)),
                seq=rng.randint(0, 2**64 - 1),
                ts=rng.randint(0, 2**40),
                pm25=round(rng.uniform(0, 999), rng.choice((0, 1, 3))),
                pm10=round(rng.uniform(0, 999), rng.choice((0, 1, 3))),
                temp_c=round(rng.uniform(0, 150), rng.choice((1, 4))),
            )
            assert parse_frame(serialize(f)) == f


class TestParseAndValidate:
    def test_valid_frame_accepted(self):
        out = validate(serialize(frame()))
        assert out.accepted and out.reason is None
        m = out.measurement
        assert (m.station_id, m.seq, m.ts) == ("utec-01", 1, 1700000000)
        assert (m.pm25, m.pm10, m.temp_c) == (12.3, 20.0, 28.5)
        assert m.to_json_obj()["flags"] == []

    def test_key_order_variation_accepted(self):
        obj = json.loads(serialize(frame()))
        shuffled = json.dumps(dict(reversed(list(obj.items()))))
        assert validate(shuffled).accepted

    def test_unknown_key_rejected(self):
        obj = json.loads(serialize(frame()))
        obj["rssi"] = -60
        out = validate(json.dumps(obj))
        assert out.reason is RejectReason.MALFORMED

    def test_missing_key_rejected(self):
        obj = json.loads(serialize(frame()))
        del obj["pm10"]
        assert validate(json.dumps(obj)).reason is RejectReason.MALFORMED

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{",
            "[1,2]",
            '"frame"',
            '{"station_id":"UTEC","token":"tok-a","seq":1,"ts":1,"pm25":1,"pm10":1,"temp_c":1}',
            # "$" also matches before a final newline; the whole id must match
            '{"station_id":"utec-01\\n","token":"tok-a","seq":1,"ts":1,"pm25":1,"pm10":1,"temp_c":1}',
            '{"station_id":"utec-01","token":"tok-a","seq":1.5,"ts":1,"pm25":1,"pm10":1,"temp_c":1}',
            '{"station_id":"utec-01","token":"tok-a","seq":true,"ts":1,"pm25":1,"pm10":1,"temp_c":1}',
            '{"station_id":"utec-01","token":"tok-a","seq":1,"ts":-5,"pm25":1,"pm10":1,"temp_c":1}',
            '{"station_id":"utec-01","token":"tok-a","seq":1,"ts":1,"pm25":"x","pm10":1,"temp_c":1}',
            '{"station_id":"utec-01","token":"tok-a","seq":1,"ts":1,"pm25":NaN,"pm10":1,"temp_c":1}',
            '{"station_id":"utec-01","token":"tok-a","seq":-1,"ts":1,"pm25":1,"pm10":1,"temp_c":1}',
            '{"station_id":"utec-01","token":"","seq":1,"ts":1,"pm25":1,"pm10":1,"temp_c":1}',
            # values a stored record may not hold either (see test_store's
            # TestRecovery)
            pytest.param('{"station_id":"utec-01","token":"tok-a","seq":' + str(2**64)
                         + ',"ts":1,"pm25":1,"pm10":1,"temp_c":1}', id="seq-2**64"),
            '{"station_id":"utec-01","token":"tok-a","seq":1,"ts":1,"pm25":"12.5","pm10":1,"temp_c":1}',
            '{"station_id":"utec-01","token":"tok-a","seq":1,"ts":1,"pm25":1,"pm10":true,"temp_c":1}',
            # the parser's own refusals: nesting too deep, an int no float holds
            pytest.param("[" * 4000 + "]" * 4000, id="nested-too-deep"),
            pytest.param('{"station_id":"utec-01","token":"tok-a","seq":1,"ts":1,"pm25":'
                         + "9" * 400 + ',"pm10":1,"temp_c":1}', id="400-digit-pm25"),
            pytest.param('{"station_id":"utec-01","token":"tok-a","seq":1,"ts":1,"pm25":1,'
                         '"pm10":Infinity,"temp_c":1}', id="infinite-pm10"),
            # ts is a signed 64-bit epoch: one past MAX_TS, and far beyond
            pytest.param('{"station_id":"utec-01","token":"tok-a","seq":1,"ts":' + str(2**63)
                         + ',"pm25":1,"pm10":1,"temp_c":1}', id="ts-2**63"),
            pytest.param('{"station_id":"utec-01","token":"tok-a","seq":1,"ts":' + str(10**50)
                         + ',"pm25":1,"pm10":1,"temp_c":1}', id="ts-10**50"),
        ],
    )
    def test_malformed_inputs(self, text):
        assert validate(text).reason is RejectReason.MALFORMED

    def test_unknown_station(self):
        out = validate(serialize(frame(station_id="nowhere", token="tok-a")))
        assert out.reason is RejectReason.UNKNOWN_STATION

    def test_bad_token(self):
        out = validate(serialize(frame(token="wrong")))
        assert out.reason is RejectReason.BAD_TOKEN

    @pytest.mark.parametrize("token", ["tök-a", "tok-a\u00e9", "\ud800", "tok-\udfff"])
    def test_non_ascii_wrong_token_is_bad_token(self, token):
        # compared as UTF-8 bytes: a str compare_digest raises on non-ASCII
        out = validate(serialize(frame(token=token)))
        assert out.reason is RejectReason.BAD_TOKEN

    @pytest.mark.parametrize("token", ["clé-ñandú", "\ud800"])
    def test_non_ascii_registered_token_accepted(self, token):
        text = serialize(frame(token=token))
        assert parse_and_validate(text, lambda sid: (token, None)).accepted
        assert parse_and_validate(text, lambda sid: (token + "x", None)).reason is \
            RejectReason.BAD_TOKEN

    def test_duplicate_seq(self):
        out = validate(serialize(frame(seq=7)), last_seq={"utec-01": 7})
        assert out.reason is RejectReason.DUPLICATE_SEQ

    def test_stale_seq(self):
        out = validate(serialize(frame(seq=3)), last_seq={"utec-01": 7})
        assert out.reason is RejectReason.STALE_SEQ

    def test_fresh_station_accepts_any_seq(self):
        assert validate(serialize(frame(seq=41))).accepted

    def test_out_of_range_temperature(self):
        out = validate(serialize(frame(temp_c=151)))
        assert out.reason is RejectReason.OUT_OF_RANGE
        assert validate(serialize(frame(temp_c=150.5))).reason is RejectReason.OUT_OF_RANGE
        assert validate(serialize(frame(temp_c=150))).accepted
        assert validate(serialize(frame(temp_c=0))).accepted
        assert validate(serialize(frame(temp_c=-0.5))).reason is RejectReason.OUT_OF_RANGE

    def test_out_of_range_pm(self):
        # pm_max is exclusive; negative values parse fine but fail the range check
        assert validate(serialize(frame(pm25=1000.0))).reason is RejectReason.OUT_OF_RANGE
        assert validate(serialize(frame(pm10=-1.0))).reason is RejectReason.OUT_OF_RANGE
        assert validate(serialize(frame(pm25=999.9))).accepted

    def test_beyond_sensor_range_flag(self):
        out = validate(serialize(frame(pm25=612.0)))
        assert out.accepted
        assert out.measurement.to_json_obj()["flags"] == [BEYOND_SENSOR_RANGE]
        # at the sensor ceiling exactly: no flag
        assert validate(serialize(frame(pm25=500.0))).measurement.to_json_obj()["flags"] == []

    def test_validation_is_pure_and_replayable(self):
        text = serialize(frame())
        assert validate(text) == validate(text)


class TestAcceptedInvariants:
    def test_no_accepted_frame_violates_measurement_invariants(self):
        rng = random.Random(77)
        for _ in range(1000):
            f = frame(
                seq=rng.randint(1, 10**9),
                pm25=round(rng.uniform(-50, 1100), 1),
                pm10=round(rng.uniform(-50, 1100), 1),
                temp_c=round(rng.uniform(-20, 170), 1),
            )
            out = validate(serialize(f))
            if out.accepted:
                m = out.measurement
                assert 0 <= m.pm25 < 1000 and 0 <= m.pm10 < 1000
                assert 0 <= m.temp_c <= 150
                if m.pm25 > 500 or m.pm10 > 500:
                    assert BEYOND_SENSOR_RANGE in m.to_json_obj()["flags"]
