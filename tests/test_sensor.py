import random

import pytest

from iccamon.sensor import (
    FRAME_HEADER,
    FRAME_LEN,
    BadChecksum,
    BadHeader,
    BadLength,
    PmFrame,
    decode_pm_frame,
    decode_temp,
    dump_pm_frame,
    encode_pm_frame,
    encode_temp,
)

from .oracles import byte_sum_checksum


def random_frame(rng):
    return PmFrame(*(rng.randint(0, 0xFFFF) for _ in range(13)))


class TestEncode:
    def test_zero_frame_layout(self):
        data = encode_pm_frame(PmFrame())
        assert len(data) == FRAME_LEN
        assert data[:2] == FRAME_HEADER
        assert data[2:4] == b"\x00\x1c"
        # 0x42 + 0x4D + 0x00 + 0x1C = 171
        assert data[-2:] == b"\x00\xab"

    def test_single_field_checksum(self):
        data = encode_pm_frame(PmFrame(pm2_5_std=1))
        assert data[-2:] == b"\x00\xac"

    def test_checksum_matches_byte_sum_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            data = encode_pm_frame(random_frame(rng))
            stored = int.from_bytes(data[-2:], "big")
            assert stored == byte_sum_checksum(data[:-2])

    @pytest.mark.parametrize("word, value", [
        ("pm2_5_std", 0x10000),
        ("pm10_std", -1),
        ("pm1_0_atm", True),
        ("counts_0_5um", 1.0),
        ("counts_5_0um", "1"),
        ("reserved", None),
    ])
    def test_rejects_out_of_range_fields(self, word, value):
        with pytest.raises(ValueError, match=f"^{word} must be an unsigned 16-bit integer"):
            encode_pm_frame(PmFrame(**{word: value}))

    def test_fields_are_the_wire_words_in_order(self):
        assert PmFrame._fields == (
            "pm1_0_std", "pm2_5_std", "pm10_std", "pm1_0_atm", "pm2_5_atm", "pm10_atm",
            "counts_0_3um", "counts_0_5um", "counts_1_0um", "counts_2_5um", "counts_5_0um",
            "counts_10um", "reserved")
        assert PmFrame() == (0,) * 13


class TestDecode:
    def test_round_trip_random_frames(self):
        rng = random.Random(99)
        for _ in range(2000):
            frame = random_frame(rng)
            assert decode_pm_frame(encode_pm_frame(frame)) == frame

    def test_consumes_one_frame_ignoring_trailing_bytes(self):
        frame = PmFrame(pm2_5_std=42, pm10_std=7)
        data = encode_pm_frame(frame) + b"\xde\xad\xbe\xef"
        assert decode_pm_frame(data) == frame

    def test_truncated_input(self):
        data = encode_pm_frame(PmFrame())
        with pytest.raises(BadLength):
            decode_pm_frame(data[:31])
        with pytest.raises(BadLength):
            decode_pm_frame(b"\x42")

    def test_bad_header(self):
        data = bytearray(encode_pm_frame(PmFrame()))
        data[0] = 0x41
        with pytest.raises(BadHeader):
            decode_pm_frame(bytes(data))

    def test_bad_declared_length(self):
        data = bytearray(encode_pm_frame(PmFrame()))
        data[3] = 0x1D
        with pytest.raises(BadLength):
            decode_pm_frame(bytes(data))

    def test_bad_checksum(self):
        data = bytearray(encode_pm_frame(PmFrame(pm2_5_std=9)))
        data[5] ^= 0x01
        with pytest.raises(BadChecksum):
            decode_pm_frame(bytes(data))

    def test_corruption_sweep_detects_every_single_byte_change(self):
        # For a byte-sum checksum every single-byte edit is detectable:
        # edits before the checksum change the computed sum, edits inside
        # it change the stored value away from the sum. The sweep pins that
        # the escape set is empty.
        frame = PmFrame(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)
        valid = encode_pm_frame(frame)
        escapes = []
        for pos in range(FRAME_LEN):
            for delta in range(1, 256):
                corrupted = bytearray(valid)
                corrupted[pos] = (corrupted[pos] + delta) & 0xFF
                try:
                    decoded = decode_pm_frame(bytes(corrupted))
                except (BadHeader, BadLength, BadChecksum):
                    continue
                escapes.append((pos, delta, decoded))
        assert escapes == []


class TestTemp:
    def test_zero(self):
        assert decode_temp(0x0000) == 0.0

    def test_positive_register(self):
        assert decode_temp(0x0191) == 25.0625

    def test_negative_register_twos_complement(self):
        assert decode_temp(0xFF6E) == -9.125
        assert decode_temp(-146) == -9.125

    def test_encode_decode_round_trip_on_sixteenths(self):
        rng = random.Random(3)
        for _ in range(500):
            c = rng.randint(-55 * 16, 125 * 16) / 16.0
            assert decode_temp(encode_temp(c)) == c

    def test_register_bounds(self):
        with pytest.raises(ValueError):
            encode_temp(5000.0)
        with pytest.raises(ValueError):
            decode_temp(0x10000)
        with pytest.raises(ValueError, match="must be an integer"):
            decode_temp(25.0)


class TestDump:
    def test_dump_valid_frame(self):
        text = dump_pm_frame(encode_pm_frame(PmFrame(pm2_5_std=33)))
        assert "42 4d" in text
        assert "pm2_5_std" in text and "= 33" in text

    def test_dump_reports_decode_error(self):
        text = dump_pm_frame(b"\x00\x00\x00\x00" + bytes(28))
        assert "decode failed" in text
