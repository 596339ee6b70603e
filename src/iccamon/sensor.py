"""Wire-level emulation of the station's sensors.

The particulate sensor speaks a fixed 32-byte binary frame: a 2-byte
header, a big-endian u16 payload length (always 28), thirteen big-endian
u16 data words, and a 16-bit byte-sum checksum over everything before it.
PmFrame is those thirteen words, in wire order, as a tuple; the codec
packs and unpacks it with one struct call each way. The temperature
sensor exposes a signed 16-bit register in sixteenths of a degree Celsius.
Both codecs are bit-exact contracts shared by the node simulator and any
future hardware bridge.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

FRAME_HEADER = b"\x42\x4d"
FRAME_LEN = 32
_PAYLOAD_LEN = 28  # 13 data words + checksum word


class FrameError(ValueError):
    """Base for frame decode failures."""


class BadHeader(FrameError):
    pass


class BadLength(FrameError):
    pass


class BadChecksum(FrameError):
    pass


class PmFrame(NamedTuple):
    """One particulate reading: the frame's 13 u16 data words, in wire order."""

    pm1_0_std: int = 0
    pm2_5_std: int = 0
    pm10_std: int = 0
    pm1_0_atm: int = 0
    pm2_5_atm: int = 0
    pm10_atm: int = 0
    counts_0_3um: int = 0
    counts_0_5um: int = 0
    counts_1_0um: int = 0
    counts_2_5um: int = 0
    counts_5_0um: int = 0
    counts_10um: int = 0
    reserved: int = 0


def encode_pm_frame(frame: PmFrame) -> bytes:
    """Serialize a frame to its exact 32-byte wire form."""
    for name, word in zip(frame._fields, frame):
        if not isinstance(word, int) or isinstance(word, bool) or not 0 <= word <= 0xFFFF:
            raise ValueError(f"{name} must be an unsigned 16-bit integer, got {word!r}")
    body = FRAME_HEADER + struct.pack(">H13H", _PAYLOAD_LEN, *frame)
    checksum = sum(body) & 0xFFFF
    return body + struct.pack(">H", checksum)


def decode_pm_frame(data: bytes) -> PmFrame:
    """Parse exactly one frame from the start of `data`.

    Raises BadHeader, BadLength, or BadChecksum; extra trailing bytes are
    ignored.
    """
    if len(data) < 4:
        raise BadLength(f"need at least 4 bytes, got {len(data)}")
    if data[:2] != FRAME_HEADER:
        raise BadHeader(f"expected header {FRAME_HEADER.hex()}, got {data[:2].hex()}")
    (length,) = struct.unpack_from(">H", data, 2)
    if length != _PAYLOAD_LEN:
        raise BadLength(f"expected payload length {_PAYLOAD_LEN}, got {length}")
    if len(data) < FRAME_LEN:
        raise BadLength(f"frame truncated: {len(data)} of {FRAME_LEN} bytes")
    (stored,) = struct.unpack_from(">H", data, FRAME_LEN - 2)
    computed = sum(data[: FRAME_LEN - 2]) & 0xFFFF
    if stored != computed:
        raise BadChecksum(f"checksum 0x{stored:04x} != computed 0x{computed:04x}")
    return PmFrame._make(struct.unpack_from(">13H", data, 4))


def encode_temp(celsius: float) -> int:
    """Celsius to the raw register value (sixteenths of a degree)."""
    raw = round(celsius * 16)
    if not -0x8000 <= raw <= 0x7FFF:
        raise ValueError(f"temperature {celsius} does not fit the 16-bit register")
    return raw & 0xFFFF


def decode_temp(raw: int) -> float:
    """Raw register (two's complement 16-bit) to degrees Celsius."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ValueError(f"raw register must be an integer, got {raw!r}")
    if not -0x8000 <= raw <= 0xFFFF:
        raise ValueError(f"raw register out of 16-bit range: {raw}")
    raw &= 0xFFFF
    if raw >= 0x8000:
        raw -= 0x10000
    return raw / 16.0


def dump_pm_frame(data: bytes) -> str:
    """Debug rendering: hex bytes plus decoded fields (or the decode error)."""
    shown = data[:FRAME_LEN]
    hex_row = " ".join(f"{b:02x}" for b in shown)
    lines = [f"frame[{len(shown)}]: {hex_row}"]
    try:
        frame = decode_pm_frame(data)
    except FrameError as exc:
        lines.append(f"  decode failed: {exc}")
    else:
        for name, word in zip(frame._fields, frame):
            lines.append(f"  {name:>13} = {word}")
    return "\n".join(lines)
