"""The original scalar delta+varint codec.

Oracles for :mod:`repro.raster.compression`: one varint at a time, one
interval at a time, Python integers throughout (so nothing can wrap).
The wire format is the product's — per list a varint count, then per
interval a varint gap and a varint length.
"""

from __future__ import annotations

from repro.raster.april import AprilApproximation
from repro.raster.compression import CompressedAprilPayload
from repro.raster.intervals import IntervalList


def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varint cannot encode negative values")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """One varint of ``data`` at ``pos``: the value and the next position."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


def encode_intervals(intervals: IntervalList) -> bytes:
    out = bytearray()
    write_varint(out, len(intervals))
    previous_end = 0
    for start, end in intervals:
        write_varint(out, start - previous_end)
        write_varint(out, end - start)
        previous_end = end
    return bytes(out)


def decode_intervals(data: bytes, pos: int = 0) -> tuple[IntervalList, int]:
    count, pos = read_varint(data, pos)
    pairs = []
    cursor = 0
    for _ in range(count):
        gap, pos = read_varint(data, pos)
        length, pos = read_varint(data, pos)
        start = cursor + gap
        end = start + length
        pairs.append((start, end))
        cursor = end
    return IntervalList(pairs), pos


def decode_one(payload: CompressedAprilPayload, index: int) -> AprilApproximation:
    """Object ``index`` of a payload through the scalar decoder."""
    lo, hi = int(payload.offsets[index]), int(payload.offsets[index + 1])
    data = payload.blob[lo:hi].tobytes()
    p, pos = decode_intervals(data)
    c, pos = decode_intervals(data, pos)
    if pos != len(data):
        raise ValueError(f"payload object {index}: trailing bytes after decode")
    return AprilApproximation(grid=payload.grid, p=p, c=c)
