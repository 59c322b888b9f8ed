"""Point file formats, scan frames, and time windowing.

Two point formats are supported: a columnar text format with one
`x y z intensity t_us` record per line, and a subset of the LAS 1.2 binary
format restricted to point record format 3 (X, Y, Z as scaled int32,
intensity as uint16, GPS time as float64 seconds). Readers stream a file as
time-ordered `ScanFrame` blocks of at most `_BLOCK` returns, and
`window_frames` cuts such a stream into frames.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "ScanFrame",
    "PointFormatError",
    "BadMagic",
    "TruncatedFile",
    "UnsupportedFormat",
    "NonMonotonicTimestamps",
    "read_columnar",
    "write_columnar",
    "read_las",
    "write_las",
    "read_points",
    "window_frames",
    "write_jsonl",
    "read_jsonl",
]

COLUMNAR_COORD_DECIMALS = 3  # 1 mm on-disk scale
COLUMNAR_INTENSITY_DECIMALS = 6
LAS_HEADER_SIZE = 227
LAS_SCALE = (0.001, 0.001, 0.001)   # 1 mm
LAS_OFFSET = (0.0, 0.0, 0.0)
# point record format 3, little-endian and unpadded
_PRF3 = np.dtype([("xyz", "<i4", 3), ("intensity", "<u2"), ("return_bits", "u1"),
                  ("classification", "u1"), ("scan_angle", "i1"), ("user_data", "u1"),
                  ("point_source", "<u2"), ("gps_time", "<f8"), ("rgb", "<u2", 3)])
LAS_PRF3_RECORD_SIZE = _PRF3.itemsize  # 34


class PointFormatError(Exception):
    """Base error for unreadable point files."""


class BadMagic(PointFormatError):
    pass


class TruncatedFile(PointFormatError):
    pass


class UnsupportedFormat(PointFormatError):
    pass


class NonMonotonicTimestamps(ValueError):
    pass


@dataclass
class ScanFrame:
    """Returns falling in one half-open time window [t_start, t_start + window)."""

    points: np.ndarray      # (n, 3) float64, meters
    intensity: np.ndarray   # (n,) float64
    t_us: np.ndarray        # (n,) int64
    t_start_us: int
    window_us: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.intensity = np.asarray(self.intensity, dtype=np.float64).reshape(-1)
        self.t_us = np.asarray(self.t_us, dtype=np.int64).reshape(-1)
        n = self.points.shape[0]
        if self.intensity.shape[0] != n or self.t_us.shape[0] != n:
            raise ValueError("points, intensity, t_us lengths differ")
        if n and ((self.t_us < self.t_start_us).any()
                  or (self.t_us >= self.t_start_us + self.window_us).any()):
            raise ValueError("timestamps outside the frame window")

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empty(cls) -> "ScanFrame":
        """No returns, in the 100 ms window from t = 0."""
        return cls(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=np.int64), 0, 100_000)

    def sorted_by_time(self) -> "ScanFrame":
        order = np.argsort(self.t_us, kind="stable")
        return ScanFrame(self.points[order], self.intensity[order], self.t_us[order],
                         self.t_start_us, self.window_us)


# ---------------------------------------------------------------------------
# point streams: time-ordered ScanFrame blocks of at most _BLOCK returns

_BLOCK = 1 << 16


def _block(points, intensity, t_us) -> ScanFrame:
    """A read block: its returns, in file order, covering [t_min, t_max + 1)."""
    t_min, t_max = int(t_us.min()), int(t_us.max())
    return ScanFrame(points, intensity, t_us, t_min, t_max - t_min + 1)


# ---------------------------------------------------------------------------
# columnar text format

def write_columnar(path, frames: Iterable[ScanFrame]):
    """Write points in the canonical text layout; writing the output of
    read_columnar reproduces the file byte for byte."""
    cd, idd = COLUMNAR_COORD_DECIMALS, COLUMNAR_INTENSITY_DECIMALS
    with open(path, "w") as fh:
        for f in frames:
            for (x, y, z), i, t in zip(f.points.tolist(), f.intensity.tolist(),
                                       f.t_us.tolist()):
                fh.write(f"{x:.{cd}f} {y:.{cd}f} {z:.{cd}f} {i:.{idd}f} {t}\n")


def read_columnar(path) -> Iterator[ScanFrame]:
    """Stream blocks of at most _BLOCK returns, one per non-blank line.
    Raises TruncatedFile naming the line of a malformed or non-finite row."""
    with open(path) as fh:
        lines = enumerate(fh, 1)
        while True:
            rows, times = [], []
            for lineno, line in lines:
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 5:
                    raise TruncatedFile(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
                try:
                    rows.append([*map(float, parts[:4]), lineno])
                    times.append(int(parts[4]))
                    if not -2**63 <= times[-1] < 2**63:
                        raise ValueError(f"time {times[-1]} us beyond int64")
                except ValueError as exc:
                    raise TruncatedFile(f"{path}:{lineno}: {exc}") from exc
                if len(rows) == _BLOCK:
                    break
            if not rows:
                return
            cols = np.array(rows, dtype=np.float64)   # x, y, z, intensity, line
            bad = np.flatnonzero(~np.isfinite(cols).all(axis=1))
            if len(bad):
                raise TruncatedFile(f"{path}:{int(cols[bad[0], 4])}: x, y, z, intensity "
                                    f"{cols[bad[0], :4].tolist()} must be finite")
            yield _block(cols[:, :3], cols[:, 3], np.array(times, dtype=np.int64))


# ---------------------------------------------------------------------------
# LAS 1.2 / point record format 3 subset

def write_las(path, frames: Iterable[ScanFrame]):
    """Minimal LAS 1.2 PRF3 writer of the frames' returns, in order.
    Coordinates are quantized to LAS_SCALE about LAS_OFFSET; GPS time stores
    seconds; intensity maps [0, 1] onto uint16. Raises ValueError, writing
    nothing, for a non-finite intensity or a coordinate that does not
    quantize to an int32."""
    frames = list(frames) or [ScanFrame.empty()]
    xyz = np.concatenate([f.points for f in frames])
    intensity = np.concatenate([f.intensity for f in frames])
    t_us = np.concatenate([f.t_us for f in frames])
    q = np.rint((xyz - np.asarray(LAS_OFFSET)) / np.asarray(LAS_SCALE))
    fits = ((q >= -2**31) & (q <= 2**31 - 1)).all(axis=1) & np.isfinite(intensity)
    bad = np.flatnonzero(~fits)
    if len(bad):
        i = bad[0]
        raise ValueError(f"record {i}: x, y, z, intensity "
                         f"{[*xyz[i].tolist(), float(intensity[i])]} must be finite, "
                         f"x, y, z within int32 at scale {LAS_SCALE}, offset {LAS_OFFSET}")
    body = np.zeros(len(xyz), dtype=_PRF3)
    body["xyz"] = q
    body["intensity"] = np.clip(np.rint(intensity * 65535), 0, 65535)
    body["return_bits"] = 0x11
    body["gps_time"] = t_us.astype(np.float64) * 1e-6
    # bounds of the stored values, from the integers as the reader sees them
    stored = body["xyz"] * np.asarray(LAS_SCALE) + np.asarray(LAS_OFFSET)
    bounds = (np.column_stack([stored.max(axis=0), stored.min(axis=0)]).ravel()
              if len(stored) else np.zeros(6))

    header = bytearray(LAS_HEADER_SIZE)
    header[0:4] = b"LASF"
    header[24] = 1   # version major
    header[25] = 2   # version minor
    header[26:26 + 8] = b"airsense"
    header[58:58 + 8] = b"airsense"
    struct.pack_into("<H", header, 94, LAS_HEADER_SIZE)
    struct.pack_into("<I", header, 96, LAS_HEADER_SIZE)
    header[104] = 3  # point record format
    struct.pack_into("<H", header, 105, LAS_PRF3_RECORD_SIZE)
    struct.pack_into("<I", header, 107, len(body))
    struct.pack_into("<I", header, 111, len(body))  # points by return[0]
    struct.pack_into("<ddd", header, 131, *LAS_SCALE)
    struct.pack_into("<ddd", header, 155, *LAS_OFFSET)
    struct.pack_into("<dddddd", header, 179, *bounds)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body.tobytes())


def read_las(path) -> Iterator[ScanFrame]:
    """Stream blocks of at most _BLOCK PRF3 records, applying the header
    scale and offset. GPS time is rounded to the nearest microsecond, half
    to even. Raises TruncatedFile before the first block when the header's
    records overrun the file, and PointFormatError for a GPS time that is
    not a finite int64 count of microseconds."""
    with open(path, "rb") as fh:
        header = fh.read(LAS_HEADER_SIZE)
        if len(header) < LAS_HEADER_SIZE:
            raise TruncatedFile(f"{path}: header shorter than {LAS_HEADER_SIZE} bytes")
        if header[0:4] != b"LASF":
            raise BadMagic(f"{path}: not a LAS file (bad signature)")
        major, minor = header[24], header[25]
        if (major, minor) != (1, 2):
            raise UnsupportedFormat(f"{path}: LAS {major}.{minor} unsupported, need 1.2")
        prf = header[104]
        if prf != 3:
            raise UnsupportedFormat(f"{path}: point record format {prf} unsupported, need 3")
        rec_len = struct.unpack_from("<H", header, 105)[0]
        if rec_len < LAS_PRF3_RECORD_SIZE:
            raise UnsupportedFormat(f"{path}: record length {rec_len} < {LAS_PRF3_RECORD_SIZE}")
        count = struct.unpack_from("<I", header, 107)[0]
        data_offset = struct.unpack_from("<I", header, 96)[0]
        scale = np.array(struct.unpack_from("<ddd", header, 131))
        offset = np.array(struct.unpack_from("<ddd", header, 155))
        size = os.fstat(fh.fileno()).st_size
        if count and data_offset + count * rec_len > size:
            first = max(0, (size - data_offset) // rec_len)
            raise TruncatedFile(f"{path}: record {first} truncated")
        # PRF3's fields at their offsets, in records of the header's length
        names = _PRF3.names
        dtype = np.dtype({"names": names, "itemsize": rec_len,
                          "formats": [_PRF3.fields[n][0] for n in names],
                          "offsets": [_PRF3.fields[n][1] for n in names]})
        fh.seek(data_offset)
        for start in range(0, count, _BLOCK):
            n = min(_BLOCK, count - start)
            buf = fh.read(n * rec_len)
            if len(buf) < n * rec_len:
                raise TruncatedFile(f"{path}: record {start + len(buf) // rec_len} truncated")
            rec = np.frombuffer(buf, dtype=dtype)
            us = np.rint(rec["gps_time"] * 1e6)
            bad = np.flatnonzero(~((us >= -2.0**63) & (us < 2.0**63)))
            if len(bad):
                raise PointFormatError(
                    f"{path}: record {start + bad[0]}: GPS time {rec['gps_time'][bad[0]]} s "
                    f"is not a finite int64 count of microseconds")
            # column by column: a length-3 broadcast over the records is
            # about twice as slow and gives the same values
            xyz = np.empty((n, 3))
            for k in range(3):
                np.multiply(rec["xyz"][:, k], scale[k], out=xyz[:, k])
                xyz[:, k] += offset[k]
            yield _block(xyz, rec["intensity"] / 65535.0, us.astype(np.int64))


def read_points(path) -> Iterator[ScanFrame]:
    """Dispatch on content: LAS signature or columnar text."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"LASF":
        return read_las(path)
    return read_columnar(path)


# ---------------------------------------------------------------------------
# frame windowing

def window_frames(blocks: Iterable[ScanFrame], window_ms: float = 100.0) -> Iterator[ScanFrame]:
    """Partition a time-ordered stream of blocks into half-open windows
    anchored at the first timestamp. Empty windows are skipped; every point
    lands in exactly one frame, a slice of its block unless the window spans
    blocks."""
    window_us = round(window_ms * 1000) if math.isfinite(window_ms) else 0
    if not 0 < window_us < 2**63:
        raise ValueError(f"window_ms must be finite and positive, within int64 "
                         f"microseconds, got {window_ms}")
    t0 = last = None
    held, held_index = [], None   # the open window's pieces, oldest first

    def frame(pieces, index):
        cols = (c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*pieces))
        return ScanFrame(*cols, t0 + index * window_us, window_us)

    for block in blocks:
        t = block.t_us
        if not len(t):
            continue
        if t0 is None:
            t0 = last = int(t[0])
        seq = np.concatenate(([last], t))   # the edge with the last block too
        back = np.flatnonzero(seq[1:] < seq[:-1])
        if len(back):
            i = back[0]
            raise NonMonotonicTimestamps(
                f"timestamp {seq[i + 1]} after {seq[i]}; stream must be time ordered")
        last = int(t[-1])
        # differences from t0 of a sorted int64 stream are exact as uint64
        index = (t.astype(np.uint64) - np.uint64(t0 % 2**64)) // np.uint64(window_us)
        cuts = np.flatnonzero(index[1:] != index[:-1]) + 1
        bounds = [0, *cuts.tolist(), len(t)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            piece = (block.points[a:b], block.intensity[a:b], t[a:b])
            k = int(index[a])
            if held and k != held_index:
                yield frame(held, held_index)
                held = []
            held.append(piece)
            held_index = k
    if held:
        yield frame(held, held_index)


def frame_records(frame: ScanFrame) -> Iterator[ScanFrame]:
    """The frame as a one-block point stream. It stays only because the
    benchmark harness (bench/workloads.py) imports it; the next change to
    the benchmark deletes it."""
    return iter((frame,))


# ---------------------------------------------------------------------------
# JSON lines

def write_jsonl(path, rows: Iterable[dict]):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path) -> list[dict]:
    """One JSON value per non-blank line. Raises ValueError naming the file
    line, blank lines counted, of a row that is not valid JSON."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON: {exc.msg} "
                                     f"at column {exc.colno}") from exc
    return rows
