"""Point file formats, scan frames, and time windowing.

Two point formats are supported: a columnar text format with one
`x y z intensity t_us` record per line, and a subset of the LAS 1.2 binary
format restricted to point record format 3 (X, Y, Z as scaled int32,
intensity as uint16, GPS time as float64 seconds).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "PointRecord",
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
    "frame_records",
    "read_points",
    "window_frames",
    "write_tensor",
    "read_tensor",
    "write_jsonl",
    "read_jsonl",
]

COLUMNAR_COORD_DECIMALS = 3  # 1 mm on-disk scale
COLUMNAR_INTENSITY_DECIMALS = 6
LAS_HEADER_SIZE = 227
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


@dataclass(frozen=True)
class PointRecord:
    """One LiDAR return: sensor-frame meters, reflectance in [0, 1], time in
    integer microseconds."""

    x: float
    y: float
    z: float
    intensity: float
    t_us: int


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
    def empty(cls, t_start_us: int = 0, window_us: int = 100_000) -> "ScanFrame":
        return cls(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=np.int64),
                   t_start_us, window_us)

    def sorted_by_time(self) -> "ScanFrame":
        order = np.argsort(self.t_us, kind="stable")
        return ScanFrame(self.points[order], self.intensity[order], self.t_us[order],
                         self.t_start_us, self.window_us)


# ---------------------------------------------------------------------------
# columnar text format

def write_columnar(path, records: Iterable[PointRecord]):
    """Write points in the canonical text layout; writing the output of
    read_columnar reproduces the file byte for byte."""
    cd, idd = COLUMNAR_COORD_DECIMALS, COLUMNAR_INTENSITY_DECIMALS
    with open(path, "w") as fh:
        for r in records:
            fh.write(f"{r.x:.{cd}f} {r.y:.{cd}f} {r.z:.{cd}f} "
                     f"{r.intensity:.{idd}f} {int(r.t_us)}\n")


def read_columnar(path) -> Iterator[PointRecord]:
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise TruncatedFile(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
            try:
                yield PointRecord(float(parts[0]), float(parts[1]), float(parts[2]),
                                  float(parts[3]), int(parts[4]))
            except ValueError as exc:
                raise TruncatedFile(f"{path}:{lineno}: {exc}") from exc


# ---------------------------------------------------------------------------
# LAS 1.2 / point record format 3 subset

def write_las(path, records: Iterable[PointRecord],
              scale: tuple[float, float, float] = (0.001, 0.001, 0.001),
              offset: tuple[float, float, float] = (0.0, 0.0, 0.0)):
    """Minimal LAS 1.2 PRF3 writer. Coordinates are quantized to the header
    scale; GPS time stores seconds; intensity maps [0, 1] onto uint16.
    Raises ValueError, writing nothing, for a non-finite intensity or a
    coordinate that does not quantize to an int32."""
    cols = np.array([(r.x, r.y, r.z, r.intensity, r.t_us) for r in records],
                    dtype=np.float64).reshape(-1, 5)
    q = np.rint((cols[:, 0:3] - np.asarray(offset)) / np.asarray(scale))
    fits = ((q >= -2**31) & (q <= 2**31 - 1)).all(axis=1) & np.isfinite(cols[:, 3])
    bad = np.flatnonzero(~fits)
    if len(bad):
        raise ValueError(f"record {bad[0]}: x, y, z, intensity {cols[bad[0], :4].tolist()} "
                         f"must be finite, x, y, z within int32 at scale {scale}, "
                         f"offset {offset}")
    body = np.zeros(len(cols), dtype=_PRF3)
    body["xyz"] = q
    body["intensity"] = np.clip(np.rint(cols[:, 3] * 65535), 0, 65535)
    body["return_bits"] = 0x11
    body["gps_time"] = cols[:, 4] * 1e-6
    # bounds of the stored values, from the integers as the reader sees them
    stored = body["xyz"] * np.asarray(scale) + np.asarray(offset)
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
    struct.pack_into("<ddd", header, 131, *scale)
    struct.pack_into("<ddd", header, 155, *offset)
    struct.pack_into("<dddddd", header, 179, *bounds)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body.tobytes())


def read_las(path) -> Iterator[PointRecord]:
    """Stream PRF3 records, applying the header scale and offset. GPS time is
    rounded back to the nearest microsecond."""
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
        sx, sy, sz = struct.unpack_from("<ddd", header, 131)
        ox, oy, oz = struct.unpack_from("<ddd", header, 155)
        fh.seek(data_offset)
        for i in range(count):
            rec = fh.read(rec_len)
            if len(rec) < rec_len:
                raise TruncatedFile(f"{path}: record {i} truncated")
            xi, yi, zi, inten = struct.unpack_from("<iiiH", rec, 0)
            gps = struct.unpack_from("<d", rec, 20)[0]
            yield PointRecord(xi * sx + ox, yi * sy + oy, zi * sz + oz,
                              inten / 65535.0, round(gps * 1e6))


def read_points(path) -> Iterator[PointRecord]:
    """Dispatch on content: LAS signature or columnar text."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"LASF":
        return read_las(path)
    return read_columnar(path)


# ---------------------------------------------------------------------------
# frame windowing

def window_frames(records: Iterable[PointRecord], window_ms: float = 100.0) -> Iterator[ScanFrame]:
    """Partition a time-ordered stream into half-open windows anchored at the
    first timestamp. Empty windows are skipped; every point lands in exactly
    one frame."""
    window_us = int(round(window_ms * 1000))
    if window_us <= 0:
        raise ValueError("window must be positive")
    t0 = None
    last_t = None
    cur_index = None
    buf_p, buf_i, buf_t = [], [], []

    def flush():
        return ScanFrame(np.array(buf_p, dtype=np.float64).reshape(-1, 3),
                         np.array(buf_i, dtype=np.float64),
                         np.array(buf_t, dtype=np.int64),
                         t0 + cur_index * window_us, window_us)

    for r in records:
        if last_t is not None and r.t_us < last_t:
            raise NonMonotonicTimestamps(
                f"timestamp {r.t_us} after {last_t}; stream must be time ordered")
        last_t = r.t_us
        if t0 is None:
            t0 = r.t_us
        idx = (r.t_us - t0) // window_us
        if cur_index is None:
            cur_index = idx
        if idx != cur_index:
            yield flush()
            buf_p, buf_i, buf_t = [], [], []
            cur_index = idx
        buf_p.append((r.x, r.y, r.z))
        buf_i.append(r.intensity)
        buf_t.append(r.t_us)
    if buf_p:
        yield flush()


def frame_records(frame: ScanFrame) -> Iterator[PointRecord]:
    for i in range(len(frame)):
        yield PointRecord(frame.points[i, 0], frame.points[i, 1], frame.points[i, 2],
                          frame.intensity[i], int(frame.t_us[i]))


# ---------------------------------------------------------------------------
# columnar tensor format (benchmark fixtures)

def write_tensor(path, array: np.ndarray):
    """Text tensor: a `tensor <d0> <d1> ...` header line, then row-major
    values, one line per innermost row."""
    arr = np.asarray(array, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write("tensor " + " ".join(str(d) for d in arr.shape) + "\n")
        flat = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr.reshape(1, -1)
        for row in flat:
            fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")


def read_tensor(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != "tensor":
            raise BadMagic(f"{path}: missing tensor header")
        try:
            shape = tuple(int(d) for d in header[1:])
            values = [float(v) for line in fh for v in line.split()]
        except ValueError as exc:
            raise TruncatedFile(f"{path}: {exc}") from exc
    expected = int(np.prod(shape)) if shape else 0
    if len(values) != expected:
        raise TruncatedFile(f"{path}: expected {expected} values, got {len(values)}")
    return np.array(values).reshape(shape)


# ---------------------------------------------------------------------------
# JSON lines

def write_jsonl(path, rows: Iterable[dict]):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path) -> list[dict]:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
