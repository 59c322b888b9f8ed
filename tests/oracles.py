"""Oracles that more than one test module checks against."""

import struct

import numpy as np

from airsense.pointio import (LAS_HEADER_SIZE, LAS_PRF3_RECORD_SIZE, BadMagic,
                              NonMonotonicTimestamps, ScanFrame, TruncatedFile,
                              UnsupportedFormat)
from airsense.spconv import FeatureMap, KernelTensor, gather_conv


def reach_oracle(mask, k, stride=1, transposed=False):
    """Cells a k x k scatter from the masked cells reaches, by gathering with
    an all-ones kernel."""
    m = mask.astype(np.float32)[:, :, None]
    if transposed:
        up = np.zeros((m.shape[0] * stride, m.shape[1] * stride, 1), dtype=np.float32)
        up[::stride, ::stride] = m
        m, stride = up, 1
    ones = KernelTensor(np.ones((1, k, k, 1), dtype=np.float32))
    return gather_conv(FeatureMap(m), ones, stride).values[:, :, 0] > 0


def read_las_records(path):
    """The record-by-record LAS reader: one `struct` unpack per PRF3 record,
    yielding (x, y, z, intensity, t_us) tuples."""
    with open(path, "rb") as fh:
        header = fh.read(LAS_HEADER_SIZE)
        if len(header) < LAS_HEADER_SIZE:
            raise TruncatedFile(f"{path}: header shorter than {LAS_HEADER_SIZE} bytes")
        if header[0:4] != b"LASF":
            raise BadMagic(f"{path}: not a LAS file (bad signature)")
        if (header[24], header[25]) != (1, 2) or header[104] != 3:
            raise UnsupportedFormat(f"{path}: need LAS 1.2, point record format 3")
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
            yield (xi * sx + ox, yi * sy + oy, zi * sz + oz, inten / 65535.0,
                   round(gps * 1e6))


def window_records(records, window_ms=100.0):
    """The list-append windower over (x, y, z, intensity, t_us) tuples:
    half-open windows anchored at the first timestamp, empty ones skipped."""
    window_us = int(round(window_ms * 1000))
    t0 = last_t = cur_index = None
    buf_p, buf_i, buf_t = [], [], []

    def flush():
        return ScanFrame(np.array(buf_p, dtype=np.float64).reshape(-1, 3),
                         np.array(buf_i, dtype=np.float64),
                         np.array(buf_t, dtype=np.int64),
                         t0 + cur_index * window_us, window_us)

    for x, y, z, intensity, t in records:
        if last_t is not None and t < last_t:
            raise NonMonotonicTimestamps(
                f"timestamp {t} after {last_t}; stream must be time ordered")
        last_t = t
        if t0 is None:
            t0 = t
        idx = (t - t0) // window_us
        if cur_index is None:
            cur_index = idx
        if idx != cur_index:
            yield flush()
            buf_p, buf_i, buf_t = [], [], []
            cur_index = idx
        buf_p.append((x, y, z))
        buf_i.append(intensity)
        buf_t.append(t)
    if buf_p:
        yield flush()
