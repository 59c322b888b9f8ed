import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airsense import pointio
from airsense.pointio import (
    BadMagic,
    NonMonotonicTimestamps,
    PointFormatError,
    ScanFrame,
    TruncatedFile,
    UnsupportedFormat,
    read_columnar,
    read_las,
    read_points,
    window_frames,
    write_columnar,
    write_las,
)
from oracles import read_las_records, window_records


def sample_frame(rng, n=50, t_step=2000):
    """n returns, one every t_step us from 0."""
    cols = rng.uniform([-50, -50, -20, 0], [50, 50, 20, 1], size=(n, 4))
    return ScanFrame(cols[:, :3], cols[:, 3], np.arange(n) * t_step, 0, max(n, 1) * t_step)


def blocks_of(t, x=None):
    """A one-block stream of returns at times t, x-coordinate x (default 0)."""
    t = np.asarray(t, dtype=np.int64)
    pts = np.zeros((len(t), 3))
    if x is not None:
        pts[:, 0] = x
    return [ScanFrame(pts, np.zeros(len(t)), t, int(t.min()), int(np.ptp(t)) + 1)]


def joined(blocks):
    """A block stream's returns as one (points, intensity, t_us)."""
    blocks = [ScanFrame.empty()] + list(blocks)
    return tuple(np.concatenate([getattr(b, c) for b in blocks])
                 for c in ("points", "intensity", "t_us"))


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.t_start_us, g.window_us) == (w.t_start_us, w.window_us)
        for c in ("points", "intensity", "t_us"):
            assert np.array_equal(getattr(g, c), getattr(w, c))


def las_bytes(xyz, intensity, gps, scale=(0.001,) * 3, offset=(0.0,) * 3,
              rec_len=34, data_offset=227, fill=0):
    """A LAS 1.2 PRF3 file built record by record with struct; header gap
    and record padding hold the byte `fill`."""
    header = bytearray([fill]) * data_offset
    header[:227] = bytes(227)
    header[0:4] = b"LASF"
    header[24], header[25] = 1, 2
    struct.pack_into("<H", header, 94, 227)
    struct.pack_into("<I", header, 96, data_offset)
    header[104] = 3
    struct.pack_into("<H", header, 105, rec_len)
    struct.pack_into("<I", header, 107, len(gps))
    struct.pack_into("<ddd", header, 131, *scale)
    struct.pack_into("<ddd", header, 155, *offset)
    body = b""
    for (xi, yi, zi), inten, gps_s in zip(xyz, intensity, gps):
        body += struct.pack("<iiiHBBbBH", xi, yi, zi, inten, 0x11, 0, 0, 0, 0)
        body += struct.pack("<d", gps_s)
        body += struct.pack("<HHH", 0, 0, 0)
        body += bytes([fill]) * (rec_len - 34)
    return bytes(header) + body


# hand-assembled: scale 0.001, offset (100, -5, 2), three points
HAND = dict(xyz=[(1500, -2000, 250), (0, 0, 0), (-1000, 4000, -3000)],
            intensity=[32768, 0, 65535], gps=[0.25, 0.5, 1.0],
            scale=(0.001, 0.001, 0.001), offset=(100.0, -5.0, 2.0))


def check_hand_values(blocks):
    (blk,) = blocks
    assert len(blk) == 3
    assert blk.points[0, 0] == pytest.approx(101.5, abs=1e-9)
    assert blk.points[0, 1] == pytest.approx(-7.0, abs=1e-9)
    assert blk.points[0, 2] == pytest.approx(2.25, abs=1e-9)
    assert blk.intensity[0] == pytest.approx(32768 / 65535)
    assert blk.t_us[0] == 250_000
    assert blk.points[2, 0] == pytest.approx(99.0, abs=1e-9)
    assert blk.t_us[2] == 1_000_000


class TestColumnar:
    def test_round_trip_byte_identical(self, tmp_path, rng):
        path = tmp_path / "pts.xyz"
        write_columnar(path, [sample_frame(rng)])
        first = path.read_bytes()
        again = tmp_path / "again.xyz"
        write_columnar(again, read_columnar(path))
        assert again.read_bytes() == first

    def test_empty_file_empty_stream(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("")
        assert list(read_columnar(path)) == []

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1.0 2.0 3.0\n")
        with pytest.raises(TruncatedFile):
            list(read_columnar(path))

    def test_time_beyond_int64_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "late.xyz"
        path.write_text(f"1 2 3 0.5 0\n\n1 2 3 0.5 {2**63}\n")
        with pytest.raises(TruncatedFile, match=":3: time"):
            list(read_columnar(path))

    @pytest.mark.parametrize("line", ["1 2 nan 0.5 10", "1 inf 3 0.5 20", "1 2 3 -inf 30"])
    def test_non_finite_value_rejected_with_its_line(self, tmp_path, line):
        path = tmp_path / "nan.xyz"
        path.write_text(f"1 2 3 0.5 0\n\n{line}\n")
        with pytest.raises(TruncatedFile, match=":3: x, y, z, intensity .* must be finite"):
            list(read_columnar(path))

    def test_coordinates_survive_to_millimeter(self, tmp_path):
        path = tmp_path / "mm.xyz"
        write_columnar(path, [ScanFrame([[1.23456, -2.7182, 3.1415]], [0.5], [42], 42, 1)])
        blk = next(read_columnar(path))
        assert blk.points[0, 0] == pytest.approx(1.235, abs=5e-4)
        assert blk.points[0, 1] == pytest.approx(-2.718, abs=5e-4)
        assert blk.t_us[0] == 42

    def test_blocks_hold_at_most_block_returns(self, tmp_path, rng):
        path = tmp_path / "pts.xyz"
        write_columnar(path, [sample_frame(rng, 20)])
        whole = list(read_columnar(path))
        with mock.patch.object(pointio, "_BLOCK", 7):
            blocks = list(read_columnar(path))
        assert [len(b) for b in blocks] == [7, 7, 6]
        for a, b in zip(joined(blocks), joined(whole)):
            assert np.array_equal(a, b)


class TestLas:
    def test_known_fixture_decodes_to_hand_values(self, tmp_path):
        path = tmp_path / "fix.las"
        path.write_bytes(las_bytes(**HAND))
        check_hand_values(read_las(path))

    @pytest.mark.parametrize("rec_len, data_offset", [(36, 227), (34, 300)])
    def test_padded_records_and_header_gap_decode_to_hand_values(self, tmp_path, rec_len,
                                                                 data_offset):
        path = tmp_path / "fix.las"
        path.write_bytes(las_bytes(**HAND, rec_len=rec_len, data_offset=data_offset,
                                   fill=0xAB))
        check_hand_values(read_las(path))

    @pytest.mark.parametrize("rec_len", [34, 36])
    @pytest.mark.parametrize("block", [1 << 16, 7])
    def test_xyz_is_the_records_scaled_and_offset(self, tmp_path, rec_len, block):
        """Exactly rec["xyz"] * scale + offset, at a scale and offset away
        from the defaults, in one block and in many."""
        r = np.random.default_rng(rec_len)
        ints = r.integers(-2**31, 2**31, (40, 3))
        scale, offset = (0.0031, 0.0257, 0.25), (5.1, -3.7, 1e3 / 3)
        path = tmp_path / "f.las"
        path.write_bytes(las_bytes(ints.tolist(), [0] * 40, (np.arange(40) * 1e-3).tolist(),
                                   scale=scale, offset=offset, rec_len=rec_len, fill=0xCD))
        with mock.patch.object(pointio, "_BLOCK", block):
            points, _, _ = joined(read_las(path))
        want = ints.astype(np.int32) * np.array(scale) + np.array(offset)
        assert np.array_equal(points, want)

    def test_write_read_round_trip_to_scale(self, tmp_path, rng):
        path = tmp_path / "rt.las"
        frame = sample_frame(rng, 30)
        write_las(path, [frame])
        points, _, t_us = back = joined(read_las(path))
        assert len(t_us) == 30
        assert points == pytest.approx(frame.points, abs=5.1e-4)
        assert np.array_equal(t_us, frame.t_us)
        # a second pass is exact: quantization happened once
        again = tmp_path / "rt2.las"
        write_las(again, read_las(path))
        assert all(np.array_equal(a, b) for a, b in zip(joined(read_las(again)), back))

    @pytest.mark.parametrize("field, value", [
        ("x", math.nan), ("y", math.inf), ("z", -math.inf), ("intensity", math.nan),
        ("x", 2147483.648), ("y", -2147483.649),
    ])
    def test_unrepresentable_record_rejected(self, tmp_path, rng, field, value):
        frame = sample_frame(rng, 5)
        if field == "intensity":
            frame.intensity[3] = value
        else:
            frame.points[3, "xyz".index(field)] = value
        path = tmp_path / "bad.las"
        with pytest.raises(ValueError, match="record 3"):
            write_las(path, [frame])
        assert not path.exists()

    @pytest.mark.parametrize("gps", [math.nan, math.inf, -math.inf, 1e13])
    def test_bad_gps_time_names_the_record(self, tmp_path, rng, gps):
        path = tmp_path / "t.las"
        write_las(path, [sample_frame(rng, 5)])
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, 227 + 3 * 34 + 20, gps)
        path.write_bytes(bytes(data))
        with pytest.raises(PointFormatError, match="record 3: GPS time"):
            list(read_las(path))

    def test_int32_extremes_round_trip(self, tmp_path):
        path = tmp_path / "edge.las"
        write_las(path, [ScanFrame([[2147483.647, -2147483.648, 0.0]], [0.5], [0], 0, 1)])
        (blk,) = read_las(path)
        assert ((blk.points[0, 0], blk.points[0, 1])
                == (pytest.approx(2147483.647), pytest.approx(-2147483.648)))

    def test_zero_point_file(self, tmp_path):
        path = tmp_path / "none.las"
        write_las(path, [])
        assert list(read_las(path)) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.las"
        path.write_bytes(b"NOPE" + bytes(300))
        with pytest.raises(BadMagic):
            list(read_las(path))

    def test_unsupported_version(self, tmp_path, rng):
        path = tmp_path / "v14.las"
        write_las(path, [sample_frame(rng, 2)])
        data = bytearray(path.read_bytes())
        data[25] = 4
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormat):
            list(read_las(path))

    def test_unsupported_record_format(self, tmp_path, rng):
        path = tmp_path / "prf0.las"
        write_las(path, [sample_frame(rng, 2)])
        data = bytearray(path.read_bytes())
        data[104] = 0
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormat):
            list(read_las(path))

    def test_truncated_body(self, tmp_path, rng):
        path = tmp_path / "trunc.las"
        write_las(path, [sample_frame(rng, 4)])
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(TruncatedFile):
            list(read_las(path))

    def test_truncation_raised_before_the_first_block(self, tmp_path, rng):
        path = tmp_path / "trunc.las"
        write_las(path, [sample_frame(rng, 4)])
        path.write_bytes(path.read_bytes()[:-10])
        with mock.patch.object(pointio, "_BLOCK", 1):
            with pytest.raises(TruncatedFile, match="record 3 truncated"):
                next(read_las(path))

    def test_dispatch_by_magic(self, tmp_path, rng):
        las = tmp_path / "a.las"
        txt = tmp_path / "b.xyz"
        write_las(las, [sample_frame(rng, 3)])
        write_columnar(txt, [sample_frame(rng, 3)])
        assert sum(len(b) for b in read_points(las)) == 3
        assert sum(len(b) for b in read_points(txt)) == 3


class TestWindowing:
    def test_half_open_boundary(self):
        frames = list(window_frames(blocks_of([0, 99_900, 100_000]), 100.0))
        assert len(frames) == 2
        assert len(frames[0]) == 2
        assert len(frames[1]) == 1
        assert frames[1].t_start_us == 100_000

    def test_empty_stream(self):
        assert list(window_frames([], 100.0)) == []

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotonicTimestamps):
            list(window_frames(blocks_of([10, 5]), 100.0))

    def test_non_monotone_across_blocks_rejected(self):
        with pytest.raises(NonMonotonicTimestamps, match="timestamp 5 after 10"):
            list(window_frames(blocks_of([0, 10]) + blocks_of([5, 20]), 100.0))

    def test_partition_conserves_points(self, rng):
        t = np.sort(rng.integers(0, 1_000_000, 500)).astype(int)
        frames = list(window_frames(blocks_of(t), 100.0))
        assert sum(len(f) for f in frames) == 500
        for f in frames:
            assert (f.t_us >= f.t_start_us).all()
            assert (f.t_us < f.t_start_us + f.window_us).all()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), window=st.sampled_from([10.0, 50.0, 100.0]))
    def test_every_point_in_exactly_one_frame(self, seed, window):
        r = np.random.default_rng(seed)
        t = np.sort(r.integers(0, 400_000, 200)).astype(int)
        frames = list(window_frames(blocks_of(t, np.arange(200.0)), window))
        seen = [p for f in frames for p in f.points[:, 0].tolist()]
        assert sorted(seen) == sorted(float(i) for i in range(200))

    def test_generator_count_audit(self):
        from airsense.lidar_sim import ScanPattern, gen_pattern
        spec = ScanPattern(points_per_second=240_000, seed=2)
        t_us = gen_pattern(spec, 1000.0)[1]
        frames = list(window_frames(blocks_of(t_us), 100.0))
        assert len(frames) == 10
        assert all(len(f) == 24_000 for f in frames)

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.sampled_from([0, 0, 1, 999, 100_000, 350_000]), max_size=40),
           start=st.integers(-10**12, 10**12),
           back=st.one_of(st.integers(0, 240), st.sampled_from([7, 14, 21])),
           half=st.booleans(), window_ms=st.sampled_from([0.001, 0.1, 100.0, 250.0]),
           rec_len=st.sampled_from([34, 37]), seed=st.integers(0, 2**32 - 1))
    @example(steps=[], start=0, back=240, half=False, window_ms=100.0, rec_len=34, seed=0)
    @example(steps=[0], start=5, back=240, half=False, window_ms=100.0, rec_len=34, seed=1)
    @example(steps=[0, 1, 1, 1, 1, 1, 1, 0, 1, 1], start=0, back=240, half=False,
             window_ms=0.001, rec_len=34, seed=2)     # t[6] == t[7], across a block edge
    @example(steps=[0, 10, 350_000, 5, 700_000], start=-3, back=240, half=False,
             window_ms=100.0, rec_len=34, seed=3)     # empty windows between frames
    @example(steps=[0, 1, 1, 1, 1, 1, 1, 1, 1], start=0, back=7, half=False,
             window_ms=100.0, rec_len=34, seed=4)     # a step back across a block edge
    def test_matches_record_oracle(self, tmp_path_factory, steps, start, back, half,
                                   window_ms, rec_len, seed):
        """read_las + window_frames equal the record-by-record oracle, at the
        real block size and at 7 returns a block."""
        t = start + np.cumsum(np.asarray(steps, dtype=np.int64))
        t[back:] -= 3   # a step back when back < len(t)
        r = np.random.default_rng(seed)
        n = len(t)
        gps = t * 1e-6 + (5e-7 if half else 0.0)
        path = tmp_path_factory.mktemp("oracle") / "f.las"
        path.write_bytes(las_bytes(r.integers(-2**31, 2**31, (n, 3)).tolist(),
                                   r.integers(0, 65536, n).tolist(), gps.tolist(),
                                   scale=(0.001, 0.01, 0.25), offset=(5.0, -3.5, 1e3),
                                   rec_len=rec_len, data_offset=227 + seed % 5))
        try:
            want = list(window_records(read_las_records(path), window_ms))
        except NonMonotonicTimestamps:
            want = NonMonotonicTimestamps
        for block in (pointio._BLOCK, 7):
            with mock.patch.object(pointio, "_BLOCK", block):
                if want is NonMonotonicTimestamps:
                    with pytest.raises(NonMonotonicTimestamps):
                        list(window_frames(read_las(path), window_ms))
                else:
                    assert_same_frames(list(window_frames(read_las(path), window_ms)), want)


class TestScanFrame:
    def test_timestamps_must_be_inside_window(self):
        with pytest.raises(ValueError):
            ScanFrame(np.zeros((1, 3)), np.zeros(1), np.array([200_000]), 0, 100_000)

    def test_sorted_by_time(self, rng):
        t = rng.integers(0, 100_000, 20).astype(np.int64)
        f = ScanFrame(rng.normal(size=(20, 3)), rng.random(20), t, 0, 100_000)
        s = f.sorted_by_time()
        assert (np.diff(s.t_us) >= 0).all()
        assert len(s) == 20
