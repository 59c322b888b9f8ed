import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsense.pointio import (
    BadMagic,
    NonMonotonicTimestamps,
    PointRecord,
    ScanFrame,
    TruncatedFile,
    UnsupportedFormat,
    read_columnar,
    read_las,
    read_points,
    read_tensor,
    window_frames,
    write_columnar,
    write_las,
    write_tensor,
)


def sample_records(rng, n=50, t_step=2000):
    return [PointRecord(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)),
                        float(rng.uniform(-20, 20)), float(rng.uniform(0, 1)),
                        int(i * t_step)) for i, _ in enumerate(range(n))]


class TestColumnar:
    def test_round_trip_byte_identical(self, tmp_path, rng):
        path = tmp_path / "pts.xyz"
        write_columnar(path, sample_records(rng))
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

    def test_coordinates_survive_to_millimeter(self, tmp_path):
        path = tmp_path / "mm.xyz"
        write_columnar(path, [PointRecord(1.23456, -2.7182, 3.1415, 0.5, 42)])
        rec = next(read_columnar(path))
        assert rec.x == pytest.approx(1.235, abs=5e-4)
        assert rec.y == pytest.approx(-2.718, abs=5e-4)
        assert rec.t_us == 42


class TestLas:
    def test_known_fixture_decodes_to_hand_values(self, tmp_path):
        # hand-assembled: scale 0.001, offset (100, -5, 2), three points
        path = tmp_path / "fix.las"
        header = bytearray(227)
        header[0:4] = b"LASF"
        header[24], header[25] = 1, 2
        struct.pack_into("<H", header, 94, 227)
        struct.pack_into("<I", header, 96, 227)
        header[104] = 3
        struct.pack_into("<H", header, 105, 34)
        struct.pack_into("<I", header, 107, 3)
        struct.pack_into("<ddd", header, 131, 0.001, 0.001, 0.001)
        struct.pack_into("<ddd", header, 155, 100.0, -5.0, 2.0)
        body = b""
        raw = [(1500, -2000, 250, 32768, 0.25), (0, 0, 0, 0, 0.5),
               (-1000, 4000, -3000, 65535, 1.0)]
        for xi, yi, zi, inten, gps_s in raw:
            body += struct.pack("<iiiHBBbBH", xi, yi, zi, inten, 0x11, 0, 0, 0, 0)
            body += struct.pack("<d", gps_s)
            body += struct.pack("<HHH", 0, 0, 0)
        path.write_bytes(bytes(header) + body)
        recs = list(read_las(path))
        assert len(recs) == 3
        assert recs[0].x == pytest.approx(101.5, abs=1e-9)
        assert recs[0].y == pytest.approx(-7.0, abs=1e-9)
        assert recs[0].z == pytest.approx(2.25, abs=1e-9)
        assert recs[0].intensity == pytest.approx(32768 / 65535)
        assert recs[0].t_us == 250_000
        assert recs[2].x == pytest.approx(99.0, abs=1e-9)
        assert recs[2].t_us == 1_000_000

    def test_write_read_round_trip_to_scale(self, tmp_path, rng):
        path = tmp_path / "rt.las"
        records = sample_records(rng, 30)
        write_las(path, records)
        back = list(read_las(path))
        assert len(back) == 30
        for a, b in zip(records, back):
            assert b.x == pytest.approx(a.x, abs=5.1e-4)
            assert b.y == pytest.approx(a.y, abs=5.1e-4)
            assert b.z == pytest.approx(a.z, abs=5.1e-4)
            assert b.t_us == a.t_us
        # a second pass is exact: quantization happened once
        again = tmp_path / "rt2.las"
        write_las(again, back)
        assert [r for r in read_las(again)] == back

    @pytest.mark.parametrize("field, value", [
        ("x", math.nan), ("y", math.inf), ("z", -math.inf), ("intensity", math.nan),
        ("x", 2147483.648), ("y", -2147483.649),
    ])
    def test_unrepresentable_record_rejected(self, tmp_path, rng, field, value):
        records = sample_records(rng, 5)
        records[3] = dataclasses.replace(records[3], **{field: value})
        path = tmp_path / "bad.las"
        with pytest.raises(ValueError, match="record 3"):
            write_las(path, records)
        assert not path.exists()

    def test_int32_extremes_round_trip(self, tmp_path):
        path = tmp_path / "edge.las"
        write_las(path, [PointRecord(2147483.647, -2147483.648, 0.0, 0.5, 0)])
        (rec,) = read_las(path)
        assert (rec.x, rec.y) == (pytest.approx(2147483.647), pytest.approx(-2147483.648))

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
        write_las(path, sample_records(rng, 2))
        data = bytearray(path.read_bytes())
        data[25] = 4
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormat):
            list(read_las(path))

    def test_unsupported_record_format(self, tmp_path, rng):
        path = tmp_path / "prf0.las"
        write_las(path, sample_records(rng, 2))
        data = bytearray(path.read_bytes())
        data[104] = 0
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormat):
            list(read_las(path))

    def test_truncated_body(self, tmp_path, rng):
        path = tmp_path / "trunc.las"
        write_las(path, sample_records(rng, 4))
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(TruncatedFile):
            list(read_las(path))

    def test_dispatch_by_magic(self, tmp_path, rng):
        las = tmp_path / "a.las"
        txt = tmp_path / "b.xyz"
        write_las(las, sample_records(rng, 3))
        write_columnar(txt, sample_records(rng, 3))
        assert len(list(read_points(las))) == 3
        assert len(list(read_points(txt))) == 3


class TestWindowing:
    def test_half_open_boundary(self):
        recs = [PointRecord(0, 0, 0, 0, 0), PointRecord(0, 0, 0, 0, 99_900),
                PointRecord(0, 0, 0, 0, 100_000)]
        frames = list(window_frames(recs, 100.0))
        assert len(frames) == 2
        assert len(frames[0]) == 2
        assert len(frames[1]) == 1
        assert frames[1].t_start_us == 100_000

    def test_empty_stream(self):
        assert list(window_frames([], 100.0)) == []

    def test_non_monotone_rejected(self):
        recs = [PointRecord(0, 0, 0, 0, 10), PointRecord(0, 0, 0, 0, 5)]
        with pytest.raises(NonMonotonicTimestamps):
            list(window_frames(recs, 100.0))

    def test_partition_conserves_points(self, rng):
        t = np.sort(rng.integers(0, 1_000_000, 500)).astype(int)
        recs = [PointRecord(0, 0, 0, 0, int(ti)) for ti in t]
        frames = list(window_frames(recs, 100.0))
        assert sum(len(f) for f in frames) == 500
        for f in frames:
            assert (f.t_us >= f.t_start_us).all()
            assert (f.t_us < f.t_start_us + f.window_us).all()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), window=st.sampled_from([10.0, 50.0, 100.0]))
    def test_every_point_in_exactly_one_frame(self, seed, window):
        r = np.random.default_rng(seed)
        t = np.sort(r.integers(0, 400_000, 200)).astype(int)
        recs = [PointRecord(float(i), 0, 0, 0, int(ti)) for i, ti in enumerate(t)]
        frames = list(window_frames(recs, window))
        seen = [p for f in frames for p in f.points[:, 0].tolist()]
        assert sorted(seen) == sorted(float(i) for i in range(200))

    def test_generator_count_audit(self):
        from airsense.lidar_sim import ScanPattern, gen_pattern
        spec = ScanPattern(points_per_second=240_000, seed=2)
        rays = gen_pattern(spec, 1000.0)
        recs = [PointRecord(0, 0, 0, 0, int(t)) for t in rays.t_us]
        frames = list(window_frames(recs, 100.0))
        assert len(frames) == 10
        assert all(len(f) == 24_000 for f in frames)


class TestTensorFormat:
    def test_round_trip_preserves_shape_and_values(self, tmp_path, rng):
        arr = rng.normal(size=(5, 4, 3))
        path = tmp_path / "t.txt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        np.testing.assert_allclose(back, arr, rtol=1e-8)

    def test_one_dimensional(self, tmp_path):
        path = tmp_path / "v.txt"
        write_tensor(path, np.array([1.0, 2.5, -3.0]))
        np.testing.assert_allclose(read_tensor(path), [1.0, 2.5, -3.0])

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(BadMagic):
            read_tensor(path)

    def test_truncated_values_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("tensor 2 2\n1 2\n")
        with pytest.raises(TruncatedFile):
            read_tensor(path)


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
