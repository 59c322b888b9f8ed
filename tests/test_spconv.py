import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsense.spconv import FeatureMap, KernelTensor, Sites, conv, gather_conv
from oracles import masked_sites, reach_oracle


def naive_gather(values, weights, stride=1):
    """Quadruple-loop oracle for the oracle: textbook windowed sum."""
    p, q, c = values.shape
    f, k = weights.shape[0], weights.shape[1]
    a = k // 2
    out_p = (p + stride - 1) // stride
    out_q = (q + stride - 1) // stride
    out = np.zeros((out_p, out_q, f))
    for oy in range(out_p):
        for ox in range(out_q):
            acc = np.zeros(f)
            for m in range(k):
                for n in range(k):
                    iy = oy * stride + m - a
                    ix = ox * stride + n - a
                    if 0 <= iy < p and 0 <= ix < q:
                        acc += weights[:, m, n, :].astype(np.float64) @ \
                            values[iy, ix].astype(np.float64)
            out[oy, ox] = acc
    return out


def random_case(rng, p, q, c, f, k, density=1.0):
    values = rng.normal(size=(p, q, c)).astype(np.float32)
    mask = rng.random((p, q)) < density
    values = values * mask[:, :, None]
    kernel = KernelTensor(rng.normal(size=(f, k, k, c)).astype(np.float32))
    return FeatureMap(values), mask, kernel


def dense_conv(fm, kernel, stride=1):
    """The dense engine: every cell is an input and an output site."""
    out, macs = conv(Sites.from_dense(fm), kernel, stride, out="all")
    return out.to_dense(), macs


class TestValidation:
    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            KernelTensor(np.zeros((1, 2, 2, 1), dtype=np.float32))

    def test_channel_mismatch_rejected(self, rng):
        fm = FeatureMap(rng.normal(size=(4, 4, 2)).astype(np.float32))
        kt = KernelTensor(rng.normal(size=(1, 3, 3, 3)).astype(np.float32))
        with pytest.raises(ValueError):
            gather_conv(fm, kt)
        with pytest.raises(ValueError):
            dense_conv(fm, kt)

    def test_submanifold_spec_requires_stride_one(self, rng):
        fm, mask, kt = random_case(rng, 6, 6, 2, 2, 3, density=0.5)
        with pytest.raises(ValueError):
            conv(masked_sites(fm, mask), kt, stride=2, out="same")
        with pytest.raises(ValueError):
            conv(masked_sites(fm, mask), kt, out="submanifold")

    def test_sparse_sites_must_be_sorted_unique(self):
        with pytest.raises(ValueError):
            Sites(4, 4, np.array([5, 0]), np.zeros((2, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            Sites(4, 4, np.array([3, 3]), np.zeros((2, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            Sites(4, 4, np.array([3]), np.zeros((2, 1), dtype=np.float32))


class TestGatherReference:
    def test_identity_kernel(self, rng):
        fm = FeatureMap(rng.normal(size=(6, 5, 1)).astype(np.float32))
        kt = KernelTensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = gather_conv(fm, kt)
        assert np.array_equal(out.values, fm.values)

    def test_zero_input(self, rng):
        fm = FeatureMap(np.zeros((7, 7, 3), dtype=np.float32))
        kt = KernelTensor(rng.normal(size=(2, 3, 3, 3)).astype(np.float32))
        assert not gather_conv(fm, kt).values.any()

    def test_single_pixel_box_expansion(self):
        # 5x5 input, one nonzero pixel at (2,2), all-ones 3x3 kernel:
        # hand expansion gives a 3x3 block of that value centered at (2,2)
        values = np.zeros((5, 5, 1), dtype=np.float32)
        values[2, 2, 0] = 4.25
        kt = KernelTensor(np.ones((1, 3, 3, 1), dtype=np.float32))
        out = gather_conv(FeatureMap(values), kt).values[:, :, 0]
        expected = np.zeros((5, 5), dtype=np.float32)
        expected[1:4, 1:4] = 4.25
        assert np.array_equal(out, expected)

    def test_against_naive_loops(self, rng):
        for stride in (1, 2):
            fm, _, kt = random_case(rng, 7, 6, 3, 2, 3)
            ref = naive_gather(fm.values, kt.weights, stride)
            got = gather_conv(fm, kt, stride).values
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, atol=1e-5)


class TestScatterConv:
    def test_identity_kernel(self, rng):
        fm = FeatureMap(rng.normal(size=(4, 9, 1)).astype(np.float32))
        kt = KernelTensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        assert np.array_equal(dense_conv(fm, kt)[0].values, fm.values)

    def test_tap_lands_one_up_left_of_source(self):
        # source at (2,2), tap (m,n)=(2,2), k=3: contribution lands at
        # (2-2+1, 2-2+1) = (1,1), the seventh cell of a 5x5 grid
        values = np.zeros((5, 5, 1), dtype=np.float32)
        values[2, 2, 0] = 3.0
        weights = np.zeros((1, 3, 3, 1), dtype=np.float32)
        weights[0, 2, 2, 0] = 2.0
        out = dense_conv(FeatureMap(values), KernelTensor(weights))[0].values[:, :, 0]
        assert out[1, 1] == 6.0
        assert np.count_nonzero(out) == 1
        assert np.ravel_multi_index((1, 1), (5, 5)) == 6  # y_7 one-based

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), stride=st.sampled_from([1, 2]),
           k=st.sampled_from([1, 3, 5]))
    def test_matches_gather_oracle(self, seed, stride, k):
        r = np.random.default_rng(seed)
        p, q = int(r.integers(1, 17)), int(r.integers(1, 17))
        c, f = int(r.integers(1, 5)), int(r.integers(1, 5))
        fm, _, kt = random_case(r, p, q, c, f, k)
        ref = gather_conv(fm, kt, stride)
        got, _ = dense_conv(fm, kt, stride)
        np.testing.assert_allclose(got.values, ref.values, atol=1e-5)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_linearity(self, seed):
        r = np.random.default_rng(seed)
        x, _, kt = random_case(r, 8, 8, 2, 3, 3)
        y, _, _ = random_case(r, 8, 8, 2, 3, 3)
        a, b = 0.75, -1.5
        combo = FeatureMap(a * x.values + b * y.values)
        lhs = dense_conv(combo, kt)[0].values
        rhs = a * dense_conv(x, kt)[0].values + b * dense_conv(y, kt)[0].values
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_sequential_bit_reproducible(self, rng):
        fm, _, kt = random_case(rng, 16, 16, 4, 4, 3)
        a, _ = dense_conv(fm, kt)
        b, _ = dense_conv(fm, kt)
        assert np.array_equal(a.values, b.values)


class TestCompaction:
    """Masked sites keep row-major keys, and `Sites.mask` and `to_dense`
    give the mask and the masked map back."""

    def test_tiny_mask(self):
        fm = FeatureMap(np.arange(8, dtype=np.float32).reshape(2, 2, 2))
        mask = np.array([[0, 1], [1, 0]], bool)
        sites = masked_sites(fm, mask)
        assert sites.keys.tolist() == [1, 2]
        assert np.array_equal(sites.feats[0], fm.values[0, 1])
        assert np.array_equal(sites.mask, mask)

    def test_empty_mask(self):
        fm = FeatureMap(np.ones((3, 3, 1), dtype=np.float32))
        sites = masked_sites(fm, np.zeros((3, 3), bool))
        assert len(sites.keys) == 0
        assert not sites.mask.any() and not sites.to_dense().values.any()

    def test_matches_naive_scan(self, rng):
        fm, mask, _ = random_case(rng, 16, 16, 2, 1, 1, density=0.4)
        sites = masked_sites(fm, mask)
        expected = [(r, c) for r in range(16) for c in range(16) if mask[r, c]]
        assert sites.keys.tolist() == [r * 16 + c for r, c in expected]
        assert np.array_equal(sites.mask, mask)
        for (r, c), feat in zip(expected, sites.feats):
            assert np.array_equal(feat, fm.values[r, c])
        assert np.array_equal(sites.to_dense().values, fm.values)  # masked input


class TestSparseScatter:
    def test_empty_sites_zero_output_zero_macs(self):
        sites = Sites(5, 5, np.zeros(0), np.zeros((0, 3), np.float32))
        kt = KernelTensor(np.ones((2, 3, 3, 3), dtype=np.float32))
        out, macs = conv(sites, kt)
        assert not out.to_dense().values.any()
        assert macs == 0

    def test_single_site_nine_multiplies(self):
        sites = Sites(8, 8, np.array([4 * 8 + 4]), np.ones((1, 1), np.float32))
        kt = KernelTensor(np.ones((1, 3, 3, 1), dtype=np.float32))
        _, macs = conv(sites, kt)
        assert macs == 9

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), density=st.floats(0.0, 1.0))
    def test_mac_law(self, seed, density):
        r = np.random.default_rng(seed)
        fm, mask, kt = random_case(r, 12, 10, 3, 2, 3, density)
        sites = masked_sites(fm, mask)
        _, macs = conv(sites, kt)
        assert macs == len(sites.keys) * 9 * 3 * 2

    def test_sparse_consistency_exact(self, rng):
        # sparse path on compacted sites == dense engine on the masked map,
        # value-exact in sequential mode
        fm, mask, kt = random_case(rng, 20, 17, 4, 5, 3, density=0.35)
        sites = masked_sites(fm, mask)
        for stride in (1, 2):
            sparse = conv(sites, kt, stride)[0].to_dense()
            dense, _ = dense_conv(fm, kt, stride)
            assert np.array_equal(sparse.values, dense.values)

    def test_site_out_of_bounds_rejected(self):
        for key in (16, -1):
            with pytest.raises(ValueError):
                Sites(4, 4, np.array([key]), np.zeros((1, 1), np.float32))

    def test_fixture_scale_oracle_and_mac_ratio(self, rng):
        # benchmark-geometry fixture at low channel count: sparse output still
        # equals the gather oracle and the MAC ratio is the site density
        p = q = 504
        sites = 5124
        c = f = 2
        flat = rng.choice(p * q, size=sites, replace=False)
        mask = np.zeros(p * q, dtype=bool)
        mask[flat] = True
        mask = mask.reshape(p, q)
        values = np.zeros((p, q, c), dtype=np.float32)
        values[mask] = rng.normal(size=(sites, c)).astype(np.float32)
        fm = FeatureMap(values)
        kt = KernelTensor(rng.normal(size=(f, 3, 3, c)).astype(np.float32))
        sparse, sparse_macs = conv(masked_sites(fm, mask), kt)
        _, dense_macs = dense_conv(fm, kt)
        ref = gather_conv(fm, kt)
        np.testing.assert_allclose(sparse.to_dense().values, ref.values, atol=1e-5)
        assert sparse_macs / dense_macs == pytest.approx(5124 / (504 * 504), abs=1e-12)


class TestSubmanifold:
    def test_active_set_preserved(self, rng):
        fm, mask, kt = random_case(rng, 12, 12, 3, 4, 3, density=0.3)
        sites = masked_sites(fm, mask)
        out, _ = conv(sites, kt, out="same")
        assert np.array_equal(out.keys, sites.keys)

    def test_single_site_center_weight(self, rng):
        feats = rng.normal(size=(1, 3)).astype(np.float32)
        sites = Sites(9, 9, np.array([4 * 9 + 5]), feats)
        kt = KernelTensor(rng.normal(size=(2, 5, 5, 3)).astype(np.float32))
        out, _ = conv(sites, kt, out="same")
        center = kt.weights[:, 2, 2, :].astype(np.float64) @ feats[0].astype(np.float64)
        np.testing.assert_allclose(out.feats[0], center, atol=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_masked_dense_oracle(self, seed):
        r = np.random.default_rng(seed)
        fm, mask, kt = random_case(r, 12, 12, 2, 3, 3, density=float(r.uniform(0.05, 0.6)))
        out, _ = conv(masked_sites(fm, mask), kt, out="same")
        ref = gather_conv(fm, kt)  # input is already masked
        for key, feat in zip(out.keys, out.feats):
            np.testing.assert_allclose(feat, ref.values.reshape(-1, ref.channels)[key], atol=1e-5)

    def test_stride_rejected_by_spec(self, rng):
        fm, mask, kt = random_case(rng, 6, 6, 2, 2, 3, density=0.5)
        with pytest.raises(ValueError):
            conv(masked_sites(fm, mask), kt, stride=2, transposed=True, out="same")


class TestTransposed:
    def test_stride_one_equals_standard(self, rng):
        fm, mask, kt = random_case(rng, 9, 9, 2, 2, 3, density=0.4)
        sites = masked_sites(fm, mask)
        a, _ = conv(sites, kt, 1, transposed=True)
        b, _ = conv(sites, kt, 1)
        assert np.array_equal(a.to_dense().values, b.to_dense().values)

    def test_single_site_stride_two_index(self):
        sites = Sites(4, 4, np.array([1 * 4 + 1]), np.array([[1.0]], np.float32))
        kt = KernelTensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = conv(sites, kt, 2, transposed=True)[0].to_dense()
        assert out.values.shape == (8, 8, 1)
        assert out.values[2, 2, 0] == 1.0
        assert np.count_nonzero(out.values) == 1

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), stride=st.sampled_from([1, 2, 3]))
    def test_zero_insertion_oracle(self, seed, stride):
        r = np.random.default_rng(seed)
        p, q = int(r.integers(2, 9)), int(r.integers(2, 9))
        fm, mask, kt = random_case(r, p, q, 2, 2, 3, density=0.5)
        got = conv(masked_sites(fm, mask), kt, stride, transposed=True)[0].to_dense()
        upsampled = np.zeros((p * stride, q * stride, 2), dtype=np.float32)
        upsampled[::stride, ::stride] = fm.values
        ref = gather_conv(FeatureMap(upsampled), kt)
        np.testing.assert_allclose(got.values, ref.values, atol=1e-5)


class TestWideLayer:
    """C = F = 256, the widest layer of the default backbone, with weights at
    its 1 / sqrt(k^2 C) scale: float32 tap products summed over 256 channels
    stay within the oracle tolerance."""

    @pytest.mark.parametrize("stride, transposed, out", [
        (1, False, "reach"), (1, False, "same"), (1, False, "all"),
        (2, False, "reach"), (2, False, "all"), (2, True, "reach"), (2, True, "all")])
    def test_matches_gather_oracle(self, stride, transposed, out):
        r = np.random.default_rng(256)
        p, q, c = 20, 17, 256
        fm, mask, _ = random_case(r, p, q, c, 1, 3, density=0.3)
        kt = KernelTensor((r.normal(size=(c, 3, 3, c)) / np.sqrt(9 * c)).astype(np.float32))
        got, _ = conv(masked_sites(fm, mask), kt, stride, transposed, out)
        if transposed:
            upsampled = np.zeros((p * stride, q * stride, c), dtype=np.float32)
            upsampled[::stride, ::stride] = fm.values
            ref = gather_conv(FeatureMap(upsampled), kt)
        else:
            ref = gather_conv(fm, kt, stride)
        if out == "same":
            np.testing.assert_allclose(got.feats, ref.values[mask], atol=1e-5)
        else:
            np.testing.assert_allclose(got.to_dense().values, ref.values, atol=1e-5)


class TestReachableMask:
    def test_matches_nonzero_support(self, rng):
        # reachable set must cover every nonzero output cell
        fm, mask, kt = random_case(rng, 14, 14, 2, 2, 3, density=0.2)
        sites = masked_sites(fm, mask)
        for stride in (1, 2):
            out_sites = conv(sites, kt, stride, out="reach")[0]
            out = out_sites.to_dense()
            touched = np.zeros(out.p * out.q, dtype=bool)
            touched[out_sites.keys] = True
            nonzero = np.abs(out.values).max(axis=2) > 0
            assert not (nonzero & ~touched.reshape(out.p, out.q)).any()


def runs_and_singles(r, p, q):
    """Mask with row runs of at least 32 sites in rows 1.., an isolated site in
    row 0 and sparse noise: full tap windows next to nearly empty ones."""
    mask = r.random((p, q)) < r.uniform(0.0, 0.1)
    mask[0] = False
    mask[0, int(r.integers(0, q))] = True
    for _ in range(int(r.integers(1, 5))):
        start = int(r.integers(0, q - 32 + 1))
        stop = int(r.integers(start + 32, q + 1))
        mask[int(r.integers(1, p)), start:stop] = True
    return mask


class TestTapKernel:
    """Runs of consecutive sites and isolated sites must both match the
    gather oracles at every stride."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([1, 3, 5]),
           mode=st.sampled_from([(False, 1), (False, 2), (True, 1), (True, 2), (True, 4)]))
    def test_runs_and_singles_match_oracles(self, seed, k, mode):
        transposed, stride = mode
        r = np.random.default_rng(seed)
        p, q = 2 * int(r.integers(3, 12)) + 1, 2 * int(r.integers(16, 32)) + 1
        c, f = int(r.integers(1, 5)), int(r.integers(1, 5))
        mask = runs_and_singles(r, p, q)
        fm = FeatureMap(r.normal(size=(p, q, c)).astype(np.float32) * mask[:, :, None])
        sites = masked_sites(fm, mask)
        kt = KernelTensor(r.normal(size=(f, k, k, c)).astype(np.float32))
        out, _ = conv(sites, kt, stride, transposed)
        got = out.to_dense().values
        if transposed:
            upsampled = np.zeros((p * stride, q * stride, c), dtype=np.float32)
            upsampled[::stride, ::stride] = fm.values
            ref = gather_conv(FeatureMap(upsampled), kt).values
        else:
            ref = gather_conv(fm, kt, stride).values
            np.testing.assert_allclose(dense_conv(fm, kt, stride)[0].values, ref, atol=1e-5)
        np.testing.assert_allclose(got, ref, atol=1e-5)
        if stride == 1 and not transposed:
            sub, _ = conv(sites, kt, out="same")
            np.testing.assert_allclose(sub.feats, ref[mask], atol=1e-5)
        touched = reach_oracle(mask, k, stride, transposed)
        assert np.array_equal(out.keys, np.flatnonzero(touched))
        assert not got[~touched].any()


def stride_class_macs(keys, q, k, stride, transposed, c, f):
    """Multiply count by the definition: l * k^2 * C * F transposed or at
    stride 1; at stride s, tap (m, n) multiplies the sites with r = m - a
    and c = n - a modulo s."""
    if transposed or stride == 1:
        return len(keys) * k * k * c * f
    a = k // 2
    rows, cols = np.divmod(keys, q)
    return sum(int((((rows - m + a) % stride == 0) & ((cols - n + a) % stride == 0)).sum())
               for m in range(k) for n in range(k)) * c * f


def check_against_oracles(fm, mask, kt, stride, transposed, out):
    """conv on the masked sites of fm against gather_conv (zero insertion
    when transposed): values, output set and multiply count."""
    p, q, c = fm.values.shape
    k, f = kt.k, kt.out_channels
    sites = masked_sites(fm, mask)
    got, macs = conv(sites, kt, stride, transposed, out)
    if transposed:
        upsampled = np.zeros((p * stride, q * stride, c), dtype=np.float32)
        upsampled[::stride, ::stride] = fm.values
        ref = gather_conv(FeatureMap(upsampled), kt).values
    else:
        ref = gather_conv(fm, kt, stride).values
    assert (got.p, got.q) == ref.shape[:2]
    if out == "same":
        assert np.array_equal(got.keys, sites.keys)
        np.testing.assert_allclose(got.feats, ref[mask], atol=1e-5)
    else:
        np.testing.assert_allclose(got.to_dense().values, ref, atol=1e-5)
    if out == "reach":
        want = reach_oracle(mask, k, stride, transposed)
        assert np.array_equal(got.keys, np.flatnonzero(want))
    assert macs == stride_class_macs(sites.keys, q, k, stride, transposed, c, f)
    return got


class TestStridesAndPhases:
    """Grid sizes and options the API accepts beyond the backbone's: standard
    strides 3 and 4, transposed strides whose phases include some with no
    tap, odd and even sides and every output mode, at unit-scale weights."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 14), q=st.integers(1, 14),
           mode=st.sampled_from([(False, 3, 1), (False, 3, 3), (False, 3, 5), (False, 4, 1),
                                 (False, 4, 3), (False, 4, 5), (True, 2, 1), (True, 4, 1)]),
           out=st.sampled_from(["reach", "same", "all"]), density=st.floats(0.0, 1.0))
    def test_matches_oracles(self, seed, p, q, mode, out, density):
        transposed, stride, k = mode
        if out == "same":
            stride = 1   # submanifold convolution is stride 1 only
        r = np.random.default_rng(seed)
        c, f = int(r.integers(1, 6)), int(r.integers(1, 6))
        fm, mask, kt = random_case(r, p, q, c, f, k, density)
        check_against_oracles(fm, mask, kt, stride, transposed, out)

    @pytest.mark.parametrize("out", ["reach", "same", "all"])
    def test_output_set_larger_than_one_chunk(self, rng, out):
        # k = 3, C = 8: a gathered block of 2^20 float32 values holds 43690
        # output rows, fewer than this grid's output set
        p, q, k, c = 221, 210, 3, 8
        fm, mask, kt = random_case(rng, p, q, c, 3, k, density=0.98)
        got = check_against_oracles(fm, mask, kt, 1, False, out)
        assert len(got.keys) > (1 << 20) // (k * c)


class TestRelativeSpeed:
    def test_sparse_faster_than_dense_at_low_density(self, rng):
        import time
        p = q = 256
        c = f = 32
        density = 0.05
        mask = rng.random((p, q)) < density
        values = rng.normal(size=(p, q, c)).astype(np.float32) * mask[:, :, None]
        fm = FeatureMap(values)
        sites = masked_sites(fm, mask)
        kt = KernelTensor(rng.normal(size=(f, 3, 3, c)).astype(np.float32))
        dense_conv(fm, kt)  # warm both paths
        conv(sites, kt)[0].to_dense()
        t0 = time.perf_counter()
        dense_conv(fm, kt)
        t_dense = time.perf_counter() - t0
        t0 = time.perf_counter()
        conv(sites, kt)[0].to_dense()
        t_sparse = time.perf_counter() - t0
        assert t_sparse < t_dense
