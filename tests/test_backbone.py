import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsense.backbone import (
    ENGINES,
    BackboneSpec,
    make_backbone_weights,
    run_backbone,
)
from airsense.config import ConfigError, default_config, load_config
from airsense.spconv import FeatureMap, KernelTensor, Sites, conv
from oracles import backbone_oracle, masked_sites, reach_oracle


SMALL = BackboneSpec(block_channels=(8, 16, 32), up_channels=16)


def full_sites(rng, h, w, c):
    return Sites.from_dense(FeatureMap(rng.normal(size=(h, w, c)).astype(np.float32)))


def sparse_sites(rng, h, w, c, density):
    mask = rng.random((h, w)) < density
    values = rng.normal(size=(h, w, c)).astype(np.float32) * mask[:, :, None]
    return masked_sites(FeatureMap(values), mask)


class TestGraphShape:
    @pytest.mark.parametrize("section", [
        {"block_strides": [0, 2, 2]},
        {"block_channels": [8, 16]},
        {"block_convs": [4, 6, 6, 1]},
        {"up_strides": [1, 2.5, 4]},
        {"block_channels": [8, True, 32]},
        {"kernel_size": -1},
        {"kernel_size": 4},
        {"up_channels": 0},
        {"up_channels": "128"},
    ])
    def test_bad_spec_rejected_at_the_boundary(self, tmp_path, section):
        (name, value), = section.items()
        with pytest.raises(ValueError, match=name):
            BackboneSpec(**{name: tuple(value) if isinstance(value, list) else value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backbone": section}))
        with pytest.raises(ConfigError, match=name):
            load_config(path)

    def test_layer_count_is_sixteen_convs_plus_three_deconvs(self, rng):
        weights = make_backbone_weights(SMALL, 4, rng)
        pi = full_sites(rng, 16, 16, 4)
        _, report = run_backbone(pi, SMALL, weights, engine="dense")
        assert len(report.layers) == 19
        assert sum(1 for l in report.layers if l.kind == "conv") == 16
        assert sum(1 for l in report.layers if l.kind == "deconv") == 3

    def test_block_conv_counts_configurable(self, rng):
        spec = BackboneSpec(block_convs=(2, 2, 2), block_channels=(4, 8, 8),
                            up_channels=8)
        weights = make_backbone_weights(spec, 3, rng)
        pi = full_sites(rng, 8, 8, 3)
        _, report = run_backbone(pi, spec, weights, engine="dense")
        assert len(report.layers) == 9

    def test_default_spec_layer_schedule(self, rng):
        spec = BackboneSpec()
        _, report = run_backbone(full_sites(rng, 16, 16, 4), spec,
                                 make_backbone_weights(spec, 4, rng), engine="sparse")
        want = ([("conv", 2)] + [("conv", 1)] * 3 + [("conv", 2)] + [("conv", 1)] * 5
                + [("conv", 2)] + [("conv", 1)] * 5 + [("deconv", 1), ("deconv", 2), ("deconv", 4)])
        assert [(l.kind, l.stride) for l in report.layers] == want
        assert [l.index for l in report.layers] == list(range(19))

    @pytest.mark.parametrize("block_strides, up_strides", [
        ((1, 1, 1), (1, 2, 4)), ((2, 1, 2), (1, 2, 4)), ((2, 2, 2), (2, 2, 2))])
    def test_strides_whose_upsampled_maps_disagree_rejected(self, tmp_path, block_strides,
                                                            up_strides):
        # cumulative stride / up stride must be equal: 2/1 = 4/2 = 8/4 by default
        with pytest.raises(ValueError, match="cumulative block_strides over up_strides"):
            BackboneSpec(block_strides=block_strides, up_strides=up_strides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backbone": {"block_strides": block_strides,
                                                 "up_strides": up_strides}}))
        with pytest.raises(ConfigError, match="^backbone: cumulative block_strides"):
            load_config(path)

    def test_bad_last_kernel_rejected_before_any_conv(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr("airsense.backbone.conv", lambda *a: calls.append(a) or conv(*a))
        kernels = make_backbone_weights(SMALL, 4, rng)
        k, c_in = SMALL.kernel_size, SMALL.block_channels[2]
        kernels[-1] = KernelTensor(np.zeros((SMALL.up_channels + 1, k, k, c_in), np.float32))
        for engine in ENGINES:
            with pytest.raises(ValueError, match="kernel 18 maps 32 -> 17 channels"):
                run_backbone(full_sites(rng, 16, 16, 4), SMALL, kernels, engine)
        assert not calls

    def test_wrong_kernel_count_rejected(self, rng):
        weights = make_backbone_weights(SMALL, 4, rng)
        pi = full_sites(rng, 16, 16, 4)
        with pytest.raises(ValueError):
            run_backbone(pi, SMALL, weights[:-1], engine="dense")

    def test_unknown_engine_rejected(self, rng):
        weights = make_backbone_weights(SMALL, 4, rng)
        pi = full_sites(rng, 16, 16, 4)
        with pytest.raises(ValueError):
            run_backbone(pi, SMALL, weights, engine="gpu")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_finite_site_feature_rejected(self, rng, engine, bad):
        weights = make_backbone_weights(SMALL, 4, rng)
        pi = sparse_sites(rng, 16, 16, 4, 0.25)
        pi.feats[len(pi.keys) // 2, 1] = bad
        # rejected at the input, not by the output map's own check
        with pytest.raises(ValueError, match="input sites contain non-finite"):
            run_backbone(pi, SMALL, weights, engine=engine)


class TestEngineAgreement:
    def test_zero_image_all_engines_zero(self, rng):
        weights = make_backbone_weights(SMALL, 4, rng)
        pi = Sites(16, 16, np.zeros(0), np.zeros((0, 4), np.float32))
        for engine in ENGINES:
            out, report = run_backbone(pi, SMALL, weights, engine=engine)
            assert not out.values.any()
            if engine != "dense":
                assert report.total_macs == 0

    def test_single_occupied_cell_dense_vs_sparse(self, rng):
        weights = make_backbone_weights(SMALL, 4, rng)
        mask = np.zeros((16, 16), dtype=bool)
        mask[7, 9] = True
        values = np.zeros((16, 16, 4), dtype=np.float32)
        values[7, 9] = rng.normal(size=4).astype(np.float32)
        pi = masked_sites(FeatureMap(values), mask)
        dense, _ = run_backbone(pi, SMALL, weights, engine="dense")
        sparse, _ = run_backbone(pi, SMALL, weights, engine="sparse")
        np.testing.assert_allclose(dense.values, sparse.values, atol=1e-4)

    def test_dense_vs_sparse_on_sparse_inputs(self, rng):
        weights = make_backbone_weights(SMALL, 4, rng)
        for _ in range(3):
            pi = sparse_sites(rng, 16, 16, 4, 0.25)
            dense, _ = run_backbone(pi, SMALL, weights, engine="dense")
            sparse, _ = run_backbone(pi, SMALL, weights, engine="sparse")
            np.testing.assert_allclose(dense.values, sparse.values, atol=1e-4)

    def test_all_three_engines_agree_on_saturated_input(self, rng):
        # with every cell occupied the active set is closed under dilation,
        # so the set-preserving engine computes the same map as the others
        weights = make_backbone_weights(SMALL, 4, rng)
        pi = full_sites(rng, 16, 16, 4)
        outs = [run_backbone(pi, SMALL, weights, engine=e)[0].values for e in ENGINES]
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-4)
        np.testing.assert_allclose(outs[0], outs[2], atol=1e-4)

    def test_relu_hook_preserves_agreement(self, rng):
        spec = BackboneSpec(block_channels=(8, 16, 32), up_channels=16, relu=True)
        weights = make_backbone_weights(spec, 4, rng)
        pi = full_sites(rng, 16, 16, 4)
        outs = [run_backbone(pi, spec, weights, engine=e)[0].values for e in ENGINES]
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-4)
        np.testing.assert_allclose(outs[0], outs[2], atol=1e-4)
        assert outs[0].min() >= 0.0

    def test_relu_engines_agree_on_scattered_sites(self, rng):
        # 40 sites of 1024: the dense engine's cells outside the sparse
        # engine's reach sets stay zero through every ReLU
        spec = BackboneSpec(block_channels=(8, 16, 32), up_channels=16, relu=True)
        weights = make_backbone_weights(spec, 4, rng)
        mask = np.zeros(32 * 32, dtype=bool)
        mask[rng.choice(32 * 32, size=40, replace=False)] = True
        mask = mask.reshape(32, 32)
        values = rng.normal(size=(32, 32, 4)).astype(np.float32) * mask[:, :, None]
        pi = masked_sites(FeatureMap(values), mask)
        dense, _ = run_backbone(pi, spec, weights, engine="dense")
        sparse, _ = run_backbone(pi, spec, weights, engine="sparse")
        assert dense.values.any()
        np.testing.assert_allclose(dense.values, sparse.values, atol=1e-4)

    def test_default_grid_runs_on_every_engine(self, rng):
        grid = default_config().grid
        pi = sparse_sites(rng, grid.ny, grid.nx, 4, 0.02)
        weights = make_backbone_weights(SMALL, 4, rng)
        outs = [run_backbone(pi, SMALL, weights, engine=e)[0].values for e in ENGINES]
        assert all(o.shape == (250, 220, 3 * SMALL.up_channels) for o in outs)
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-4)

    def test_relu_engines_agree_on_the_default_grid(self, rng):
        # the upsampled maps need cropping here
        grid = default_config().grid
        spec = BackboneSpec(block_channels=(8, 16, 32), up_channels=16, relu=True)
        pi = sparse_sites(rng, grid.ny, grid.nx, 4, 0.02)
        weights = make_backbone_weights(spec, 4, rng)
        dense, _ = run_backbone(pi, spec, weights, engine="dense")
        sparse, _ = run_backbone(pi, spec, weights, engine="sparse")
        assert dense.values.shape == (250, 220, 3 * spec.up_channels)
        np.testing.assert_allclose(dense.values, sparse.values, atol=1e-4)


class TestChainOracle:
    """The default graph (C = 256 in block 3, no ReLU, so magnitudes are
    unclamped layer to layer) against float64 gather convolutions chained
    layer by layer: the worst case for float32 tap products."""

    @pytest.mark.parametrize("density", [0.05, 1.0])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_default_graph_matches_the_gather_chain(self, engine, density):
        r = np.random.default_rng(11)
        spec = BackboneSpec()
        pi = sparse_sites(r, 64, 48, 64, density)
        weights = make_backbone_weights(spec, 64, r)
        got, _ = run_backbone(pi, spec, weights, engine)
        want = backbone_oracle(pi, spec, weights, engine == "sparse+submanifold")
        assert got.values.shape == want.shape == (32, 24, 3 * spec.up_channels)
        np.testing.assert_allclose(got.values, want, atol=1e-4)

    @pytest.mark.parametrize("block_strides, up_strides", [
        ((1, 2, 2), (1, 2, 4)), ((3, 1, 2), (1, 1, 2)), ((1, 3, 1), (1, 3, 3))])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_consistent_strides_on_odd_grids_match_the_gather_chain(self, engine,
                                                                   block_strides, up_strides):
        # the later upsampled maps are never smaller than the first, only
        # a few cells larger where the strided blocks round up
        r = np.random.default_rng(12)
        spec = BackboneSpec(block_convs=(2, 2, 2), block_channels=(4, 8, 8),
                            block_strides=block_strides, up_strides=up_strides, up_channels=4)
        pi = sparse_sites(r, 13, 11, 3, 0.3)
        weights = make_backbone_weights(spec, 3, r)
        got, _ = run_backbone(pi, spec, weights, engine)
        want = backbone_oracle(pi, spec, weights, engine == "sparse+submanifold")
        s, u = block_strides[0], up_strides[0]
        assert got.values.shape == want.shape == (-(-13 // s) * u, -(-11 // s) * u, 12)
        np.testing.assert_allclose(got.values, want, atol=1e-4)


class TestInstrumentation:
    def test_submanifold_engine_does_less_work_on_sparse_input(self, rng):
        weights = make_backbone_weights(SMALL, 4, rng)
        pi = sparse_sites(rng, 32, 32, 4, 0.05)
        _, rep_sparse = run_backbone(pi, SMALL, weights, engine="sparse")
        _, rep_sub = run_backbone(pi, SMALL, weights, engine="sparse+submanifold")
        assert rep_sub.total_macs < rep_sparse.total_macs

    def test_density_tracks_active_fraction(self, rng):
        weights = make_backbone_weights(SMALL, 4, rng)
        pi = sparse_sites(rng, 32, 32, 4, 0.05)
        _, report = run_backbone(pi, SMALL, weights, engine="sparse")
        assert report.layers[0].density == pytest.approx(pi.mask.mean())
        # standard sparse convolutions dilate the active set layer over layer
        densities = [l.density for l in report.layers if l.kind == "conv"][:4]
        assert densities == sorted(densities)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), engine=st.sampled_from(ENGINES))
    def test_density_equals_a_numpy_recount(self, seed, engine):
        r = np.random.default_rng(seed)
        p, q = 2 * int(r.integers(6, 20)) + 1, 2 * int(r.integers(6, 20)) + 1
        pi = sparse_sites(r, p, q, 4, float(r.uniform(0.0, 0.2)))
        _, report = run_backbone(pi, SMALL, make_backbone_weights(SMALL, 4, r), engine)
        # the dense engine computes every cell, as its MACs count
        want, blocks = [], []
        cur = np.ones_like(pi.mask) if engine == "dense" else pi.mask
        for b, n_convs in enumerate(SMALL.block_convs):
            for i in range(n_convs):
                want.append(int(cur.sum()) / cur.size)
                if engine == "sparse" or i == 0:
                    cur = reach_oracle(cur, SMALL.kernel_size, SMALL.block_strides[b] if i == 0 else 1)
            blocks.append(cur)
        want += [int(m.sum()) / m.size for m in blocks]
        assert [l.density for l in report.layers] == want
