"""Benchmark backbone graph: three convolution blocks plus three upsampling
transposed convolutions, runnable on the dense, sparse, or sparse+submanifold
engine with per-layer instrumentation."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fields import check_fields
from .spconv import FeatureMap, KernelTensor, Sites, conv

__all__ = [
    "BackboneSpec",
    "LayerStats",
    "InstrumentationReport",
    "make_backbone_weights",
    "run_backbone",
    "ENGINES",
]

ENGINES = ("dense", "sparse", "sparse+submanifold")


@dataclass(frozen=True)
class BackboneSpec:
    """Graph shape. Defaults keep the 4/6/6 block layout; channel widths are
    configurable because they trade desk-scale test time against realism."""

    block_convs: tuple[int, int, int] = (4, 6, 6)
    block_channels: tuple[int, int, int] = (64, 128, 256)
    block_strides: tuple[int, int, int] = (2, 2, 2)
    up_strides: tuple[int, int, int] = (1, 2, 4)
    up_channels: int = 128
    kernel_size: int = 3
    relu: bool = False

    def __post_init__(self):
        check_fields(self)
        for name in ("block_convs", "block_channels", "block_strides", "up_strides"):
            value = getattr(self, name)
            if min(value) < 1:
                raise ValueError(f"{name} must be three integers >= 1, got {value!r}")
        for name in ("up_channels", "kernel_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
        # every upsampled block output must land on the first one's grid
        s1, s2, s3 = self.block_strides
        totals = (s1, s1 * s2, s1 * s2 * s3)
        if any(t * self.up_strides[0] != totals[0] * u for t, u in zip(totals, self.up_strides)):
            raise ValueError("cumulative block_strides over up_strides must agree for all "
                             f"three blocks, got {totals} over {tuple(self.up_strides)}")


def _channels(spec: BackboneSpec, in_channels: int):
    """Yield each layer's (c_in, c_out) in execution order: the block
    convolutions, then the three upsampling deconvolutions."""
    c = in_channels
    for n_convs, c_out in zip(spec.block_convs, spec.block_channels):
        for _ in range(n_convs):
            yield c, c_out
            c = c_out
    for c_in in spec.block_channels:
        yield c_in, spec.up_channels


def make_backbone_weights(spec: BackboneSpec, in_channels: int,
                          rng: np.random.Generator) -> list[KernelTensor]:
    """One random kernel per layer, in execution order, shaped for the graph
    and scaled to keep activations O(1)."""
    k = spec.kernel_size
    return [KernelTensor((rng.normal(size=(c_out, k, k, c_in)) * (1.0 / np.sqrt(k * k * c_in)))
                         .astype(np.float32))
            for c_in, c_out in _channels(spec, in_channels)]


@dataclass
class LayerStats:
    """One layer's work: density is the share of the input grid's cells it
    computes from (1.0 on the dense engine), as its MACs count them."""

    index: int
    kind: str
    stride: int
    macs: int
    density: float
    nanoseconds: int


@dataclass
class InstrumentationReport:
    engine: str
    layers: list[LayerStats]

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def total_nanoseconds(self) -> int:
        return sum(l.nanoseconds for l in self.layers)


def run_backbone(x: Sites, spec: BackboneSpec, weights: list[KernelTensor],
                 engine: str = "dense") -> tuple[FeatureMap, InstrumentationReport]:
    """Forward pass of the [4, 6, 6] + 3-deconv graph on the chosen engine.

    The input is the pillars' site list: the occupied cells of the grid and
    their pooled features. Every kernel's channels are checked against the
    graph before the first layer runs. Each block is one strided convolution
    and then stride-1 ones; each block output then feeds one upsampling
    deconvolution. Every layer is one `conv` over a list of active sites,
    and the engines differ in two facts: the dense engine densifies the
    input list once, and every layer keeps the cells its taps reach except
    the sparse+submanifold engine's stride-1 block convolutions, which keep
    their input set. ReLU, if the spec asks for it, applies to each
    layer's output sites; it keeps zero at zero, so the engines stay
    interchangeable. Maps stay site lists between layers; the upsampled
    maps are cropped to the first one's size (rounding in the strided blocks
    can leave the others a few cells larger) and densified once, at the
    channel concat. Returns that map plus per-layer stats.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if not np.isfinite(x.feats).all():
        raise ValueError("input sites contain non-finite features")
    want = list(_channels(spec, x.feats.shape[1]))
    if len(weights) != len(want):
        raise ValueError(f"graph needs {len(want)} kernels, got {len(weights)}")
    for idx, (kernel, (c_in, c_out)) in enumerate(zip(weights, want)):
        if (kernel.in_channels, kernel.out_channels) != (c_in, c_out):
            raise ValueError(f"kernel {idx} maps {kernel.in_channels} -> {kernel.out_channels} "
                             f"channels, the graph needs {c_in} -> {c_out}")

    rest = "same" if engine == "sparse+submanifold" else "reach"
    stats: list[LayerStats] = []

    def layer(src: Sites, kind: str, stride: int, out: str) -> Sites:
        """One conv, ReLU and stats row."""
        idx = len(stats)
        density = len(src.keys) / (src.p * src.q)
        t0 = time.perf_counter_ns()
        y, macs = conv(src, weights[idx], stride, kind == "deconv", out)
        if spec.relu:
            np.maximum(y.feats, 0.0, out=y.feats)
        stats.append(LayerStats(idx, kind, stride, macs, density, time.perf_counter_ns() - t0))
        return y

    if engine == "dense":   # every cell, without re-checking the finiteness checked above
        rows = np.zeros((x.p * x.q, x.feats.shape[1]), dtype=np.float32)
        rows[x.keys] = x.feats
        x = Sites(x.p, x.q, np.arange(x.p * x.q), rows)
    blocks = []
    for n_convs, stride in zip(spec.block_convs, spec.block_strides):
        x = layer(x, "conv", stride, "reach")
        for _ in range(n_convs - 1):
            x = layer(x, "conv", 1, rest)
        blocks.append(x)
    upsampled = [layer(block, "deconv", stride, "reach")
                 for block, stride in zip(blocks, spec.up_strides)]

    p, q = upsampled[0].p, upsampled[0].q
    final = np.zeros((p * q, sum(u.feats.shape[1] for u in upsampled)), dtype=np.float32)
    lo = 0
    for u in upsampled:
        keys, feats = u.keys, u.feats
        if (u.p, u.q) != (p, q):
            rows, cols = np.divmod(keys, u.q)
            keep = (rows < p) & (cols < q)
            keys, feats = rows[keep] * q + cols[keep], feats[keep]
        final[keys, lo:lo + feats.shape[1]] = feats
        lo += feats.shape[1]
    return FeatureMap(final.reshape(p, q, -1)), InstrumentationReport(engine, stats)
