"""Benchmark backbone graph: three convolution blocks plus three upsampling
transposed convolutions, runnable on the dense, sparse, or sparse+submanifold
engine with per-layer instrumentation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .spconv import FeatureMap, KernelTensor, Sites, conv, reach

__all__ = [
    "BackboneSpec",
    "BackboneWeights",
    "LayerStats",
    "InstrumentationReport",
    "make_backbone_weights",
    "run_backbone",
    "ENGINES",
]

ENGINES = ("dense", "sparse", "sparse+submanifold")


def _positive_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


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
        for name in ("block_convs", "block_channels", "block_strides", "up_strides"):
            value = getattr(self, name)
            if not (isinstance(value, (tuple, list)) and len(value) == 3
                    and all(map(_positive_int, value))):
                raise ValueError(f"{name} must be three integers >= 1, got {value!r}")
        for name in ("up_channels", "kernel_size"):
            if not _positive_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")

    @property
    def num_layers(self) -> int:
        return sum(self.block_convs) + 3


@dataclass
class BackboneWeights:
    kernels: list[KernelTensor]
    biases: list[np.ndarray | None] = field(default_factory=list)

    def __post_init__(self):
        if not self.biases:
            self.biases = [None] * len(self.kernels)
        if len(self.biases) != len(self.kernels):
            raise ValueError("one bias entry per kernel required")


def _layer_plan(spec: BackboneSpec, in_channels: int):
    """Yield (kind, stride, c_in, c_out, is_block_first) in execution order:
    all block convolutions first, then the three upsampling stages."""
    plan = []
    c_prev = in_channels
    for b, n_convs in enumerate(spec.block_convs):
        c_out = spec.block_channels[b]
        for i in range(n_convs):
            stride = spec.block_strides[b] if i == 0 else 1
            plan.append(("conv", stride, c_prev, c_out, i == 0))
            c_prev = c_out
    for b in range(3):
        plan.append(("deconv", spec.up_strides[b], spec.block_channels[b], spec.up_channels, False))
    return plan


def make_backbone_weights(spec: BackboneSpec, in_channels: int,
                          rng: np.random.Generator) -> BackboneWeights:
    """Random weights shaped for the graph, scaled to keep activations O(1)."""
    kernels = []
    for kind, stride, c_in, c_out, _ in _layer_plan(spec, in_channels):
        k = spec.kernel_size
        scale = 1.0 / np.sqrt(k * k * c_in)
        kernels.append(KernelTensor(
            (rng.normal(size=(c_out, k, k, c_in)) * scale).astype(np.float32)))
    return BackboneWeights(kernels)


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


def run_backbone(x: Sites, spec: BackboneSpec, weights: BackboneWeights,
                 engine: str = "dense") -> tuple[FeatureMap, InstrumentationReport]:
    """Forward pass of the [4, 6, 6] + 3-deconv graph on the chosen engine.

    The input is the pillars' site list: the occupied cells of the grid and
    their pooled features. Every layer is one `conv` over a list of active
    sites; the engines differ only in the output sites they ask for. Dense
    keeps every cell, sparse the cells the taps reach, and
    sparse+submanifold keeps the input set in every convolution except the
    first (strided) one of each block and the deconvs. The sparse engines
    start from the input list as it is; the dense one densifies it once. A
    bias, then ReLU, applies on the active set only, and the dense engine
    masks its bias to the cells reachable from the occupied input, so the
    engines stay numerically interchangeable. Maps stay site lists between
    layers; the upsampled maps are cropped to the first one's size (rounding
    in the strided blocks can leave the others a few cells larger) and
    densified once, at the channel concat. Returns that map plus per-layer
    stats.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if not np.isfinite(x.feats).all():
        raise ValueError("input sites contain non-finite features")

    plan = _layer_plan(spec, x.feats.shape[1])
    if len(weights.kernels) != len(plan):
        raise ValueError(f"graph needs {len(plan)} kernels, got {len(weights.kernels)}")

    dense = engine == "dense"
    # each map travels with the keys of the cells reachable from the occupied
    # input, tracked only where the dense engine needs them to mask its bias
    live = None
    if dense and any(b is not None for b in weights.biases):
        live = x.keys
    cur = (Sites.from_dense(x.to_dense()) if dense else x, live)

    stats: list[LayerStats] = []
    block_outputs: list[tuple[Sites, np.ndarray | None]] = []
    upsampled: list[Sites] = []
    block_ends = np.cumsum(spec.block_convs)
    for idx, (kind, stride, c_in, c_out, is_first) in enumerate(plan):
        src, live = block_outputs[len(upsampled)] if kind == "deconv" else cur
        if src.feats.shape[1] != c_in:
            raise ValueError(f"layer {idx} expects {c_in} channels, got {src.feats.shape[1]}")
        kernel = weights.kernels[idx]
        if kernel.in_channels != c_in or kernel.out_channels != c_out:
            raise ValueError(f"kernel {idx} shape mismatch for layer plan")
        density = len(src.keys) / (src.p * src.q)
        t0 = time.perf_counter_ns()

        transposed = kind == "deconv"
        if dense:
            out = "all"
        elif engine == "sparse+submanifold" and kind == "conv" and not is_first:
            out = "same"
        else:
            out = "reach"
        y, macs = conv(src, kernel, stride, transposed, out)
        if live is not None:
            live = reach(live, src.p, src.q, kernel.k, stride, transposed)
        bias = weights.biases[idx]
        if bias is not None:
            if dense:
                y.feats[live] += np.asarray(bias, dtype=np.float32)
            else:
                y.feats += np.asarray(bias, dtype=np.float32)
        if spec.relu:
            np.maximum(y.feats, 0.0, out=y.feats)
        t1 = time.perf_counter_ns()
        stats.append(LayerStats(idx, kind, stride, macs, density, t1 - t0))

        if kind == "conv":
            cur = (y, live)
            if idx + 1 in block_ends:
                block_outputs.append(cur)
        else:
            upsampled.append(y)

    p, q = upsampled[0].p, upsampled[0].q
    if any(u.p < p or u.q < q for u in upsampled):
        raise ValueError("upsampled block outputs disagree on size: "
                         f"{sorted((u.p, u.q) for u in upsampled)}")
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
