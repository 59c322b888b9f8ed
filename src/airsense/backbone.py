"""Benchmark backbone graph: three convolution blocks plus three upsampling
transposed convolutions, runnable on the dense, sparse, or sparse+submanifold
engine with per-layer instrumentation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .spconv import FeatureMap, KernelTensor, _Taps

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
        if len(self.block_convs) != 3:
            raise ValueError("exactly three convolution blocks expected")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd")

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

    def to_text(self) -> str:
        """Flat key-value block, one fact per line."""
        lines = [f"engine = {self.engine}", f"layers = {len(self.layers)}"]
        for l in self.layers:
            pre = f"layer.{l.index:02d}"
            lines.append(f"{pre}.kind = {l.kind}")
            lines.append(f"{pre}.stride = {l.stride}")
            lines.append(f"{pre}.macs = {l.macs}")
            lines.append(f"{pre}.density = {l.density:.6f}")
            lines.append(f"{pre}.nanoseconds = {l.nanoseconds}")
        lines.append(f"total.macs = {self.total_macs}")
        lines.append(f"total.nanoseconds = {self.total_nanoseconds}")
        return "\n".join(lines) + "\n"


class _Sites(NamedTuple):
    """A map between layers: sorted flat keys of its active sites on a (p, q)
    grid, their float32 features, and, on the dense engine when a bias is
    set, the keys of the cells reachable from the occupied input."""

    p: int
    q: int
    keys: np.ndarray
    feats: np.ndarray
    reach: np.ndarray | None


def run_backbone(pseudo_image, spec: BackboneSpec, weights: BackboneWeights,
                 engine: str = "dense") -> tuple[FeatureMap, InstrumentationReport]:
    """Forward pass of the [4, 6, 6] + 3-deconv graph on the chosen engine.

    Every layer runs the same tap kernel over a list of active sites; the
    engines differ only in that set. Dense keeps every cell, sparse the cells
    the taps reach, and sparse+submanifold keeps the input set in every
    convolution except the first (strided) one of each block and the deconvs.
    A bias, then ReLU, applies on the active set only, and the dense engine
    masks its bias to the cells reachable from the occupied input, so the
    engines stay numerically interchangeable. Maps stay site lists between
    layers; the upsampled maps are cropped to the first one's size (rounding
    in the strided blocks can leave the others a few cells larger) and
    densified once, at the channel concat. Returns that map plus per-layer
    stats.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    fm = FeatureMap(np.asarray(pseudo_image.values, dtype=np.float32))
    flags = np.asarray(pseudo_image.mask, dtype=bool) if hasattr(pseudo_image, "mask") \
        else np.abs(fm.values).max(axis=2) > 0
    if flags.shape != (fm.p, fm.q):
        raise ValueError("occupancy mask does not match pseudo-image grid")

    plan = _layer_plan(spec, fm.channels)
    if len(weights.kernels) != len(plan):
        raise ValueError(f"graph needs {len(plan)} kernels, got {len(weights.kernels)}")

    dense = engine == "dense"
    occupied = np.flatnonzero(flags)
    values = fm.values.reshape(fm.p * fm.q, fm.channels)
    track_reach = dense and any(b is not None for b in weights.biases)
    if dense:
        cur = _Sites(fm.p, fm.q, np.arange(fm.p * fm.q), values,
                     occupied if track_reach else None)
    else:
        cur = _Sites(fm.p, fm.q, occupied, values[occupied], None)

    stats: list[LayerStats] = []
    block_outputs: list[_Sites] = []
    upsampled: list[_Sites] = []
    block_ends = np.cumsum(spec.block_convs)
    for idx, (kind, stride, c_in, c_out, is_first) in enumerate(plan):
        src = block_outputs[len(upsampled)] if kind == "deconv" else cur
        if src.feats.shape[1] != c_in:
            raise ValueError(f"layer {idx} expects {c_in} channels, got {src.feats.shape[1]}")
        kernel = weights.kernels[idx]
        if kernel.in_channels != c_in or kernel.out_channels != c_out:
            raise ValueError(f"kernel {idx} shape mismatch for layer plan")
        density = len(src.keys) / (src.p * src.q)
        t0 = time.perf_counter_ns()

        transposed = kind == "deconv"
        taps = _Taps(src.keys, src.p, src.q, kernel.k, stride, transposed)
        if dense:
            keys = np.arange(taps.out_p * taps.out_q)
        elif engine == "sparse+submanifold" and kind == "conv" and not is_first:
            keys = src.keys
        else:
            keys = taps.touched()
        feats, macs = taps.scatter(src.feats, kernel.weights, keys)
        reach = None
        if src.reach is not None:
            reach = _Taps(src.reach, src.p, src.q, kernel.k, stride, transposed).touched()
        bias = weights.biases[idx]
        if bias is not None:
            if dense:
                feats[reach] += np.asarray(bias, dtype=np.float32)
            else:
                feats += np.asarray(bias, dtype=np.float32)
        if spec.relu:
            np.maximum(feats, 0.0, out=feats)
        out = _Sites(taps.out_p, taps.out_q, keys, feats, reach)
        t1 = time.perf_counter_ns()
        stats.append(LayerStats(idx, kind, stride, macs, density, t1 - t0))

        if kind == "conv":
            cur = out
            if idx + 1 in block_ends:
                block_outputs.append(out)
        else:
            upsampled.append(out)

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
