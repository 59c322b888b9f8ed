"""Scatter-based 2D convolution engines over dense and sparse feature maps.

The core primitive pushes each input site's weighted contributions out to the
output cells selected by the filter tap, instead of gathering a neighborhood
per output cell. One private tap kernel does this for every engine; the
engines differ only in their active set. Sites are sorted flat keys on a
(p, q) grid, so work scales with the number of active sites rather than the
grid area. No rule book, coordinate hash map or bounds mask is built anywhere:
destinations follow from index arithmetic alone, into a buffer padded by
k // 2 on every side that holds every destination. A tap's destination is a
site's base key plus a constant offset (strided convolution first selects
the sites that land on the output lattice), so a run of consecutive sites
lands on one evenly spaced slice of the buffer: long runs are added by
slice, the remaining sites by one indexed add per tap.

All feature values are stored as float32; accumulation happens in float64 and
results are rounded back to float32 on the output sites only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ConvMode",
    "ConvSpec",
    "FeatureMap",
    "ActiveMask",
    "SparseFeatureMap",
    "KernelTensor",
    "MacCounter",
    "gather_conv",
    "scatter_conv",
    "compact_active_sites",
    "sparse_scatter_conv",
    "submanifold_conv",
    "transposed_conv",
    "scatter_reachable_mask",
]


class ConvMode(str, Enum):
    STANDARD = "standard"
    SUBMANIFOLD = "submanifold"
    TRANSPOSED = "transposed"


@dataclass(frozen=True)
class ConvSpec:
    """Stride and mode of a convolution; padding is implicitly same-centered."""

    stride: int = 1
    mode: ConvMode = ConvMode.STANDARD

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.mode == ConvMode.SUBMANIFOLD and self.stride != 1:
            raise ValueError("submanifold convolution requires stride 1")


class MacCounter:
    """Accumulates the number of multiply operations an engine performed."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)


@dataclass
class FeatureMap:
    """Dense multichannel 2D grid, values float32 with shape (p, q, C)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise ValueError(f"feature map must be (p, q, C), got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1 or v.shape[2] < 1:
            raise ValueError(f"feature map dims must be >= 1, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("feature map contains non-finite values")
        self.values = v

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass
class ActiveMask:
    """Boolean occupancy over a (p, q) grid."""

    flags: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.flags, dtype=bool)
        if f.ndim != 2:
            raise ValueError(f"mask must be 2D, got shape {f.shape}")
        self.flags = f

    @property
    def p(self) -> int:
        return self.flags.shape[0]

    @property
    def q(self) -> int:
        return self.flags.shape[1]


@dataclass
class SparseFeatureMap:
    """Active sites of a (p, q, C) grid in row-major order.

    coords is (l, 2) int64 holding unique (row, col) pairs sorted row-major;
    feats is the matching (l, C) float32 feature block.
    """

    p: int
    q: int
    coords: np.ndarray
    feats: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.int64).reshape(-1, 2)
        f = np.asarray(self.feats, dtype=np.float32)
        if f.ndim != 2 or f.shape[0] != c.shape[0]:
            raise ValueError("feats must be (l, C) matching coords")
        if c.shape[0]:
            if c[:, 0].min() < 0 or c[:, 0].max() >= self.p:
                raise ValueError("site row out of bounds")
            if c[:, 1].min() < 0 or c[:, 1].max() >= self.q:
                raise ValueError("site col out of bounds")
            keys = c[:, 0] * self.q + c[:, 1]
            if not (np.diff(keys) > 0).all():
                raise ValueError("sites must be unique and row-major sorted")
        self.coords = c
        self.feats = f

    @property
    def num_sites(self) -> int:
        return self.coords.shape[0]

    @property
    def channels(self) -> int:
        return self.feats.shape[1]


@dataclass
class KernelTensor:
    """Filter bank with weights (F, k, k, C); k must be odd."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float32)
        if w.ndim != 4 or w.shape[1] != w.shape[2]:
            raise ValueError(f"weights must be (F, k, k, C), got shape {w.shape}")
        if w.shape[1] % 2 == 0:
            raise ValueError(f"kernel side must be odd, got {w.shape[1]}")
        if not np.isfinite(w).all():
            raise ValueError("kernel contains non-finite weights")
        self.weights = w

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[3]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]


def _check_input(channels: int, kernel: KernelTensor):
    if kernel.in_channels != channels:
        raise ValueError(
            f"kernel expects {kernel.in_channels} input channels, map has {channels}"
        )


def gather_conv(fm: FeatureMap, kernel: KernelTensor, spec: ConvSpec = ConvSpec()) -> FeatureMap:
    """Reference gather convolution: each output cell sums its input window.

    Kept deliberately independent from the scatter engines so it can serve as
    their oracle. Same-centered zero padding; float64 accumulation.
    """
    if spec.mode != ConvMode.STANDARD:
        raise ValueError("gather_conv only implements standard mode")
    _check_input(fm.channels, kernel)
    p, q, c = fm.values.shape
    k = kernel.k
    a = k // 2
    s = spec.stride
    padded = np.zeros((p + 2 * a, q + 2 * a, c), dtype=np.float64)
    padded[a:a + p, a:a + q] = fm.values
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(0, 1))
    win = win[::s, ::s]  # (out_p, out_q, C, k, k)
    out_p, out_q = win.shape[0], win.shape[1]
    cols = np.ascontiguousarray(win.transpose(0, 1, 3, 4, 2)).reshape(out_p * out_q, k * k * c)
    wmat = kernel.weights.astype(np.float64).reshape(kernel.out_channels, k * k * c)
    out = cols @ wmat.T
    return FeatureMap(out.reshape(out_p, out_q, kernel.out_channels).astype(np.float32))


# Runs of at least this many consecutive sites are scattered by slice, the
# remaining sites by one indexed add per tap. On a 504 x 440 frame at 2 %
# occupancy, cutoffs from 4 to 64 ran within 3 % of each other.
_LONG_RUN = 16


def _runs(dest: np.ndarray, step: int):
    """Split sorted destination keys into maximal runs spaced `step` apart.

    Returns (order, runs, short): order lists the entries of long runs first,
    then the rest, each in their own order; runs holds (start, stop, first
    destination) of each long run at its place in that order; short holds
    the destinations of the rest.
    """
    bounds = np.flatnonzero(np.diff(dest) != step) + 1
    bounds = np.concatenate(([0], bounds, [len(dest)]))
    lengths = np.diff(bounds)
    is_long = lengths >= _LONG_RUN
    in_long = np.repeat(is_long, lengths)
    stops = np.cumsum(lengths[is_long])
    runs = list(zip((stops - lengths[is_long]).tolist(), stops.tolist(),
                    dest[bounds[:-1][is_long]].tolist()))
    order = np.concatenate((np.flatnonzero(in_long), np.flatnonzero(~in_long)))
    return order, runs, dest[~in_long]


class _Taps:
    """Where each filter tap of a k x k kernel sends a list of active sites.

    keys are the sites' sorted flat keys r * q + c on a (p, q) grid.
    Destinations are flat keys on the output grid padded by a = k // 2 on
    every side; the padding holds every destination, so none needs a bounds
    check. Tap (m, n) sends site (r, c) to output cell ((r - m + a) / s,
    (c - n + a) / s) of a standard convolution with stride s, when s divides
    both, and to (r * s - m + a, c * s - n + a) of a transposed one. Each
    tap's sites split into runs whose destinations are evenly spaced, added
    by slice, and the rest, added by index.
    """

    def __init__(self, keys: np.ndarray, p: int, q: int, k: int, stride: int = 1,
                 transposed: bool = False):
        a = k // 2
        if transposed:
            self.out_p, self.out_q = p * stride, q * stride
        else:
            self.out_p, self.out_q = -(-p // stride), -(-q // stride)
        self.a = a
        self.width = w = self.out_q + 2 * a
        self.size = (self.out_p + 2 * a) * w
        rows, cols = np.divmod(keys, q)
        # self.taps holds per tap: the sites it takes in scatter order (None:
        # all sites, in self.order), the offset of its destinations, its long
        # runs and the destinations of its other sites
        if stride > 1 and not transposed:
            # tap (m, n) takes the sites with r = m - a and c = n - a modulo
            # the stride; the taps of one such class send them to the same
            # cells up to a constant offset
            self.order, self.step, self.taps = None, 1, []
            classes = {}
            for m, n in np.ndindex(k, k):
                i, j = (m - a) % stride, (n - a) % stride
                if (i, j) not in classes:
                    sel = np.flatnonzero((rows % stride == i) & (cols % stride == j))
                    order, runs, short = _runs(
                        (rows[sel] - i) // stride * w + (cols[sel] - j) // stride, 1)
                    classes[i, j] = (sel[order], runs, short)
                sel, runs, short = classes[i, j]
                off = ((i - m + a) // stride + a) * w + (j - n + a) // stride + a
                self.taps.append((sel, off, runs, short))
        else:
            # a tap's destination is the base key plus a constant offset
            self.order, runs, short = _runs(rows * (stride * w) + cols * stride, stride)
            self.step = stride
            self.taps = [(None, (2 * a - m) * w + 2 * a - n, runs, short)
                         for m in range(k) for n in range(k)]

    def touched(self) -> np.ndarray:
        """Sorted output-grid keys of the cells some tap reaches: the active
        set of a standard sparse convolution's output."""
        hit = np.zeros(self.size, dtype=bool)
        s = self.step
        for _, off, runs, short in self.taps:
            for i0, i1, d in runs:
                hit[d + off:d + off + (i1 - i0) * s:s] = True
            hit[short + off] = True
        a = self.a
        return np.flatnonzero(hit.reshape(-1, self.width)[a:a + self.out_p, a:a + self.out_q])

    def scatter(self, feats: np.ndarray, weights: np.ndarray,
                at: np.ndarray) -> tuple[np.ndarray, int]:
        """Accumulate every tap's contributions in float64, in tap order, and
        read the sums back at the sorted output-grid keys `at`, rounded to
        float32. Returns the (len(at), F) block and the multiply count, which
        includes contributions that land in the padding."""
        f, k, _, c = weights.shape
        kernel64 = weights.astype(np.float64)
        buf = np.zeros((self.size, f), dtype=np.float64)
        if self.order is None:
            feats64 = feats.astype(np.float64)
        else:
            feats64 = feats[self.order].astype(np.float64)
            shared = np.empty((len(feats64), f))  # every tap's products, in turn
        macs, s = 0, self.step
        for (m, n), (sel, off, runs, short) in zip(np.ndindex(k, k), self.taps):
            if sel is None:
                prod = np.matmul(feats64, kernel64[:, m, n, :].T, out=shared)
            else:
                prod = feats64[sel] @ kernel64[:, m, n, :].T
            macs += len(prod) * c * f
            for i0, i1, d in runs:
                buf[d + off:d + off + (i1 - i0) * s:s] += prod[i0:i1]
            buf[short + off] += prod[len(prod) - len(short):]
        a, w = self.a, self.width
        if len(at) == self.out_p * self.out_q:
            block = buf.reshape(-1, w, f)[a:a + self.out_p, a:a + self.out_q]
            return block.astype(np.float32).reshape(-1, f), macs
        rows, cols = np.divmod(at, self.out_q)
        return buf[(rows + a) * w + cols + a].astype(np.float32), macs


def _site_keys(sfm: SparseFeatureMap) -> np.ndarray:
    return sfm.coords[:, 0] * sfm.q + sfm.coords[:, 1]


def scatter_conv(fm: FeatureMap, kernel: KernelTensor, spec: ConvSpec = ConvSpec(),
                 counter: MacCounter | None = None) -> FeatureMap:
    """Dense convolution in scatter form: every cell is an active site.

    Equals gather_conv up to floating point reassociation, and is
    bit-reproducible.
    """
    _check_input(fm.channels, kernel)
    if spec.mode == ConvMode.SUBMANIFOLD:
        raise ValueError("use submanifold_conv for submanifold mode")
    taps = _Taps(np.arange(fm.p * fm.q), fm.p, fm.q, kernel.k, spec.stride,
                 spec.mode == ConvMode.TRANSPOSED)
    feats, macs = taps.scatter(fm.values.reshape(-1, fm.channels), kernel.weights,
                               np.arange(taps.out_p * taps.out_q))
    if counter is not None:
        counter.add(macs)
    return FeatureMap(feats.reshape(taps.out_p, taps.out_q, -1))


def compact_active_sites(mask: ActiveMask, fm: FeatureMap) -> SparseFeatureMap:
    """Compress the active sites of a dense map into row-major site order."""
    if mask.flags.shape != fm.values.shape[:2]:
        raise ValueError(
            f"mask shape {mask.flags.shape} does not match map {fm.values.shape[:2]}"
        )
    keys = np.flatnonzero(mask.flags)
    coords = np.stack(np.divmod(keys, fm.q), axis=1)
    return SparseFeatureMap(fm.p, fm.q, coords, fm.values.reshape(-1, fm.channels)[keys])


def sparse_scatter_conv(sfm: SparseFeatureMap, kernel: KernelTensor,
                        spec: ConvSpec = ConvSpec(),
                        counter: MacCounter | None = None) -> FeatureMap:
    """Convolution over active sites only; output is returned densified.

    Work is proportional to the site count: exactly l * k^2 * C * F multiplies
    at stride 1, counted before contributions off the grid are dropped.
    """
    _check_input(sfm.channels, kernel)
    if spec.mode == ConvMode.SUBMANIFOLD:
        raise ValueError("use submanifold_conv for submanifold mode")
    taps = _Taps(_site_keys(sfm), sfm.p, sfm.q, kernel.k, spec.stride,
                 spec.mode == ConvMode.TRANSPOSED)
    keys = taps.touched()
    feats, macs = taps.scatter(sfm.feats, kernel.weights, keys)
    if counter is not None:
        counter.add(macs)
    out = np.zeros((taps.out_p * taps.out_q, kernel.out_channels), dtype=np.float32)
    out[keys] = feats
    return FeatureMap(out.reshape(taps.out_p, taps.out_q, -1))


def submanifold_conv(sfm: SparseFeatureMap, kernel: KernelTensor,
                     counter: MacCounter | None = None) -> SparseFeatureMap:
    """Stride-1 convolution that keeps the active set fixed.

    Scatter from the active sites, then read the sums back at exactly the
    input active set: values outside it are discarded, so the active set
    never dilates.
    """
    _check_input(sfm.channels, kernel)
    keys = _site_keys(sfm)
    feats, macs = _Taps(keys, sfm.p, sfm.q, kernel.k).scatter(sfm.feats, kernel.weights, keys)
    if counter is not None:
        counter.add(macs)
    return SparseFeatureMap(sfm.p, sfm.q, sfm.coords.copy(), feats)


def transposed_conv(sfm: SparseFeatureMap, kernel: KernelTensor, stride: int,
                    counter: MacCounter | None = None) -> FeatureMap:
    """Transposed (upsampling) convolution from active sites.

    Site (i, j) scatters to (i*s - m + a, j*s - n + a); equivalent to a
    zero-insertion upsample to (p*s, q*s) followed by stride-1 scatter.
    """
    return sparse_scatter_conv(sfm, kernel, ConvSpec(stride=stride, mode=ConvMode.TRANSPOSED),
                               counter=counter)


def scatter_reachable_mask(mask: ActiveMask, k: int, stride: int = 1,
                           transposed: bool = False) -> ActiveMask:
    """Cells that can receive a contribution when the masked sites scatter.

    This is the active set of a standard sparse convolution's output; cells
    outside it are exactly zero.
    """
    taps = _Taps(np.flatnonzero(mask.flags), mask.p, mask.q, k, stride, transposed)
    flags = np.zeros(taps.out_p * taps.out_q, dtype=bool)
    flags[taps.touched()] = True
    return ActiveMask(flags.reshape(taps.out_p, taps.out_q))
