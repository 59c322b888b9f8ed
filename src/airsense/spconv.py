"""Scatter-based 2D convolution over lists of active sites.

A map is a `Sites` list: sorted flat keys on a (p, q) grid plus one feature
row per key, so work scales with the number of active sites rather than the
grid area. `conv` is the one convolution: it pushes each site's weighted
contributions out to the output cells selected by the filter tap, instead of
gathering a neighborhood per output cell. Dense, sparse and submanifold
convolution differ only in which output sites `conv` keeps; `reach` returns
the sparse choice on its own. No rule book, coordinate hash map or bounds
mask is built anywhere: destinations follow from index arithmetic alone,
into a buffer padded by k // 2 on every side that holds every destination.
A tap's destination is a site's base key plus a constant offset (strided
convolution first selects the sites that land on the output lattice), so a
run of consecutive sites lands on one evenly spaced slice of the buffer:
long runs are added by slice, the remaining sites by one indexed add per
tap. `gather_conv` is the independent oracle.

Precision: feature values and weights are stored as float32. Each tap's
products, with their sum over the C input channels, come from one float32
GEMM; the taps' products are summed in float64, in tap order; the sums are
rounded to float32 on the output sites only. `gather_conv` accumulates in
float64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FeatureMap", "KernelTensor", "Sites", "gather_conv", "conv", "reach"]

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



def _check_stride(stride: int):
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")


def _check_keys(keys, p: int, q: int) -> np.ndarray:
    if p < 1 or q < 1:
        raise ValueError(f"grid dims must be >= 1, got {p} x {q}")
    k = np.asarray(keys, dtype=np.int64).reshape(-1)
    if len(k):
        if not (np.diff(k) > 0).all():
            raise ValueError("site keys must be unique and sorted")
        if k[0] < 0 or k[-1] >= p * q:
            raise ValueError(f"site key out of bounds for a {p} x {q} grid")
    return k


@dataclass
class Sites:
    """Active sites of a (p, q, C) map: unique flat keys r * q + c in
    ascending (row-major) order, and the matching (l, C) float32 features.
    Cells off the list are zero."""

    p: int
    q: int
    keys: np.ndarray
    feats: np.ndarray

    def __post_init__(self):
        self.keys = _check_keys(self.keys, self.p, self.q)
        f = np.asarray(self.feats, dtype=np.float32)
        if f.ndim != 2 or f.shape[0] != len(self.keys):
            raise ValueError(f"feats must be (l, C) matching {len(self.keys)} keys, "
                             f"got shape {f.shape}")
        self.feats = f

    @classmethod
    def from_dense(cls, fm: FeatureMap, mask: np.ndarray | None = None) -> Sites:
        """Every cell of fm, or only the cells set in a boolean (p, q) mask."""
        values = fm.values.reshape(fm.p * fm.q, fm.channels)
        if mask is None:
            return cls(fm.p, fm.q, np.arange(fm.p * fm.q), values)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (fm.p, fm.q):
            raise ValueError(f"mask shape {mask.shape} does not match map {(fm.p, fm.q)}")
        keys = np.flatnonzero(mask)
        return cls(fm.p, fm.q, keys, values[keys])

    def to_dense(self) -> FeatureMap:
        out = np.zeros((self.p * self.q, self.feats.shape[1]), dtype=np.float32)
        out[self.keys] = self.feats
        return FeatureMap(out.reshape(self.p, self.q, -1))


def gather_conv(fm: FeatureMap, kernel: KernelTensor, stride: int = 1) -> FeatureMap:
    """Reference gather convolution: each output cell sums its input window.

    Kept deliberately independent from the scatter engine so it can serve as
    its oracle. Same-centered zero padding; float64 accumulation.
    """
    _check_input(fm.channels, kernel)
    _check_stride(stride)
    p, q, c = fm.values.shape
    k = kernel.k
    a = k // 2
    padded = np.zeros((p + 2 * a, q + 2 * a, c), dtype=np.float64)
    padded[a:a + p, a:a + q] = fm.values
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(0, 1))
    win = win[::stride, ::stride]  # (out_p, out_q, C, k, k)
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
        # self.order lists the sites in scatter order; self.taps holds per tap
        # the slice [lo, hi) of that order it takes, the offset of its
        # destinations, its long runs (numbered within the slice) and the
        # destinations of its other sites
        if stride > 1 and not transposed:
            # tap (m, n) takes the sites with r = m - a and c = n - a modulo
            # the stride; the taps of one such class send them to the same
            # cells up to a constant offset, so each class is one slice
            self.step, self.taps = 1, []
            classes, orders, lo = {}, [], 0
            for m, n in np.ndindex(k, k):
                i, j = (m - a) % stride, (n - a) % stride
                if (i, j) not in classes:
                    sel = np.flatnonzero((rows % stride == i) & (cols % stride == j))
                    order, runs, short = _runs(
                        (rows[sel] - i) // stride * w + (cols[sel] - j) // stride, 1)
                    orders.append(sel[order])
                    classes[i, j] = (lo, lo + len(sel), runs, short)
                    lo += len(sel)
                lo_c, hi_c, runs, short = classes[i, j]
                off = ((i - m + a) // stride + a) * w + (j - n + a) // stride + a
                self.taps.append((lo_c, hi_c, off, runs, short))
            self.order = np.concatenate(orders)
        else:
            # a tap's destination is the base key plus a constant offset
            self.order, runs, short = _runs(rows * (stride * w) + cols * stride, stride)
            self.step = stride
            self.taps = [(0, len(keys), (2 * a - m) * w + 2 * a - n, runs, short)
                         for m in range(k) for n in range(k)]

    def touched(self) -> np.ndarray:
        """Sorted output-grid keys of the cells some tap reaches: the active
        set of a standard sparse convolution's output."""
        hit = np.zeros(self.size, dtype=bool)
        s = self.step
        for _, _, off, runs, short in self.taps:
            for i0, i1, d in runs:
                hit[d + off:d + off + (i1 - i0) * s:s] = True
            hit[short + off] = True
        a = self.a
        return np.flatnonzero(hit.reshape(-1, self.width)[a:a + self.out_p, a:a + self.out_q])

    def scatter(self, feats: np.ndarray, weights: np.ndarray,
                at: np.ndarray) -> tuple[np.ndarray, int]:
        """Run each tap's GEMM in float32, so that its products and their sum
        over the C input channels are float32, and add the products into a
        float64 buffer in tap order: the sums across taps are float64. Read
        them back at the sorted output-grid keys `at`, rounded to float32.
        Returns the (len(at), F) block and the multiply count, which includes
        contributions that land in the padding."""
        f, k, _, c = weights.shape
        kernel = weights.transpose(1, 2, 3, 0)  # (k, k, C, F) view
        buf = np.zeros((self.size, f), dtype=np.float64)
        x = feats[self.order]  # every site once, each stride class one slice
        shared = np.empty((len(x), f), dtype=np.float32)  # each tap's products, in turn
        macs, s = 0, self.step
        for (m, n), (lo, hi, off, runs, short) in zip(np.ndindex(k, k), self.taps):
            prod = np.matmul(x[lo:hi], kernel[m, n], out=shared[:hi - lo])
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



_OUT = ("reach", "same", "all")


def conv(x: Sites, kernel: KernelTensor, stride: int = 1, transposed: bool = False,
         out: str = "reach") -> tuple[Sites, int]:
    """Scatter convolution of the sites of x, same-centered zero padding.

    The output grid is ceil(p / s) x ceil(q / s) at stride s, or (p * s,
    q * s) when transposed: site (r, c) then scatters from (r * s, c * s),
    as if upsampled by zero insertion. `out` picks the output sites:
    "reach" the cells some tap reaches (sparse convolution; every other cell
    is exactly zero), "same" the input sites (submanifold convolution, stride
    1 only), "all" every cell (dense convolution). Returns the output sites
    and the multiply count: l * k^2 * C * F for l input sites at stride 1,
    contributions that land off the grid included.
    """
    _check_input(x.feats.shape[1], kernel)
    _check_stride(stride)
    if out not in _OUT:
        raise ValueError(f"out must be one of {_OUT}, got {out!r}")
    if out == "same" and stride != 1:
        raise ValueError("submanifold convolution requires stride 1")
    taps = _Taps(x.keys, x.p, x.q, kernel.k, stride, transposed)
    if out == "all":
        keys = np.arange(taps.out_p * taps.out_q)
    elif out == "same":
        keys = x.keys
    else:
        keys = taps.touched()
    feats, macs = taps.scatter(x.feats, kernel.weights, keys)
    return Sites(taps.out_p, taps.out_q, keys, feats), macs


def reach(keys: np.ndarray, p: int, q: int, k: int, stride: int = 1,
          transposed: bool = False) -> np.ndarray:
    """Sorted output keys a k x k scatter from the sorted site keys of a
    (p, q) grid reaches: the output sites of conv(..., out="reach")."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"kernel side must be odd, got {k}")
    _check_stride(stride)
    return _Taps(_check_keys(keys, p, q), p, q, k, stride, transposed).touched()
