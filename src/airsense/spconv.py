"""Gather-GEMM 2D convolution over lists of active sites.

A map is a `Sites` list: sorted flat keys on a (p, q) grid plus one feature
row per key, so work scales with the number of active sites rather than the
grid area. `conv` is the one convolution. It builds an index grid of the
input padded by k // 2 on every side, whose cells off the list point at one
appended zero row, so no rule book, coordinate hash map or bounds mask is
built: each output site reads the feature row under every filter tap by
index arithmetic alone, and the rows it gathers feed one GEMM per kernel
row (TorchSparse's gather-GEMM, Tang et al. 2022). One tap rule, `_phases`,
serves the gathers, the reach set and the MAC count: a standard convolution
is one phase, and a transposed one splits its output into sub-pixel phases,
each with only the taps that land on input sites (Shi et al. 2016). Dense,
sparse and submanifold convolution differ only in which output sites `conv`
computes. `gather_conv` is the independent float64 oracle.

Precision: feature values and weights are stored as float32. A kernel row's
products, with their sum over its k taps and the C input channels, come
from one float32 GEMM; the k kernel rows are summed in float64, in row
order; the sums are rounded to float32 once per output site. `gather_conv`
accumulates in float64 throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["FeatureMap", "KernelTensor", "Sites", "gather_conv", "conv"]

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
        p, q = self.p, self.q
        if p < 1 or q < 1:
            raise ValueError(f"grid dims must be >= 1, got {p} x {q}")
        k = np.asarray(self.keys, dtype=np.int64).reshape(-1)
        if len(k):
            if not (np.diff(k) > 0).all():
                raise ValueError("site keys must be unique and sorted")
            if k[0] < 0 or k[-1] >= p * q:
                raise ValueError(f"site key out of bounds for a {p} x {q} grid")
        self.keys = k
        f = np.asarray(self.feats, dtype=np.float32)
        if f.ndim != 2 or f.shape[0] != len(self.keys):
            raise ValueError(f"feats must be (l, C) matching {len(self.keys)} keys, "
                             f"got shape {f.shape}")
        self.feats = f

    @classmethod
    def from_dense(cls, fm: FeatureMap) -> Sites:
        """Every cell of fm."""
        return cls(fm.p, fm.q, np.arange(fm.p * fm.q),
                   fm.values.reshape(fm.p * fm.q, fm.channels))

    @property
    def mask(self) -> np.ndarray:
        """Boolean (p, q) occupancy of the keys."""
        mask = np.zeros(self.p * self.q, dtype=bool)
        mask[self.keys] = True
        return mask.reshape(self.p, self.q)

    def to_dense(self) -> FeatureMap:
        out = np.zeros((self.p * self.q, self.feats.shape[1]), dtype=np.float32)
        out[self.keys] = self.feats
        return FeatureMap(out.reshape(self.p, self.q, -1))


def gather_conv(fm: FeatureMap, kernel: KernelTensor, stride: int = 1) -> FeatureMap:
    """Reference gather convolution: each output cell sums its input window.

    Kept deliberately independent from `conv` so it can serve as its
    oracle. Same-centered zero padding; float64 accumulation.
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


# Output rows per GEMM are chosen so that a gathered block holds about this
# many float32 values; 2^18 and 2^22 ran slower on a sky frame.
_CHUNK = 1 << 20


def _out_shape(p: int, q: int, stride: int, transposed: bool) -> tuple[int, int]:
    if transposed:
        return p * stride, q * stride
    return -(-p // stride), -(-q // stride)


def _phases(k: int, stride: int, transposed: bool):
    """The tap rule of `conv`, `_reach` and the MAC count: (t, u, phases).
    Output cell (R t + i, C t + j) of phase (i, j, taps_m, taps_n) reads the
    input cell padded by a = k // 2 at (R u + dm, C u + dn) under tap (m, n),
    for (dm, m) in taps_m and (dn, n) in taps_n: the taps that land on input
    sites. A standard convolution is one phase, t = 1 and u = s; a
    transposed one has t = s phases per axis and steps by u = 1."""
    a = k // 2
    t, u = (stride, 1) if transposed else (1, stride)
    axis = [[((i + m - a) // t + a, m) for m in range(k) if (i + m - a) % t == 0]
            for i in range(t)]
    return t, u, [(i, j, axis[i], axis[j]) for i, j in np.ndindex(t, t)]


def _reach(keys: np.ndarray, p: int, q: int, k: int, stride: int,
           transposed: bool) -> np.ndarray:
    """Sorted output keys some tap reaches from the sites `keys`: each
    phase ORs the occupancy grid of the padded input under its taps."""
    a = k // 2
    occ = np.zeros((p + 2 * a, q + 2 * a), dtype=bool)
    rows, cols = np.divmod(keys, q)
    occ[rows + a, cols + a] = True
    hit = np.zeros(_out_shape(p, q, stride, transposed), dtype=bool)
    t, u, phases = _phases(k, stride, transposed)
    for i, j, taps_m, taps_n in phases:
        part = hit[i::t, j::t]
        for (dm, _), (dn, _) in itertools.product(taps_m, taps_n):
            part |= occ[dm::u, dn::u][:part.shape[0], :part.shape[1]]
    return np.flatnonzero(hit)


def _gemms(table: np.ndarray, feats: np.ndarray, base: np.ndarray, sel: np.ndarray | None,
           taps_m, taps_n, width: int, weights: np.ndarray, out: np.ndarray):
    """Fills the rows out[sel] of one phase, or every row if sel is None: row
    r reads feature row table[base[r] + dm * width + dn] under tap (m, n), for
    (dm, m) in taps_m and (dn, n) in taps_n. Per kernel row m, one float32
    GEMM sums its taps over n and the C input channels; the kernel rows are
    summed in float64, in order, and rounded to float32 once."""
    f, c = weights.shape[0], weights.shape[3]
    if not taps_m or not taps_n:   # no tap lands in the phase
        out[sel] = 0.0
        return
    dn, ns = np.array(taps_n).T   # column offsets, kernel columns
    rows = [(dm * width, np.ascontiguousarray(weights[:, m, ns].reshape(f, -1).T))
            for dm, m in taps_m]
    step = max(1, _CHUNK // (len(ns) * c))
    for lo in range(0, len(base) if sel is None else len(sel), step):
        at = slice(lo, lo + step) if sel is None else sel[lo:lo + step]
        b = base[at, None] + dn
        prods = (feats[table[b + dm]].reshape(len(b), -1) @ w for dm, w in rows)
        acc = next(prods).astype(np.float64)
        for prod in prods:
            acc += prod
        out[at] = acc


_OUT = ("reach", "same", "all")


def conv(x: Sites, kernel: KernelTensor, stride: int = 1, transposed: bool = False,
         out: str = "reach") -> tuple[Sites, int]:
    """Gather convolution over the sites of x, same-centered zero padding.

    The output grid is ceil(p / s) x ceil(q / s) at stride s, where output
    cell (r, c) reads input cell (r * s + m - a, c * s + n - a) under tap
    (m, n), a = k // 2. Transposed, it is (p * s, q * s), as if the input
    were upsampled by zero insertion. One loop runs the phases of the tap
    rule: a standard convolution is one, a transposed one s^2 by (r mod s,
    c mod s), each reading only the taps that land on input sites. `out`
    picks the output sites: "reach" the cells some tap reaches (sparse
    convolution; every other cell is exactly zero), "same" the input sites
    (submanifold convolution, stride 1 only), "all" every cell (dense
    convolution). Returns the output sites and the multiply count: C * F
    for each tap of each phase and each input site of its residue class
    modulo the input step (every site at stride 1 and when transposed),
    off-grid contributions included.

    Precision: each kernel row's products, summed over its k taps and the C
    input channels, come from one float32 GEMM; the k kernel rows are summed
    in float64, in order, and rounded to float32 once per output site.
    """
    _check_input(x.feats.shape[1], kernel)
    _check_stride(stride)
    if out not in _OUT:
        raise ValueError(f"out must be one of {_OUT}, got {out!r}")
    if out == "same" and stride != 1:
        raise ValueError("submanifold convolution requires stride 1")
    p, q, k, s = x.p, x.q, kernel.k, stride
    a = k // 2
    out_p, out_q = _out_shape(p, q, s, transposed)
    if out == "all":
        keys = np.arange(out_p * out_q)
    elif out == "same":
        keys = x.keys
    else:
        keys = _reach(x.keys, p, q, k, s, transposed)
    # index grid of the padded input; cells off the list read the zero row
    l, c = x.feats.shape
    w = q + 2 * a
    table = np.full((p + 2 * a) * w, l, dtype=np.intp)
    rows, cols = np.divmod(x.keys, q)
    table[(rows + a) * w + cols + a] = np.arange(l)
    feats = np.concatenate((x.feats, np.zeros((1, c), dtype=np.float32)))
    t, u, phases = _phases(k, s, transposed)
    # a tap reads the input sites of one residue class modulo the input step
    per_class = np.bincount(rows % u * u + cols % u, minlength=u * u).reshape(u, u)
    rows, cols = np.divmod(keys, out_q)
    phase = None   # a standard convolution's one phase is every output row, in order
    if t > 1:      # each output cell's phase, and its cell (R, C) within the phase
        phase = rows % t * t + cols % t
        rows, cols = rows // t, cols // t
    base = rows * (u * w) + cols * u
    y = np.empty((len(keys), kernel.out_channels), dtype=np.float32)
    macs = 0
    for i, j, taps_m, taps_n in phases:
        sel = None if phase is None else np.flatnonzero(phase == i * t + j)
        _gemms(table, feats, base, sel, taps_m, taps_n, w, kernel.weights, y)
        macs += sum(int(per_class[(dm - a) % u, (dn - a) % u])
                    for dm, _ in taps_m for dn, _ in taps_n)
    return Sites(out_p, out_q, keys, y), macs * c * kernel.out_channels

