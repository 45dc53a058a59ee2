"""Single-head self-attention, relative position bias, window attention.

Two bias families are supported.  The conventional table indexes signed
relative distance and breaks under circular rotation of the tokens; the
circular table indexes distance mod M, is circulant, and commutes with
rotation.  Window attention runs independent self-attention per
non-overlapping block; the adaptive variant tiles the blocks from the
window anchor with the highest pooled token energy, so that they cover the
same tokens however the input was shifted.  Every op runs on the (B, M, D)
stack of a `TokenMatrix`; the adaptive one returns (tokens, TraceEntry):
each sample's anchor, on the token grid at stride window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import NORM_ORDER, POSITIVE, Layout, best_phase, check_value, checked_array
from .numerics import freeze, layout, offset_index, one_of, sorted_sum
from .tokenizer import TokenMatrix
from .trace import WSA, TraceEntry

NONE = "none"
ORIGINAL = "original"
ADAPTIVE = "adaptive"


# The window scoring functionals `a_wsa` takes by name: the maximum or the l2
# norm of an anchor's window energies.  Each is exactly invariant to any
# permutation of the energies, so scores transfer bit-for-bit across shifts.
# Their sum is not offered: a partition's energies add up to one total at
# every anchor, so it would tie almost every selection.
WINDOW_FNS = ("max", "l2")


@dataclass(frozen=True)
class AttentionParams:
    """Query/key/value projections, all D x D', plus what `_attend` derives
    from them once: the scale and `qkv`, the three side by side."""

    e_q: np.ndarray
    e_k: np.ndarray
    e_v: np.ndarray

    def __post_init__(self):
        mats = {name: checked_array(getattr(self, name), name) for name in ("e_q", "e_k", "e_v")}
        if not (mats["e_q"].shape == mats["e_k"].shape == mats["e_v"].shape):
            raise ShapeError("projection matrices must share one D x D' shape")
        for name, arr in mats.items():
            object.__setattr__(self, name, arr)

    @cached_property
    def scale(self) -> float:
        return 1.0 / np.sqrt(self.e_q.shape[1])

    @cached_property
    def qkv(self) -> np.ndarray:
        """The read-only (D, 3D') concatenation [e_q | e_k | e_v]."""
        return freeze(np.concatenate((self.e_q, self.e_k, self.e_v), axis=1))


@dataclass(frozen=True)
class RpeTable:
    """Relative position bias table.  Kind "none" carries none; for a token
    grid of shape G, the circular kind's table is G-shaped and the
    conventional kind's (2G - 1)-shaped, on every axis alike.
    """

    kind: str
    table: np.ndarray | None = None

    def __post_init__(self):
        check_value("rpe kind", self.kind, one_of(NONE, ORIGINAL, ADAPTIVE))
        if self.kind == NONE:
            if self.table is not None:
                raise ParameterError("kind 'none' carries no table")
            return
        object.__setattr__(self, "table", checked_array(self.table, "rpe table", (1, 2)))

    @cached_property
    def grid(self) -> tuple[int, ...] | None:
        """The token grid the table fits, or None for kind 'none' and for a
        conventional table with an even axis, which fits no grid."""
        if self.kind == ADAPTIVE:
            return self.table.shape
        if self.kind == NONE or any(s % 2 == 0 for s in self.table.shape):
            return None
        return tuple((s + 1) // 2 for s in self.table.shape)

    @cached_property
    def bias(self) -> np.ndarray | None:
        """Read-only bias matrix over every token pair of `grid`, built once."""
        if self.grid is None:
            return None
        return freeze(self.table.take(_bias_index(self.grid, self.kind)))


def position_bias(rpe: RpeTable, grid_shape: tuple[int, ...]) -> np.ndarray | None:
    """Bias matrix over all tokens of a grid, or None for kind 'none'; the
    table's read-only `bias`, built once.

    Entry (i, j) reads the table at the per-axis distance from token j to
    token i.  The circular kind wraps each distance mod G: its table is
    G-shaped and the bias circulant, so self-attention commutes with token
    rotation.  The conventional kind offsets each signed distance by G - 1.
    """
    if rpe.kind == NONE:
        return None
    grid = tuple(grid_shape)
    if rpe.grid != grid:
        raise ShapeError(f"table shape {rpe.table.shape} does not fit grid {grid}")
    return rpe.bias


@lru_cache(maxsize=256)
def _bias_index(grid: tuple[int, ...], kind: str) -> np.ndarray:
    """Read-only flat table index of every token pair for `RpeTable.bias`."""
    pos = np.indices(grid).reshape(len(grid), -1)
    dist = pos[:, :, np.newaxis] - pos[:, np.newaxis, :]
    sizes = np.array(grid)[:, np.newaxis, np.newaxis]
    if kind == ADAPTIVE:
        shape, dist = grid, dist % sizes
    else:
        shape, dist = tuple(2 * g - 1 for g in grid), dist + sizes - 1
    return freeze(np.ravel_multi_index(tuple(dist), shape), np.int64)


def _attend(x: np.ndarray, params: AttentionParams, rpe: RpeTable | None, grid) -> np.ndarray:
    """Attention within each (M, D) set of a stack on one `grid`, bias built
    once, queries, keys and values sliced from one product, `x @ params.qkv`.
    The stacked `@` runs one GEMM per set, bit-identical to that set alone, so
    the leading axes (samples, windows) never enter a GEMM's M dimension; and
    BLAS gives a row of `x @ W` the same bits wherever it sits in its set
    (tests/test_attention.py::test_blas_gives_a_row_of_x_at_w_its_bits_wherever_it_sits
    checks both on the default models' shapes, W of width D' and 3D', at one
    BLAS thread and at two).  The softmax subtracts each row's maximum."""
    d = params.e_q.shape[1]
    if x.shape[-1] != len(params.e_q):
        raise ShapeError(f"tokens of dim {x.shape[-1]} vs projections of dim {len(params.e_q)}")
    qkv = x @ params.qkv
    logits = qkv[..., :d] @ qkv[..., d : 2 * d].swapaxes(-1, -2)
    logits *= params.scale
    if rpe is not None and rpe.kind != NONE:
        logits += position_bias(rpe, grid)
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits @ qkv[..., 2 * d :]


def sa(tokens: TokenMatrix, params: AttentionParams, rpe: RpeTable | None = None) -> TokenMatrix:
    """Scaled dot-product self-attention over each sample's tokens, optional bias."""
    grid = tokens.grid_shape
    return TokenMatrix._fresh(_attend(tokens.data, params, rpe, grid), grid)


@dataclass(frozen=True)
class WindowConfig:
    """Window edge length, the token-energy norm order, and the scorer."""

    window: int
    energy_p: float = 2.0
    energy_fn: str = "max"
    # Per token grid, the window `Layout`, kept by `_window_layout`.
    layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_value("window", self.window, POSITIVE)
        check_value("energy_p", self.energy_p, NORM_ORDER)
        check_value("energy_fn", self.energy_fn, one_of(*WINDOW_FNS))


def _window_layout(grid: tuple[int, ...], cfg: WindowConfig) -> Layout:
    """`cfg`'s window `Layout` on `grid`, once `layout` has checked it, kept in
    `cfg.layouts` for the ops' later calls; a failed check keeps nothing."""
    return cfg.layouts.setdefault(grid, layout(grid, cfg.window, "window"))


def window_energy(tokens: TokenMatrix, cfg: WindowConfig) -> np.ndarray:
    """Grid of token energies pooled over the window anchored at each index.

    Entry k averages the lp norms of the tokens in the circular window of
    edge W starting at k.  One gather lays out every tap and the taps are
    summed in a fixed order, so a grid rotation of the tokens rotates this
    grid bit-exactly.  Shape (B, *grid), one grid per sample.
    """
    data, grid, p = tokens.data, tokens.grid_shape, cfg.energy_p
    taps = (cfg.layouts.get(grid) or _window_layout(grid, cfg)).taps
    norms = np.add.reduce(np.abs(data) ** p, axis=-1) ** (1.0 / p)
    # The tap axis is an outer axis of the gather, so the reduction adds one
    # whole tap at a time, in order, onto the 0.0 start: the bits of a
    # per-tap `+=` loop.
    acc = np.add.reduce(norms.take(taps, axis=-1), axis=-2, initial=0.0)
    acc /= float(len(taps))
    return acc.reshape(len(data), *grid)


def wsa(
    tokens: TokenMatrix,
    cfg: WindowConfig,
    params: AttentionParams,
    rpe: RpeTable | None = None,
    anchors: np.ndarray | None = None,
) -> TokenMatrix:
    """Window self-attention on the partition anchored at each sample's
    anchor, a (B, rank) array of grid offsets; by default the fixed
    partition anchored at 0.

    Every non-overlapping W-block (rank 2: W x W tile) starting at the
    anchor runs self-attention independently with the same projections and
    the same per-window bias table, all in one stacked call.  The output
    lives on the grid rotated to the anchor (row k is the token at
    (k + anchor) mod grid), so it equals this op at anchor 0 on the rotated
    tokens: both gather the same windows, here in one gather.
    """
    data, grid, w = tokens.data, tokens.grid_shape, cfg.window
    lay = cfg.layouts.get(grid) or _window_layout(grid, cfg)
    rank, n, m = len(grid), len(data), data.shape[1]
    anchors = np.zeros((n, rank), np.int64) if anchors is None else np.asarray(anchors)
    if anchors.shape != (n, rank):
        raise ShapeError(f"{anchors.shape} anchors for {n} samples on a rank-{rank} grid")
    index = offset_index(grid, w, w, anchors).reshape(-1, len(lay.phases))
    windows = data.reshape(n * m, -1).take(index, axis=0)
    rows = _attend(windows, params, rpe, (w,) * rank).reshape(n, m, -1)
    return TokenMatrix._fresh(rows if lay.in_order else rows.take(lay.untile, axis=1), grid)


def a_wsa(
    tokens: TokenMatrix,
    cfg: WindowConfig,
    params: AttentionParams,
    rpe: RpeTable | None = None,
) -> tuple[TokenMatrix, TraceEntry]:
    """Window self-attention aligned to the best-energy window anchor.

    Scores each of the W (rank 2: W x W) candidate anchors by applying the
    configured functional (`WINDOW_FNS`) to the window energies sampled at
    that phase and runs wsa on the windows anchored at the winner.  The
    output lives on the grid rotated to that anchor; the chosen offset of
    each sample is recorded.
    """
    energies, grid = window_energy(tokens, cfg), tokens.grid_shape
    lay = cfg.layouts.get(grid) or _window_layout(grid, cfg)
    phased = energies.reshape(len(energies), -1).take(lay.components, axis=1)
    if cfg.energy_fn == "max":
        scores = np.maximum.reduce(phased, axis=-1)
    else:  # "l2": the sum sorts the squares, an array of its own, in place
        scores = np.sqrt(sorted_sum(np.square(phased)))
    # Only the offsets are wanted, so no components are passed.
    _, entry = best_phase(None, scores, lay, WSA)
    return wsa(tokens, cfg, params, rpe, entry.offsets), entry
