"""Single-head self-attention, relative position bias, window attention.

Two bias families are supported.  The conventional table indexes signed
relative distance and breaks under circular rotation of the tokens; the
circular table indexes distance mod M, is circulant, and commutes with
rotation.  Window attention runs independent self-attention per
non-overlapping block; the adaptive variant tiles the blocks from the
window anchor with the highest pooled token energy so that they cover the
same tokens regardless of how the input was shifted.  Every op runs on the
(B, M, D) stack a `TokenMatrix` holds, one signal being the stack of one.
The adaptive one picks an anchor per sample and returns (tokens,
SelectionTrace), the trace one per-sample entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import NORM_ORDER, POSITIVE, argmax_rows, check_value, coarse_grid, freeze
from .numerics import grid_index, offset_index, one_of, phase_table, real_array, require_finite
from .numerics import softmax_rows, stable_sum, weight_array
from .tokenizer import TokenMatrix
from .trace import WSA, SelectionTrace

NONE = "none"
ORIGINAL = "original"
ADAPTIVE = "adaptive"


# Window scoring functionals, reducing the last axis (one candidate's
# energies, or a stack of them); each is exactly invariant to any permutation
# of the candidate energies so scores transfer bit-for-bit across shifts.
WINDOW_FNS = {
    "max": lambda v: np.maximum.reduce(v, axis=-1),
    "sum": lambda v: stable_sum(v, axis=-1),
    "l2": lambda v: np.sqrt(stable_sum(np.square(v), axis=-1)),
}


@dataclass(frozen=True)
class AttentionParams:
    """Query/key/value projections, all D x D', plus the derived scale."""

    e_q: np.ndarray
    e_k: np.ndarray
    e_v: np.ndarray

    def __post_init__(self):
        mats = {name: weight_array(getattr(self, name), name) for name in ("e_q", "e_k", "e_v")}
        if not (mats["e_q"].shape == mats["e_k"].shape == mats["e_v"].shape):
            raise ShapeError("projection matrices must share one D x D' shape")
        for name, arr in mats.items():
            object.__setattr__(self, name, arr)

    @property
    def dim_in(self) -> int:
        return self.e_q.shape[0]

    @property
    def dim_out(self) -> int:
        return self.e_q.shape[1]

    @cached_property
    def scale(self) -> float:
        return 1.0 / np.sqrt(self.e_q.shape[1])


@dataclass(frozen=True)
class RpeTable:
    """Relative position bias table.

    kind "none" carries no table.  For a token grid of shape G the table is
    G-shaped for the circular kind and (2G - 1)-shaped per axis for the
    conventional kind (rank 2 uses the same rule on both axes).
    """

    kind: str
    table: np.ndarray | None = None

    def __post_init__(self):
        check_value("rpe kind", self.kind, one_of(NONE, ORIGINAL, ADAPTIVE))
        if self.kind == NONE:
            if self.table is not None:
                raise ParameterError("kind 'none' carries no table")
            return
        arr = real_array(self.table, "rpe table")
        if arr.ndim not in (1, 2):
            raise ShapeError("rpe table must be rank 1 or 2")
        require_finite(arr, "rpe table")
        object.__setattr__(self, "table", freeze(arr))

    @property
    def grid(self) -> tuple[int, ...] | None:
        """The token grid the table fits, or None for kind 'none' and for a
        conventional table with an even axis, which fits no grid."""
        if self.kind == NONE:
            return None
        if self.kind == ADAPTIVE:
            return self.table.shape
        if any(s % 2 == 0 for s in self.table.shape):
            return None
        return tuple((s + 1) // 2 for s in self.table.shape)

    @cached_property
    def bias(self) -> np.ndarray | None:
        """Read-only bias matrix over every token pair of `grid`, built once."""
        if self.grid is None:
            return None
        bias = self.table.take(_bias_index(self.grid, self.kind))
        bias.setflags(write=False)
        return bias

    @classmethod
    def none(cls) -> RpeTable:
        return cls(NONE)

    @classmethod
    def original(cls, table) -> RpeTable:
        return cls(ORIGINAL, table)

    @classmethod
    def adaptive(cls, table) -> RpeTable:
        return cls(ADAPTIVE, table)


def position_bias(rpe: RpeTable, grid_shape: tuple[int, ...]) -> np.ndarray | None:
    """Bias matrix over all tokens of a grid, or None for kind 'none'; the
    table's read-only `bias`, built once.

    Entry (i, j) reads the table at the per-axis distance from token j to
    token i.  The circular kind wraps each distance mod G, so its table is
    G-shaped and the bias circulant, which is what makes self-attention
    commute with token rotation.  The conventional kind offsets each signed
    distance by G - 1 into a (2G - 1)-shaped table.
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
    index = np.ravel_multi_index(tuple(dist), shape)
    index.setflags(write=False)
    return index


def _attend(x: np.ndarray, params: AttentionParams, rpe: RpeTable | None, grid) -> np.ndarray:
    """Attention within each (M, D) set of a stack on one `grid`, bias built once.
    The stacked `@` runs one GEMM per set, bit-identical to that set alone, so
    the leading axes (samples, windows) never enter a GEMM's M dimension."""
    e_q = params.e_q
    if x.shape[-1] != len(e_q):
        raise ShapeError(f"tokens of dim {x.shape[-1]} vs projections of dim {len(e_q)}")
    logits = ((x @ e_q) @ (x @ params.e_k).swapaxes(-1, -2)) * params.scale
    if rpe is not None and rpe.kind != NONE:
        logits = logits + position_bias(rpe, grid)
    return softmax_rows(logits) @ (x @ params.e_v)


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

    def __post_init__(self):
        check_value("window", self.window, POSITIVE)
        check_value("energy_p", self.energy_p, NORM_ORDER)
        check_value("energy_fn", self.energy_fn, one_of(*WINDOW_FNS))


def window_energy(tokens: TokenMatrix, cfg: WindowConfig) -> np.ndarray:
    """Grid of token energies pooled over the window anchored at each index.

    Entry k averages the lp norms of the tokens in the circular window of
    edge W starting at k.  One gather lays out every tap and the taps are
    summed in a fixed order, so a grid rotation of the tokens rotates this
    grid bit-exactly.  Shape (B, *grid), one grid per sample.
    """
    data, grid, w, p = tokens.data, tokens.grid_shape, cfg.window, cfg.energy_p
    coarse_grid(grid, w, "window")
    norms = np.add.reduce(np.abs(data) ** p, axis=-1) ** (1.0 / p)
    taps = norms.take(grid_index(grid, w, 1, (0,) * len(grid), taps_first=True), axis=-1)
    # The tap axis is an outer axis of the gather, so the reduction adds one
    # whole tap at a time, in order, onto the 0.0 start: the bits of a
    # per-tap `+=` loop.
    acc = np.add.reduce(taps, axis=-2, initial=0.0)
    return acc.reshape(len(data), *grid) / float(w ** len(grid))


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
    coarse_grid(grid, w, "window")
    rank, n, m = len(grid), len(data), data.shape[1]
    anchors = np.zeros((n, rank), np.int64) if anchors is None else np.asarray(anchors)
    if anchors.shape != (n, rank):
        raise ShapeError(f"{anchors.shape} anchors for {n} samples on a rank-{rank} grid")
    index = offset_index(grid, w, w, anchors, stacked=True).reshape(-1, w**rank)
    windows = data.reshape(n * m, -1).take(index, axis=0)
    rows = _attend(windows, params, rpe, (w,) * rank).reshape(n, m, -1)
    return TokenMatrix._fresh(rows.take(_untile_index(grid, w), axis=1), grid)


@lru_cache(maxsize=256)
def _untile_index(grid: tuple[int, ...], w: int) -> np.ndarray:
    """Read-only inverse of the window tiling: grid position k sits at row
    index[k] of the windows laid out one after another."""
    index = np.argsort(grid_index(grid, w, w, (0,) * len(grid)).ravel())
    index.setflags(write=False)
    return index


def a_wsa(
    tokens: TokenMatrix,
    cfg: WindowConfig,
    params: AttentionParams,
    rpe: RpeTable | None = None,
) -> tuple[TokenMatrix, SelectionTrace]:
    """Window self-attention aligned to the best-energy window anchor.

    Scores each of the W (rank 2: W x W) candidate anchors by applying the
    configured functional to the window energies sampled at that phase and
    runs wsa on the windows anchored at the winner.  The output lives on the
    grid rotated to that anchor; the chosen offset of each sample is
    recorded.
    """
    energies = window_energy(tokens, cfg)
    grid, w = tokens.grid_shape, cfg.window
    # The polyphase selection of `best_phase`, without its winning component.
    index = grid_index(grid, w, w, (0,) * len(grid), taps_first=True)
    scores = WINDOW_FNS[cfg.energy_fn](energies.reshape(-1, index.size).take(index, axis=1))
    idx, tied = argmax_rows(scores)
    offsets = phase_table(w, len(grid))[idx]
    return wsa(tokens, cfg, params, rpe, offsets), SelectionTrace.single(WSA, offsets, tied)
