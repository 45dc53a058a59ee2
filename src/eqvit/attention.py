"""Single-head self-attention, relative position bias, window attention.

Two bias families are supported.  The conventional table indexes signed
relative distance and breaks under circular rotation of the tokens; the
circular table indexes distance mod M, is circulant, and commutes with
rotation.  Window attention runs independent self-attention per
non-overlapping block; the adaptive variant first rotates the token grid to
the window anchor with the highest pooled token energy so that blocks cover
the same tokens regardless of how the input was shifted.  Every op takes a
batched `TokenMatrix` too.  The adaptive one picks an anchor per sample and
returns (tokens, SelectionTrace), the trace one per-sample entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import best_phase, freeze, grid_index, require_finite, require_norm_order
from .numerics import rotate_rows, softmax_rows, stable_sum, weight_array
from .tokenizer import TokenMatrix
from .trace import WSA, SelectionTrace

NONE = "none"
ORIGINAL = "original"
ADAPTIVE = "adaptive"


# Window scoring functionals, reducing the last axis (one candidate's
# energies, or a stack of them); each is exactly invariant to any permutation
# of the candidate energies so scores transfer bit-for-bit across shifts.
WINDOW_FNS = {
    "max": lambda v: np.max(v, axis=-1),
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

    @property
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
        if self.kind not in (NONE, ORIGINAL, ADAPTIVE):
            raise ParameterError(f"unknown rpe kind {self.kind!r}")
        if self.kind == NONE:
            if self.table is not None:
                raise ParameterError("kind 'none' carries no table")
            return
        arr = np.asarray(self.table, dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise ShapeError("rpe table must be rank 1 or 2")
        require_finite(arr, "rpe table")
        object.__setattr__(self, "table", freeze(arr))

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
    """Bias matrix over all tokens of a grid, or None for kind 'none'.

    Entry (i, j) reads the table at the per-axis distance from token j to
    token i.  The circular kind wraps each distance mod G, so its table is
    G-shaped and the bias circulant, which is what makes self-attention
    commute with token rotation.  The conventional kind offsets each signed
    distance by G - 1 into a (2G - 1)-shaped table.
    """
    if rpe.kind == NONE:
        return None
    grid = tuple(grid_shape)
    shape, index = _bias_index(grid, rpe.kind)
    if rpe.table.shape != shape:
        raise ShapeError(f"table shape {rpe.table.shape} does not fit grid {grid}")
    return rpe.table.take(index)


@lru_cache(maxsize=256)
def _bias_index(grid: tuple[int, ...], kind: str) -> tuple[tuple[int, ...], np.ndarray]:
    """(table shape, read-only flat table index of every token pair) for `position_bias`."""
    pos = np.indices(grid).reshape(len(grid), -1)
    dist = pos[:, :, np.newaxis] - pos[:, np.newaxis, :]
    sizes = np.array(grid)[:, np.newaxis, np.newaxis]
    if kind == ADAPTIVE:
        shape, dist = grid, dist % sizes
    else:
        shape, dist = tuple(2 * g - 1 for g in grid), dist + sizes - 1
    index = np.ravel_multi_index(tuple(dist), shape)
    index.setflags(write=False)
    return shape, index


def _attend(x: np.ndarray, params: AttentionParams, rpe: RpeTable | None, grid) -> np.ndarray:
    """Attention within each (M, D) set of a stack on one `grid`, bias built once.
    The stacked `@` runs one GEMM per set, bit-identical to that set alone, so
    the leading axes (samples, windows) never enter a GEMM's M dimension."""
    if x.shape[-1] != params.dim_in:
        raise ShapeError(f"tokens of dim {x.shape[-1]} vs projections of dim {params.dim_in}")
    q, k, v = (x @ e for e in (params.e_q, params.e_k, params.e_v))
    logits = (q @ k.swapaxes(-1, -2)) * params.scale
    bias = position_bias(RpeTable.none() if rpe is None else rpe, grid)
    if bias is not None:
        logits = logits + bias
    return softmax_rows(logits) @ v


def sa(tokens: TokenMatrix, params: AttentionParams, rpe: RpeTable | None = None) -> TokenMatrix:
    """Scaled dot-product self-attention over all tokens (of each sample), optional bias."""
    grid = tokens.grid_shape
    return TokenMatrix._fresh(_attend(tokens.data, params, rpe, grid), grid)


@dataclass(frozen=True)
class WindowConfig:
    """Window edge length, the token-energy norm order, and the scorer."""

    window: int
    energy_p: float = 2.0
    energy_fn: str = "max"

    def __post_init__(self):
        if self.window < 1:
            raise ParameterError(f"window must be >= 1, got {self.window}")
        require_norm_order(self.energy_p)
        if self.energy_fn not in WINDOW_FNS:
            raise ParameterError(
                f"unknown energy_fn {self.energy_fn!r}, choose from {sorted(WINDOW_FNS)}"
            )


def _check_window(tokens: TokenMatrix, cfg: WindowConfig) -> None:
    for g in tokens.grid_shape:
        if g % cfg.window:
            raise ShapeError(f"grid axis {g} is not divisible by window {cfg.window}")


def window_energy(tokens: TokenMatrix, cfg: WindowConfig) -> np.ndarray:
    """Grid of token energies pooled over the window anchored at each index.

    Entry k averages the lp norms of the tokens in the circular window of
    edge W starting at k.  One gather lays out every tap and the taps are
    summed in a fixed order, so a grid rotation of the tokens rotates this
    grid bit-exactly.  A batch gives (B, *grid).
    """
    _check_window(tokens, cfg)
    norms = np.sum(np.abs(tokens.data) ** cfg.energy_p, axis=-1) ** (1.0 / cfg.energy_p)
    index = grid_index(tokens.grid_shape, cfg.window, 1, (0,) * tokens.rank, taps_first=True)
    taps = norms.take(index, axis=-1)
    # The tap axis is an outer axis of the gather, so the reduction adds one
    # whole tap at a time, in order, onto the 0.0 start: the bits of a
    # per-tap `+=` loop.
    acc = np.add.reduce(taps, axis=-2, initial=0.0)
    return acc.reshape(tokens.grid().shape[:-1]) / float(cfg.window**tokens.rank)


def wsa(
    tokens: TokenMatrix,
    cfg: WindowConfig,
    params: AttentionParams,
    rpe: RpeTable | None = None,
) -> TokenMatrix:
    """Window self-attention on the fixed partition anchored at 0.

    Every non-overlapping W-block (rank 2: W x W tile) runs self-attention
    independently with the same projections and the same per-window bias
    table, all in one stacked call, and the outputs are gathered back in place.
    """
    _check_window(tokens, cfg)
    w, grid = cfg.window, tokens.grid_shape
    windows = tokens.data.take(grid_index(grid, w, w, (0,) * tokens.rank), axis=-2)
    stacked = _attend(windows, params, rpe, (w,) * tokens.rank)
    rows = stacked.reshape(*tokens.data.shape[:-1], -1)
    return TokenMatrix._fresh(rows.take(_untile_index(grid, w), axis=-2), grid)


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
    configured functional to the window energies sampled at that phase,
    rotates the token grid to the winning anchor, and runs wsa there.  The
    output lives on the rotated grid; the chosen offset is recorded.  A batch
    picks and rotates per sample, one trace offset per sample.
    """
    energies = window_energy(tokens, cfg)
    score = WINDOW_FNS[cfg.energy_fn]
    offsets, _, tied = best_phase(
        energies.reshape(-1, *tokens.grid_shape, 1),
        cfg.window,
        lambda comps: score(comps[..., 0]),
    )
    rotated = rotate_rows(tokens.stack(), tokens.grid_shape, offsets)
    out = wsa(tokens.like(rotated, tokens.grid_shape), cfg, params, rpe)
    return out, SelectionTrace.single(WSA, offsets, tied)
