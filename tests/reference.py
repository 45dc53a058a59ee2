"""References the tests hold the package to that the package does not
compute on its own: the patch matrix a tokenization projects, a token grid
rotated alike on every sample, one signal's circular shift (by `np.roll`)
and its zero-filling shift, and window attention one window at a time; the
steps the ops compute inline, each on its own (an attention softmax, a
window score, the full-rate patch embedding); and `index_at`, the
package's index at one offset, which the tests hold to oracles of their own."""

from itertools import product

import numpy as np

from eqvit import GridSignal, TokenMatrix
from eqvit.attention import AttentionParams, sa
from eqvit.errors import ParameterError
from eqvit.metrics import shift_stack
from eqvit.numerics import POSITIVE, as_offsets, check_value, layout, offset_index, rotate_rows
from eqvit.numerics import sorted_sum


def index_at(grid: tuple[int, ...], width: int, stride: int, offset) -> np.ndarray:
    """(positions, width**rank) `offset_index` at one offset: entry (j, t) is
    (offset + stride * j + t) mod grid per axis, j row-major over the coarse
    grid and t over range(width)**rank.  A view of the package's cached
    one-sample index: read it, never write to it."""
    return offset_index(grid, width, stride, np.array([offset], dtype=np.int64))[0]


def reshape_patches(x: GridSignal, patch_len: int, off=None) -> np.ndarray:
    """Patch matrix of the signal shifted by `off` (default 0 per axis), one
    patch per row.

    Each row flattens a patch row-major over (position, channel).  Rows
    enumerate patches row-major over the token grid.  `patch_len` meets the
    package's rules for a patch length, and each offset lies in [0, patch_len).
    """
    check_value("patch_len", patch_len, POSITIVE)  # before the layout cache, which hashes it
    layout(x.shape, patch_len, "patch_len", x.channels)
    offs = (0,) * x.rank if off is None else tuple(as_offsets([off], x.rank)[0].tolist())
    if any(not 0 <= o < patch_len for o in offs):
        raise ParameterError(f"offset {offs} outside [0, {patch_len})")
    index = index_at(x.shape, patch_len, patch_len, offs)
    return x.data.reshape(-1, x.channels).take(index, axis=0).reshape(len(index), -1)


def rotated(tokens: TokenMatrix, off) -> TokenMatrix:
    """Every sample's token grid rotated by `off` through `rotate_rows`:
    out[k] = tokens[(k + off) mod grid]."""
    offsets = np.repeat(as_offsets([off], tokens.rank), len(tokens.data), axis=0)
    return TokenMatrix(rotate_rows(tokens.data, tokens.grid_shape, offsets), tokens.grid_shape)


def rolled(x: GridSignal, off) -> GridSignal:
    """One signal shifted circularly through `np.roll`, apart from the
    package's gathers: out[n] = x[(n + off) mod shape], `off` a bare int
    (rank 1) or one int per axis."""
    offs = np.atleast_1d(off)
    return GridSignal(np.roll(x.data, (-offs).tolist(), axis=tuple(range(len(offs)))))


def zero_pad_shift(x: GridSignal, off) -> GridSignal:
    """Standard (non-circular) shift of one signal through `shift_stack`:
    out[n] = x[n + off], zeros past the end."""
    offsets = as_offsets([off], x.rank)
    return GridSignal(shift_stack(x.data[np.newaxis], offsets, zero_pad=True)[0])


def wsa_window_loop(t: TokenMatrix, w: int, params: AttentionParams, rpe) -> np.ndarray:
    """wsa as one `sa` call per window, rows gathered and scattered by explicit index."""
    out = np.zeros((t.data.shape[-2], params.e_q.shape[1]))
    for anchor in product(*(range(0, g, w) for g in t.grid_shape)):
        cells = [
            tuple(a + d for a, d in zip(anchor, delta))
            for delta in product(range(w), repeat=t.rank)
        ]
        rows = [int(np.ravel_multi_index(c, t.grid_shape)) for c in cells]
        out[rows] = sa(TokenMatrix(t.data[0, rows], (w,) * t.rank), params, rpe).data[0]
    return out


def softmax_rows(values) -> np.ndarray:
    """Softmax over the last axis of a float64 copy of `values`, with max
    subtraction for overflow safety: the weights `sa` and `wsa` attend with."""
    m = np.array(values, dtype=np.float64)
    m -= np.maximum.reduce(m, axis=-1, keepdims=True)
    np.exp(m, out=m)
    m /= np.add.reduce(m, axis=-1, keepdims=True)
    return m


def window_score(energies, name: str) -> np.ndarray:
    """The window scoring functional `name` (one of `WINDOW_FNS`: "max" or
    "l2") over the last axis of a C-contiguous float copy of `energies`, as
    `a_wsa` scores each candidate anchor."""
    energies = np.array(energies, dtype=np.float64, order="C")
    if name == "max":
        return np.maximum.reduce(energies, axis=-1)
    return np.sqrt(sorted_sum(np.square(energies)))


def token_columns(stack: np.ndarray) -> np.ndarray:
    """The C-contiguous (D, ..., M, B) columns of a (B, ..., M, D) stack of
    token matrices: the layout `a_token` embeds in and scores."""
    return np.ascontiguousarray(np.swapaxes(stack, 0, -1))


def full_rate_embed(stack: np.ndarray, taps: np.ndarray, embed: np.ndarray) -> np.ndarray:
    """The patch anchored at every grid position of a (B, *grid, C) stack,
    projected, (B, positions, D), positions in the column order of `taps`:
    a patch layout's `taps` (grid order) or `phase_taps` (polyphase order,
    which `a_token` embeds in).  The column layout `a_token` computes: one
    gather to (K, positions, B) columns and one einsum along them."""
    signal = np.ascontiguousarray(stack.reshape(len(stack), -1).T)
    cols = signal.take(taps, axis=0)
    k, m, b = cols.shape
    out = np.einsum("kd,kx->dx", embed, cols.reshape(k, m * b))
    return np.ascontiguousarray(out.reshape(-1, m, b).transpose(2, 1, 0))
