"""References the tests hold the package to that the package does not
compute on its own: the patch matrix a tokenization projects, a token grid
rotated alike on every sample, and one signal's zero-filling shift."""

import numpy as np

from eqvit import GridSignal, TokenMatrix
from eqvit.errors import ParameterError
from eqvit.metrics import shift_stack
from eqvit.numerics import POSITIVE, as_offsets, check_value, grid_index, layout, rotate_rows


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
    index = grid_index(x.shape, patch_len, patch_len, offs)
    return x.data.reshape(-1, x.channels).take(index, axis=0).reshape(len(index), -1)


def rotated(tokens: TokenMatrix, off) -> TokenMatrix:
    """Every sample's token grid rotated by `off` through `rotate_rows`:
    out[k] = tokens[(k + off) mod grid]."""
    offsets = np.repeat(as_offsets([off], tokens.rank), len(tokens.data), axis=0)
    return TokenMatrix(rotate_rows(tokens.data, tokens.grid_shape, offsets), tokens.grid_shape)


def zero_pad_shift(x: GridSignal, off) -> GridSignal:
    """Standard (non-circular) shift of one signal through `shift_stack`:
    out[n] = x[n + off], zeros past the end."""
    offsets = as_offsets([off], x.rank)
    return GridSignal(shift_stack(x.data[np.newaxis], offsets, zero_pad=True)[0])
