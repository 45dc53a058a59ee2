"""Tokenization: patch-reshape oracles, energy alignment, the unit-shift law.

reshape_oracle_* re-derive the patch matrix with explicit mod-index loops so
the tests' vectorized patch reference is pinned by independent code.
"""

from itertools import product

import numpy as np
import pytest

from eqvit import GridSignal, circular_shift
from eqvit.errors import ParameterError, ShapeError
from eqvit.numerics import layout
from eqvit.tokenizer import (
    INVARIANT_FNS,
    PatchEmbedConfig,
    TokenMatrix,
    _full_rate_embed,
    a_token,
    lemma1_sides,
    token,
)
from eqvit.trace import TOKEN
from reference import reshape_patches, rotated


def reshape_oracle_1d(data: np.ndarray, l: int, m: int) -> np.ndarray:
    n = data.shape[0]
    rows = []
    for k in range(n // l):
        row = []
        for j in range(l):
            row.extend(data[(m + l * k + j) % n])
        rows.append(row)
    return np.array(rows)


def reshape_oracle_2d(data: np.ndarray, l: int, offs) -> np.ndarray:
    h, w, _ = data.shape
    rows = []
    for kh in range(h // l):
        for kw in range(w // l):
            row = []
            for dh in range(l):
                for dw in range(l):
                    row.extend(data[(offs[0] + l * kh + dh) % h, (offs[1] + l * kw + dw) % w])
            rows.append(row)
    return np.array(rows)


def sig1(values) -> GridSignal:
    return GridSignal(np.asarray(values, dtype=float)[..., np.newaxis])


def column_picker() -> PatchEmbedConfig:
    # Projects each two-sample patch to its first sample.
    return PatchEmbedConfig(patch_len=2, embed=np.array([[1.0], [0.0]]))


# --------------------------------------------------------- reshape_patches --


def test_reshape_examples():
    x = sig1([1, 2, 3, 4, 5, 6])
    assert np.array_equal(reshape_patches(x, 2), [[1, 2], [3, 4], [5, 6]])
    assert np.array_equal(reshape_patches(x, 2, 1), [[2, 3], [4, 5], [6, 1]])


def test_reshape_patch_len_one_rotates_rows():
    x = sig1([7, 8, 9])
    assert np.array_equal(reshape_patches(x, 1, 0), [[7], [8], [9]])
    # Offsets must stay inside [0, L), so L=1 admits only the identity.
    with pytest.raises(ParameterError):
        reshape_patches(x, 1, 1)


def test_reshape_matches_oracles():
    rng = np.random.default_rng(7)
    x1 = GridSignal(rng.uniform(-1, 1, (8, 3)))
    for m in range(2):
        assert np.array_equal(reshape_patches(x1, 2, m), reshape_oracle_1d(x1.data, 2, m))
    x2 = GridSignal(rng.uniform(-1, 1, (4, 6, 2)))
    for offs in [(0, 0), (1, 1), (0, 1)]:
        assert np.array_equal(reshape_patches(x2, 2, offs), reshape_oracle_2d(x2.data, 2, offs))


def test_reshape_validates():
    with pytest.raises(ShapeError):
        reshape_patches(sig1([1, 2, 3, 4, 5, 6]), 4)
    with pytest.raises(ParameterError):
        reshape_patches(sig1([1, 2, 3, 4]), 2, 2)


# ------------------------------------------------------------------- token --


def test_token_identity_embedding():
    cfg = PatchEmbedConfig(2, np.eye(2))
    out = token(sig1([1, 2, 3, 4]), cfg)
    assert np.array_equal(out.data[0], [[1, 2], [3, 4]])
    assert out.grid_shape == (2,)


def test_token_column_projection():
    out = token(sig1([1, 2, 3, 4, 5, 6]), column_picker())
    assert np.array_equal(out.data[0], [[1], [3], [5]])


def test_token_of_zero_is_zero():
    cfg = PatchEmbedConfig(2, np.ones((2, 3)))
    out = token(sig1([0, 0, 0, 0]), cfg)
    assert np.array_equal(out.data[0], np.zeros((2, 3)))


def test_token_checks_embed_rows():
    cfg = PatchEmbedConfig(2, np.ones((3, 2)))
    with pytest.raises(ShapeError):
        token(sig1([1, 2, 3, 4]), cfg)


def test_token_is_not_shift_equivariant():
    # Generic signal, unit shift: no token-grid rotation aligns the outputs.
    rng = np.random.default_rng(11)
    x = GridSignal(rng.uniform(-1, 1, (8, 1)))
    cfg = PatchEmbedConfig(2, rng.uniform(-1, 1, (2, 3)))
    base = token(x, cfg)
    shifted = token(circular_shift(x, 1), cfg)
    worst = min(
        np.max(np.abs(shifted.data - rotated(base, r).data)) for r in range(base.data.shape[-2])
    )
    assert worst > 1e-6


# ----------------------------------------------------------------- a_token --


def test_a_token_picks_higher_energy_offset():
    tokens, trace = a_token(sig1([1, 2, 3, 4, 5, 6]), column_picker())
    # Offset 0 scores 1+3+5, offset 1 scores 2+4+6.
    assert np.array_equal(tokens.data[0], [[2], [4], [6]])
    assert trace.entries[0].kind == TOKEN
    assert trace.entries[0].offsets.tolist() == [[1]]
    assert trace.entries[0].tied.tolist() == [False]


def test_a_token_output_is_shift_stable():
    x = sig1([1, 2, 3, 4, 5, 6])
    base, _ = a_token(x, column_picker())
    out, trace = a_token(circular_shift(x, 1), column_picker())
    assert trace.entries[0].offsets.tolist() == [[0]]
    assert np.array_equal(out.data, base.data)


def test_a_token_constant_input_ties_to_offset_zero():
    _, trace = a_token(sig1([3, 3, 3, 3]), column_picker())
    assert trace.entries[0].offsets.tolist() == [[0]]
    assert trace.entries[0].tied.tolist() == [True]


def test_a_token_alignment_is_bit_exact_rank1():
    rng = np.random.default_rng(13)
    for l in (2, 3):
        cfg = PatchEmbedConfig(l, rng.uniform(-0.5, 0.5, (l * 2, 4)))
        for _ in range(25):
            x = GridSignal(rng.uniform(-1, 1, (12, 2)))
            shift = int(rng.integers(0, 12))
            base, tb = a_token(x, cfg)
            out, ts = a_token(circular_shift(x, shift), cfg)
            if tb.any_tied or ts.any_tied:
                continue
            assert any(
                np.array_equal(out.data, rotated(base, r).data) for r in range(base.data.shape[-2])
            )


def test_a_token_alignment_is_bit_exact_rank2():
    rng = np.random.default_rng(17)
    cfg = PatchEmbedConfig(2, rng.uniform(-0.5, 0.5, (4 * 2, 4)))
    for _ in range(10):
        x = GridSignal(rng.uniform(-1, 1, (8, 8, 2)))
        shift = tuple(int(s) for s in rng.integers(0, 8, size=2))
        base, tb = a_token(x, cfg)
        out, ts = a_token(circular_shift(x, shift), cfg)
        if tb.any_tied or ts.any_tied:
            continue
        assert any(
            np.array_equal(out.data, rotated(base, (rh, rw)).data)
            for rh in range(4)
            for rw in range(4)
        )


@pytest.mark.parametrize("name", sorted(INVARIANT_FNS))
def test_energy_functionals_ignore_grid_rotation(name):
    rng = np.random.default_rng(19)
    tokens = TokenMatrix(rng.uniform(-1, 1, (6, 4)), (6,))
    fn = INVARIANT_FNS[name]
    scores = {fn(rotated(tokens, r).data[0]) for r in range(6)}
    assert len(scores) == 1


def test_a_token_energy_choices_all_align():
    rng = np.random.default_rng(23)
    x = GridSignal(rng.uniform(-1, 1, (12, 2)))
    for name in INVARIANT_FNS:
        cfg = PatchEmbedConfig(3, rng.uniform(-0.5, 0.5, (6, 4)), invariant_fn=name)
        base, _ = a_token(x, cfg)
        out, _ = a_token(circular_shift(x, 5), cfg)
        assert any(np.array_equal(out.data, rotated(base, r).data) for r in range(4))


@pytest.mark.parametrize("shape, l", [((12,), 3), ((64,), 4), ((8, 12), 2), ((16, 16), 4)])
def test_full_rate_embed_equals_roll_and_concatenate(shape, l):
    rng = np.random.default_rng(31)
    x = GridSignal(rng.uniform(-1, 1, (*shape, 2)))
    cfg = PatchEmbedConfig(l, rng.uniform(-0.5, 0.5, (l ** len(shape) * 2, 8)))
    axes = tuple(range(len(shape)))
    blocks = [
        np.roll(x.data, [-d for d in delta], axis=axes)
        for delta in product(range(l), repeat=len(shape))
    ]
    patches = np.concatenate(blocks, axis=-1)
    rolled = np.einsum("mk,kd->md", patches.reshape(-1, patches.shape[-1]), cfg.embed)
    taps = layout(shape, l, "patch_len", 2).taps
    assert np.array_equal(_full_rate_embed(x.data[np.newaxis], taps, cfg.embed)[0], rolled)


# ------------------------------------------------------------ lemma1_sides --


def test_lemma1_examples():
    rng = np.random.default_rng(29)
    cfg8 = PatchEmbedConfig(2, rng.uniform(-1, 1, (4, 3)))
    assert np.array_equal(*lemma1_sides(GridSignal(rng.uniform(-1, 1, (8, 2))), cfg8, [1]))
    cfg12 = PatchEmbedConfig(3, rng.uniform(-1, 1, (6, 3)))
    assert np.array_equal(*lemma1_sides(GridSignal(rng.uniform(-1, 1, (12, 2))), cfg12, [2]))
    cfg1 = PatchEmbedConfig(1, rng.uniform(-1, 1, (2, 3)))
    assert np.array_equal(*lemma1_sides(GridSignal(rng.uniform(-1, 1, (5, 2))), cfg1, [0]))


def test_lemma1_holds_exhaustively_small():
    rng = np.random.default_rng(31)
    for n, l in [(4, 2), (6, 3), (8, 4), (6, 2)]:
        cfg = PatchEmbedConfig(l, rng.uniform(-1, 1, (l * 2, 3)))
        for _ in range(5):
            x = GridSignal(rng.uniform(-1, 1, (n, 2)))
            for m in range(l):
                assert np.array_equal(*lemma1_sides(x, cfg, [m]))


def test_lemma1_rank2_both_axes():
    rng = np.random.default_rng(37)
    cfg = PatchEmbedConfig(2, rng.uniform(-1, 1, (4 * 2, 3)))
    x = GridSignal(rng.uniform(-1, 1, (4, 6, 2)))
    for axis in (0, 1):
        for offs in [(0, 0), (1, 1), (1, 0)]:
            assert np.array_equal(*lemma1_sides(x, cfg, [offs], axis=axis))
    with pytest.raises(ParameterError):
        lemma1_sides(x, cfg, [(0, 0)], axis=2)


# ------------------------------------------------------------- TokenMatrix --


def test_token_matrix_grid_round_trip():
    t = TokenMatrix(np.arange(12.0).reshape(6, 2), (2, 3))
    assert t.data.shape == (1, 6, 2) and t.grid().shape == (1, 2, 3, 2)
    assert t.rank == 2 and t.data.shape[-2] == 6 and t.dim == 2
    assert np.array_equal(rotated(t, (2, 3)).data, t.data)


def test_token_matrix_shift_matches_roll():
    t = TokenMatrix(np.arange(8.0).reshape(4, 2), (4,))
    assert np.array_equal(rotated(t, 1).data[0], np.roll(t.data[0], -1, axis=0))


def test_token_matrix_validation():
    with pytest.raises(ShapeError):
        TokenMatrix(np.zeros((4, 2)), (3,))
    with pytest.raises(ShapeError):
        TokenMatrix(np.zeros(4), (4,))
    with pytest.raises(ParameterError):
        TokenMatrix(np.array([[np.nan, 0.0]]), (1,))


def test_patch_config_validation():
    with pytest.raises(ParameterError):
        PatchEmbedConfig(0, np.ones((1, 1)))
    with pytest.raises(ParameterError):
        PatchEmbedConfig(2, np.ones((2, 2)), invariant_fn="median")
    with pytest.raises(ParameterError):
        PatchEmbedConfig(2, np.array([[np.inf, 1.0]]))
    with pytest.raises(ShapeError):
        PatchEmbedConfig(2, np.ones(3))
    for empty in ([[], []], np.zeros((0, 4))):
        with pytest.raises(ShapeError):
            PatchEmbedConfig(2, empty)
