"""Tokenization: patch-reshape oracles, energy alignment, the unit-shift law.

reshape_oracle_* re-derive the patch matrix with explicit mod-index loops so
the tests' vectorized patch reference is pinned by independent code.
"""

from itertools import product
from math import prod

import numpy as np
import pytest

from eqvit import GridSignal, harness
from eqvit.errors import ParameterError, ShapeError
from eqvit.harness import SuiteConfig
from eqvit.numerics import layout
from eqvit.tokenizer import (
    INVARIANT_FNS,
    PatchEmbedConfig,
    TokenMatrix,
    _token_energy,
    a_token,
    token,
)
from eqvit.trace import TOKEN
from reference import full_rate_embed, reshape_patches, rolled, rotated, token_columns
from trials import lemma1_check, swapped_token


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
    shifted = token(rolled(x, 1), cfg)
    worst = min(
        np.max(np.abs(shifted.data - rotated(base, r).data)) for r in range(base.data.shape[-2])
    )
    assert worst > 1e-6


# ----------------------------------------------------------------- a_token --


def test_a_token_picks_higher_energy_offset():
    tokens, entry = a_token(sig1([1, 2, 3, 4, 5, 6]), column_picker())
    # Offset 0 scores 1+3+5, offset 1 scores 2+4+6.
    assert np.array_equal(tokens.data[0], [[2], [4], [6]])
    assert entry.kind == TOKEN
    assert entry.offsets.tolist() == [[1]]
    assert entry.tied.tolist() == [False]
    # The offsets index the signal grid, at the patch length's phases.
    assert (entry.grid, entry.stride) == ((6,), 2)


def test_a_token_output_is_shift_stable():
    x = sig1([1, 2, 3, 4, 5, 6])
    base, _ = a_token(x, column_picker())
    out, entry = a_token(rolled(x, 1), column_picker())
    assert entry.offsets.tolist() == [[0]]
    assert np.array_equal(out.data, base.data)


def test_a_token_constant_input_ties_to_offset_zero():
    _, entry = a_token(sig1([3, 3, 3, 3]), column_picker())
    assert entry.offsets.tolist() == [[0]]
    assert entry.tied.tolist() == [True]


def test_a_token_alignment_is_bit_exact_rank1():
    rng = np.random.default_rng(13)
    for l in (2, 3):
        cfg = PatchEmbedConfig(l, rng.uniform(-0.5, 0.5, (l * 2, 4)))
        for _ in range(25):
            x = GridSignal(rng.uniform(-1, 1, (12, 2)))
            shift = int(rng.integers(0, 12))
            base, tb = a_token(x, cfg)
            out, ts = a_token(rolled(x, shift), cfg)
            if tb.tied.any() or ts.tied.any():
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
        out, ts = a_token(rolled(x, shift), cfg)
        if tb.tied.any() or ts.tied.any():
            continue
        assert any(
            np.array_equal(out.data, rotated(base, (rh, rw)).data)
            for rh in range(4)
            for rw in range(4)
        )


@pytest.mark.parametrize("name", sorted(INVARIANT_FNS))
@pytest.mark.parametrize("grid", [(6,), (7,), (3, 4), (4, 4)])
@pytest.mark.parametrize("dim", [4, 5, 9])
def test_energy_functionals_ignore_grid_rotation(name, grid, dim):
    # Scored as columns, the layout `a_token` scores in: every rotation of the
    # grid gets the same bits, scored alone and inside a stack of all of them.
    rng = np.random.default_rng(19)
    tokens = TokenMatrix(rng.uniform(-1, 1, (prod(grid), dim)), grid)
    turns = np.stack([rotated(tokens, r).data[0] for r in product(*map(range, grid))])
    scores = {_token_energy(token_columns(t[np.newaxis]), name).tobytes() for t in turns}
    assert len(scores) == 1
    stacked = _token_energy(token_columns(turns), name)
    assert {s.tobytes() for s in stacked[:, np.newaxis]} == scores


def test_a_token_energy_choices_all_align():
    rng = np.random.default_rng(23)
    x = GridSignal(rng.uniform(-1, 1, (12, 2)))
    for name in INVARIANT_FNS:
        cfg = PatchEmbedConfig(3, rng.uniform(-0.5, 0.5, (6, 4)), invariant_fn=name)
        base, _ = a_token(x, cfg)
        out, _ = a_token(rolled(x, 5), cfg)
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
    assert np.array_equal(full_rate_embed(x.data[np.newaxis], taps, cfg.embed)[0], rolled)
    # a_token keeps that embedding's rows at its chosen phase, bit for bit.
    tokens, entry = a_token(x, cfg)
    phase = entry.offsets[0]
    grid = rolled.reshape(*shape, -1)[tuple(slice(o, None, l) for o in phase)]
    assert np.array_equal(tokens.data, grid.reshape(tokens.data.shape))


# ------------------------------------------------------------------ lemma1 --
# Through the suite's own check, which tokenizes both sides with `token`.


def assert_lemma1_exact(xs, cfg, offsets):
    div, agree, tied = lemma1_check(np.asarray(xs), cfg, offsets)
    assert div.tolist() == [0.0] * len(div) and agree.all() and not tied.any()


def test_lemma1_examples():
    rng = np.random.default_rng(29)
    cfg8 = PatchEmbedConfig(2, rng.uniform(-1, 1, (4, 3)))
    assert_lemma1_exact([rng.uniform(-1, 1, (8, 2))], cfg8, [1])
    cfg12 = PatchEmbedConfig(3, rng.uniform(-1, 1, (6, 3)))
    assert_lemma1_exact([rng.uniform(-1, 1, (12, 2))], cfg12, [2])
    cfg1 = PatchEmbedConfig(1, rng.uniform(-1, 1, (2, 3)))
    assert_lemma1_exact([rng.uniform(-1, 1, (5, 2))], cfg1, [0])


def test_lemma1_holds_exhaustively_small():
    rng = np.random.default_rng(31)
    for n, l in [(4, 2), (6, 3), (8, 4), (6, 2)]:
        cfg = PatchEmbedConfig(l, rng.uniform(-1, 1, (l * 2, 3)))
        xs = rng.uniform(-1, 1, (5, n, 2))
        for m in range(l):
            assert_lemma1_exact(xs, cfg, [m] * len(xs))


@pytest.mark.parametrize("shape, l", [((8, 8), 2), ((8, 8), 4), ((12, 6), 2), ((12, 6), 3)])
def test_lemma1_rank2_both_axes(shape, l):
    # Every offset of the patch at once.  The check shifts along axis 0; on
    # the transposed inputs that is axis 1 of the originals.
    rng = np.random.default_rng(37)
    cfg = PatchEmbedConfig(l, rng.uniform(-1, 1, (l * l * 2, 3)))
    xs = rng.uniform(-1, 1, (3, *shape, 2))
    offsets = list(product(range(l), repeat=2))
    for inputs in (xs, xs.transpose(0, 2, 1, 3)):
        assert_lemma1_exact(np.repeat(inputs, len(offsets), axis=0), cfg, offsets * len(xs))


def test_lemma1_fails_a_token_that_depends_on_position(monkeypatch):
    # lemma1 checks the tokenizer the model runs.  Only the carry at m = l - 1
    # moves tokens between the sides, and on a grid of two tokens swapping
    # them is that rotation: the swap fails there from three tokens on.
    rng = np.random.default_rng(41)
    cfg = PatchEmbedConfig(2, rng.uniform(-1, 1, (4, 3)))
    xs = rng.uniform(-1, 1, (3, 8, 2))
    monkeypatch.setattr(harness, "token", swapped_token)
    div, agree, _ = lemma1_check(np.concatenate([xs, xs]), cfg, [0, 0, 0, 1, 1, 1])
    assert div[:3].tolist() == [0.0] * 3 and (div[3:] > 0).all() and agree.all()
    result = harness.run_lemma1(SuiteConfig(suites=("lemma1",), trials=5))
    assert result.failures > 0 and result.counterexample is not None
    assert harness.replay(result.counterexample)[0] == 1
    monkeypatch.undo()
    assert harness.replay(result.counterexample)[0] == 0


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
