"""Cached gather plans against the per-tap loops they replace.

Each reference below is the loop the package ran before its taps, phases or
decoder stages became one gather (or scatter) through `grid_index`, with its
rotations and tilings spelled by `np.roll` and reshape/transpose.  They are
kept here as oracles only; every comparison is on `tobytes()`, so a -0.0
where the loop gave 0.0 counts as a difference.
"""

from itertools import combinations, product

import numpy as np
import pytest

from eqvit import GridSignal, circular_shift
from eqvit.attention import WINDOW_FNS, WindowConfig, _untile_index, window_energy
from eqvit.merging import MergeConfig, pmerge_conv_fullrate, unpool
from eqvit.numerics import argmax_rows, best_phase, grid_index, lp_norm, project_rows
from eqvit.pipeline import ModelConfig, _decode, _encode, build_model
from eqvit.tokenizer import INVARIANT_FNS, PatchEmbedConfig, TokenMatrix, _full_rate_embed
from eqvit.trace import MERGE, SelectionTrace, TraceEntry

GRIDS = [(16,), (4, 4), (4, 8), (8, 4)]


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def samples(rng, shape, dim):
    """Noise, zero, constant, and noise whose non-positive entries are -0.0."""
    noise = rng.uniform(-1, 1, (*shape, dim))
    signed_zero = np.where(noise > 0, noise, -0.0)
    return [noise, np.zeros((*shape, dim)), np.full((*shape, dim), 0.5), signed_zero]


def token_cases(grid, dim, rng):
    """Each sample alone, then all of them as one batch."""
    m = int(np.prod(grid))
    mats = [a.reshape(m, dim) for a in samples(rng, grid, dim)]
    return [TokenMatrix(a, grid) for a in mats] + [TokenMatrix(np.stack(mats), grid)]


# --------------------------------------------------------------- references --


def roll_grid(values, grid, delta, axis=-1):
    """Contiguous copy of `values` whose `axis`, row-major over `grid`, is
    read at (k + delta) mod grid: an np.roll by -delta."""
    moved = np.moveaxis(values, axis, -1)
    lead = moved.shape[:-1]
    axes = tuple(range(len(lead), len(lead) + len(grid)))
    rolled = np.roll(moved.reshape(*lead, *grid), [-d for d in delta], axis=axes)
    return np.ascontiguousarray(np.moveaxis(rolled.reshape(moved.shape), -1, axis))


def window_energy_loop(tokens, cfg):
    norms = np.sum(np.abs(tokens.data) ** cfg.energy_p, axis=-1) ** (1.0 / cfg.energy_p)
    acc = np.zeros_like(norms)
    for delta in product(range(cfg.window), repeat=tokens.rank):
        acc += roll_grid(norms, tokens.grid_shape, delta)
    return acc.reshape(tokens.grid().shape[:-1]) / float(cfg.window**tokens.rank)


def pmerge_conv_fullrate_loop(tokens, cfg):
    d = tokens.dim
    out = np.zeros((*tokens.data.shape[:-1], cfg.dim_out))
    for i, delta in enumerate(product(range(cfg.factor), repeat=tokens.rank)):
        block = cfg.embed[..., i * d : (i + 1) * d, :]
        out += project_rows(roll_grid(tokens.data, tokens.grid_shape, delta, axis=-2), block)
    return out


def full_rate_embed_stacked(stack, cfg):
    b, *shape, c = stack.shape
    taps = product(range(cfg.patch_len), repeat=len(shape))
    positions = np.arange(np.prod(shape))
    index = np.stack([roll_grid(positions, shape, delta) for delta in taps], axis=1)
    patches = stack.reshape(b, -1, c).take(index, axis=1)
    return project_rows(patches.reshape(b, len(index), -1), cfg.embed).reshape(b, *shape, cfg.dim)


def best_phase_blocks(stack, b, rank, score):
    n, c = len(stack), stack.shape[-1]
    # Each grid axis split into (blocks, b); the in-block (phase) axes move first.
    split = [k for g in stack.shape[1:-1] for k in (g // b, b)]
    order = [0, *range(2, 2 * rank + 1, 2), *range(1, 2 * rank, 2), 2 * rank + 1]
    phases = b**rank
    comps = stack.reshape(n, *split, c).transpose(order).reshape(n * phases, -1, c)
    idx, tied = argmax_rows(score(comps).reshape(n, phases))
    table = np.array(list(product(range(b), repeat=rank)), dtype=np.int64).reshape(-1, rank)
    return table[idx], comps.take(idx + phases * np.arange(n), axis=0), tied


def scatter_phases(stack, grid, b, offsets):
    """Rows of each sample at (offsets[i] + b * position) mod grid, zeros elsewhere."""
    coarse = np.indices(tuple(g // b for g in grid)).reshape(len(grid), -1)
    out = np.zeros((len(stack), *grid, stack.shape[-1]))
    for i, off in enumerate(offsets):
        pos = tuple((b * c + o) % g for c, o, g in zip(coarse, off, grid))
        out[(i, *pos)] = stack[i]
    return out


def decode_chain(cfg, tokens, trace):
    """One `unpool` per stage, then the token placement."""
    entries = list(trace)
    batch = trace.size
    zero = np.zeros((batch, cfg.rank), dtype=np.int64)
    token_offsets = entries.pop(0).offsets if cfg.a_token else zero
    per_stage = int(cfg.a_wsa) + int(cfg.a_pmerge)
    grids = cfg.stage_grids()
    feats = tokens
    for s in reversed(range(cfg.depth)):
        stage = entries[s * per_stage : (s + 1) * per_stage]
        if not cfg.a_pmerge:
            stage.append(TraceEntry(MERGE, zero, np.zeros(batch, dtype=bool)))
        feats = unpool(feats, SelectionTrace(batch, stage), cfg.merge_factors[s], grids[s])
    return scatter_phases(feats.stack(), cfg.input_shape, cfg.patch_len, token_offsets)


# ------------------------------------------------------------------- kernels --


@pytest.mark.parametrize("grid", GRIDS)
def test_window_energy_equals_tap_loop(grid):
    for tokens in token_cases(grid, 3, np.random.default_rng(1)):
        for w, p in product((1, 2, 4), (1.0, 2.0, 3.0)):
            cfg = WindowConfig(w, p)
            assert same(window_energy(tokens, cfg), window_energy_loop(tokens, cfg))


@pytest.mark.parametrize("grid", GRIDS)
def test_pmerge_conv_fullrate_equals_shift_project_loop(grid):
    rng = np.random.default_rng(2)
    d, rank = 3, len(grid)
    cases = token_cases(grid, d, rng)
    for factor in (1, 2, 4):
        cfg = MergeConfig(factor, rng.uniform(-0.5, 0.5, (factor**rank * d, 5)))
        batch = cases[-1]
        # One merge projection per sample of the batch, as the apmerge suite runs it.
        stacked = MergeConfig(factor, rng.uniform(-0.5, 0.5, (len(batch.data), *cfg.embed.shape)))
        for tokens, merge in [*((t, cfg) for t in cases), (batch, stacked)]:
            got = pmerge_conv_fullrate(tokens, merge).data
            assert same(got, pmerge_conv_fullrate_loop(tokens, merge))


@pytest.mark.parametrize("shape", [(64,), (16, 16), (8, 16), (16, 8)])
def test_full_rate_embed_equals_stacked_index(shape):
    rng = np.random.default_rng(3)
    for patch_len in (1, 2, 4):
        cfg = PatchEmbedConfig(patch_len, rng.uniform(-0.5, 0.5, (patch_len ** len(shape) * 2, 6)))
        signals = [GridSignal(a) for a in samples(rng, shape, 2)]
        stack = np.stack([x.data for x in signals])
        expect = full_rate_embed_stacked(stack, cfg)
        assert same(_full_rate_embed(signals, cfg), expect)
        for i, x in enumerate(signals):
            assert same(_full_rate_embed(x, cfg), expect[i])


SCORES = {
    "aps": lambda comps: lp_norm(comps.reshape(len(comps), -1), 2.0, axis=-1),
    **{f"token-{name}": fn for name, fn in INVARIANT_FNS.items()},
    **{f"window-{name}": lambda comps, fn=fn: fn(comps[..., 0]) for name, fn in WINDOW_FNS.items()},
}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("score", sorted(SCORES))
def test_best_phase_equals_blocks_layout(grid, score):
    rng = np.random.default_rng(4)
    channels = 1 if score.startswith("window") else 3
    stack = np.stack(samples(rng, grid, channels))
    for b in (1, 2, 4):
        for n in (1, len(stack)):
            got = best_phase(stack[:n], b, SCORES[score])
            expect = best_phase_blocks(stack[:n], b, len(grid), SCORES[score])
            assert all(same(g, e) for g, e in zip(got, expect))


def test_cached_indices_are_shared_and_read_only():
    indices = [
        (grid_index, ((4, 8), 2, 1, (0, 0), True)),  # filter taps, taps first
        (grid_index, ((16,), 4, 1, (0,), True)),
        (grid_index, ((8, 4), 2, 2, (0, 0), True)),  # polyphase components
        (grid_index, ((16,), 4, 4, (0,), True)),
        (grid_index, ((8, 16), 4, 1, (0, 0))),  # full-rate patches
        (grid_index, ((8, 16), 4, 4, (3, 1))),  # patches at an offset
        (grid_index, ((4, 8), 1, 2, (1, 3))),  # a decoder scatter
        (grid_index, ((16,), 1, 1, (5,))),  # a rotation
        (_untile_index, ((4, 8), 2)),  # the window tiling's inverse
    ]
    for fn, args in indices:
        index = fn(*args)
        assert index is fn(*args)
        with pytest.raises(ValueError):
            index.flat[0] = 1


def test_tap_index_rows_are_rotations_in_row_major_order():
    index = grid_index((4, 8), 2, 1, (0, 0), taps_first=True)
    assert index.shape == (4, 32)
    positions = np.arange(32)
    for row, delta in zip(index, product(range(2), repeat=2)):
        assert np.array_equal(row, roll_grid(positions, (4, 8), delta))
    assert same(grid_index((4, 8), 2, 1, (0, 0)), np.ascontiguousarray(index.T))


# ------------------------------------------------------------------- decoder --

DECODER_CONFIGS = {
    "1d": ModelConfig(),
    "2d": ModelConfig(input_shape=(16, 32), windows=2, merge_factors=2),
    "1d-depth0": ModelConfig(depth=0, windows=(), merge_factors=()),
    "2d-depth0": ModelConfig(input_shape=(8, 8), depth=0, windows=(), merge_factors=()),
}


@pytest.mark.parametrize("name", sorted(DECODER_CONFIGS))
@pytest.mark.parametrize(
    "off", [c for k in range(4) for c in combinations(("a_token", "a_wsa", "a_pmerge"), k)]
)
def test_composed_decode_equals_unpool_chain(name, off):
    cfg = DECODER_CONFIGS[name].disable(*off)
    model = build_model(cfg)
    rng = np.random.default_rng(5)
    x = GridSignal(rng.standard_normal((*cfg.input_shape, cfg.channels)))
    shifts = [(0,) * cfg.rank, (1,) * cfg.rank, (3,) * cfg.rank, (6,) * cfg.rank, (7,) * cfg.rank]
    batch = [circular_shift(x, s) for s in shifts] + [GridSignal(np.zeros(x.data.shape))]
    for inputs in (x, batch):
        tokens, trace = _encode(model, inputs)
        assert same(_decode(cfg, tokens, trace), decode_chain(cfg, tokens, trace))
    if cfg.a_token:  # the batch really mixes offsets
        assert len({tuple(o) for o in trace.of_kind("token")[0].offsets.tolist()}) > 1
