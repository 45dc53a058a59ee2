"""Cached gather plans against the per-tap loops they replace.

Each reference below is the loop the package ran before its taps, phases or
decoder stages became one gather (or scatter) through `offset_index`, with
its rotations and tilings spelled by `np.roll` and reshape/transpose.  They
are kept here as oracles only; every comparison is on `tobytes()`, so a -0.0
where the loop gave 0.0 counts as a difference.  The column projection of
the full-rate embedding (`full_rate_embed`, the layout `a_token` computes
inline) is held to the row layout it replaced and to a plain loop over k,
its polyphase order to the grid order gathered into components, and
`a_token` to it at every phase; the merge that projects before it moves
is held to the per-tap loop, and anchored window attention to
rotate-then-`wsa`.  One policy holds for every index: cached ones (one
sample's `offset_index`, each `Layout`'s arrays) are private and
writeable, so that `take` does not copy them, and stay as built; arrays
handed to callers (the phase table, op outputs) are read-only.
"""

import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from eqvit import GridSignal
from eqvit.attention import AttentionParams, RpeTable, WINDOW_FNS, WindowConfig, a_wsa
from eqvit.attention import position_bias, sa, window_energy, wsa
from eqvit.errors import ShapeError
from eqvit.merging import MergeConfig, a_pmerge, aps, pmerge, pmerge_conv_fullrate, unpool
from eqvit import numerics
from eqvit.numerics import Layout, SignalBatch, best_phase, layout, lp_norm
from eqvit.numerics import offset_index, project_rows, rotate_rows
from eqvit.pipeline import ModelConfig, _decode, _encode, build_model, forward
from eqvit.tokenizer import INVARIANT_FNS, PatchEmbedConfig, TokenMatrix
from eqvit.tokenizer import _token_energy
from eqvit.tokenizer import a_token, token
from eqvit.trace import MERGE, TOKEN, WSA, SelectionTrace, TraceEntry
from reference import full_rate_embed, index_at, rolled, token_columns, window_score
from reference import wsa_window_loop
from trials import lemma1_check

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
    out = np.zeros((*tokens.data.shape[:-1], cfg.embed.shape[-1]))
    for i, delta in enumerate(product(range(cfg.factor), repeat=tokens.rank)):
        block = cfg.embed[..., i * d : (i + 1) * d, :]
        out += project_rows(roll_grid(tokens.data, tokens.grid_shape, delta, axis=-2), block)
    return out


def full_rate(x, cfg):
    """The column projection's full-rate embedding of a GridSignal or
    SignalBatch, (B, *grid, D), on any grid: the tap index is expanded over
    the channels here, as the patch layout expands it for grids the patches
    tile."""
    stack = x.data if isinstance(x, SignalBatch) else x.data[np.newaxis]
    b, *shape, c = stack.shape
    taps = index_at(tuple(shape), cfg.patch_len, 1, (0,) * len(shape)).T
    columns = (c * taps[:, np.newaxis] + np.arange(c)[:, np.newaxis]).reshape(-1, taps.shape[1])
    return full_rate_embed(stack, columns, cfg.embed).reshape(b, *shape, -1)


def full_rate_patches(stack, patch_len):
    """(B, positions, taps * C) rows: the patch anchored at every position,
    entry tap * C + channel, taps in row-major order."""
    b, *shape, c = stack.shape
    taps = product(range(patch_len), repeat=len(shape))
    positions = np.arange(np.prod(shape))
    index = np.stack([roll_grid(positions, shape, delta) for delta in taps], axis=1)
    return stack.reshape(b, -1, c).take(index, axis=1).reshape(b, len(index), -1)


def full_rate_embed_stacked(stack, cfg):
    """The row layout: project_rows on the (B, positions, K) patch rows."""
    rows = full_rate_patches(stack, cfg.patch_len)
    return project_rows(rows, cfg.embed).reshape(*stack.shape[:-1], cfg.embed.shape[1])


def full_rate_embed_k_loop(stack, cfg):
    """Every product added on its own, in order of k, onto a 0.0 start."""
    rows = full_rate_patches(stack, cfg.patch_len)
    out = np.zeros((*rows.shape[:-1], cfg.embed.shape[1]))
    for k in range(rows.shape[-1]):
        out += rows[..., k, np.newaxis] * cfg.embed[k]
    return out.reshape(*stack.shape[:-1], cfg.embed.shape[1])


def wsa_rotated(tokens, cfg, params, rpe, anchors):
    """Rotate each sample's grid to its anchor, then run the partition at 0."""
    rotated = rotate_rows(tokens.data, tokens.grid_shape, np.asarray(anchors))
    return wsa(TokenMatrix(rotated, tokens.grid_shape), cfg, params, rpe)


def best_phase_blocks(stack, b, rank, score):
    n, c = len(stack), stack.shape[-1]
    # Each grid axis split into (blocks, b); the in-block (phase) axes move first.
    split = [k for g in stack.shape[1:-1] for k in (g // b, b)]
    order = [0, *range(2, 2 * rank + 1, 2), *range(1, 2 * rank, 2), 2 * rank + 1]
    phases = b**rank
    comps = stack.reshape(n, *split, c).transpose(order).reshape(n * phases, -1, c)
    scores = score(comps).reshape(n, phases)
    # The first maximum wins; a sample ties when another phase scores it exactly.
    idx = np.array([int(np.flatnonzero(row == row.max())[0]) for row in scores])
    tied = np.array([np.count_nonzero(row == row.max()) > 1 for row in scores])
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
            no_phase = np.zeros(batch, dtype=bool)
            stage.append(TraceEntry(MERGE, zero, no_phase, grids[s], cfg.merge_factors[s]))
        feats = unpool(feats, SelectionTrace(batch, stage), cfg.merge_factors[s], grids[s])
    return scatter_phases(feats.data, cfg.input_shape, cfg.patch_len, token_offsets)


# ------------------------------------------------------------------- kernels --


@pytest.mark.parametrize("grid", GRIDS)
def test_window_energy_equals_tap_loop(grid):
    for tokens in token_cases(grid, 3, np.random.default_rng(1)):
        for w, p in product((1, 2, 4), (1.0, 2.0, 3.0)):
            cfg = WindowConfig(w, p)
            assert same(window_energy(tokens, cfg), window_energy_loop(tokens, cfg))


# Position counts that are no multiple of a SIMD width, so each einsum lane
# loop along the positions ends in a tail.
ODD_SHAPES = [(6,), (10,), (6, 10), (10, 6)]


@pytest.mark.parametrize("grid", GRIDS + ODD_SHAPES)
def test_pmerge_conv_fullrate_equals_shift_project_loop(grid):
    # Every factor that divides the grid, with tokens of -0.0 among mixed signed zeros.
    rng = np.random.default_rng(2)
    d, rank = 3, len(grid)
    mats = [*samples(rng, grid, d), np.full((*grid, d), -0.0)]
    stack = np.stack(mats).reshape(len(mats), -1, d)
    for factor in (f for f in range(1, min(grid) + 1) if not any(g % f for g in grid)):
        shared = MergeConfig(factor, rng.uniform(-0.5, 0.5, (factor**rank * d, 5)))
        # One merge projection per sample of the batch, as the apmerge suite runs it.
        stacked = MergeConfig(factor, rng.uniform(-0.5, 0.5, (len(mats), *shared.embed.shape)))
        for cfg in (shared, stacked):
            expect = pmerge_conv_fullrate_loop(TokenMatrix(stack, grid), cfg)
            assert same(pmerge_conv_fullrate(TokenMatrix(stack, grid), cfg).data, expect)
            # Reversed, each sample keeps its own projection.
            flipped = MergeConfig(factor, cfg.embed[::-1] if cfg.embed.ndim == 3 else cfg.embed)
            got = pmerge_conv_fullrate(TokenMatrix(stack[::-1], grid), flipped).data
            assert same(got, expect[::-1])
            # Each sample alone, with its own projection.
            for i, tokens in enumerate(stack):
                alone = MergeConfig(factor, cfg.embed[i] if cfg.embed.ndim == 3 else cfg.embed)
                got = pmerge_conv_fullrate(TokenMatrix(tokens, grid), alone).data
                assert same(got[0], expect[i])
            # Tokens of -0.0 merge to +0.0, as the loop's sum onto zeros gives.
            assert not np.signbit(expect[-1]).any()


@pytest.mark.parametrize("shape", [(64,), (16, 16), (8, 16), (16, 8)])
def test_full_rate_embed_equals_stacked_index(shape):
    rng = np.random.default_rng(3)
    for patch_len in (1, 2, 4):
        cfg = PatchEmbedConfig(patch_len, rng.uniform(-0.5, 0.5, (patch_len ** len(shape) * 2, 6)))
        signals = [GridSignal(a) for a in samples(rng, shape, 2)]
        stack = np.stack([x.data for x in signals])
        expect = full_rate_embed_stacked(stack, cfg)
        assert same(full_rate(SignalBatch(stack), cfg), expect)
        for i, x in enumerate(signals):
            assert same(full_rate(x, cfg)[0], expect[i])


@pytest.mark.parametrize("shape", ODD_SHAPES)
@pytest.mark.parametrize("channels", [1, 2])
def test_column_projection_has_the_row_and_k_loop_bits(shape, channels):
    rng = np.random.default_rng(6)
    for patch_len in (1, 2, 3):  # patch_len 1 with one channel is K = 1
        k = patch_len ** len(shape) * channels
        cfg = PatchEmbedConfig(patch_len, rng.uniform(-0.5, 0.5, (k, 5)))
        signals = [GridSignal(a) for a in samples(rng, shape, channels)]
        stack = np.stack([x.data for x in signals])
        expect = full_rate_embed_k_loop(stack, cfg)
        assert same(full_rate_embed_stacked(stack, cfg), expect)
        for batch, order in ((stack, expect), (stack[::-1], expect[::-1])):
            assert same(full_rate(SignalBatch(batch), cfg), order)
        for i, x in enumerate(signals):
            assert same(full_rate(x, cfg)[0], expect[i])


@pytest.mark.parametrize("shape", ODD_SHAPES + [(16,), (8, 16)])
@pytest.mark.parametrize("channels", [1, 2])
def test_polyphase_order_embedding_is_the_grid_order_one_gathered(shape, channels):
    rng = np.random.default_rng(11)
    for patch_len in (p for p in (1, 2, 3, 4) if not any(g % p for g in shape)):
        k = patch_len ** len(shape) * channels
        cfg = PatchEmbedConfig(patch_len, rng.uniform(-0.5, 0.5, (k, 5)))
        noise, *rest = samples(rng, shape, channels)
        # The noise at every shift below the patch length, so that each phase wins.
        axes = tuple(range(len(shape)))
        deltas = product(range(patch_len), repeat=len(axes))
        shifted = [np.roll(noise, d, axis=axes) for d in deltas]
        stack = np.stack([*shifted, *rest, np.full((*shape, channels), -0.0)])
        lay = layout(shape, patch_len, "patch_len", channels)
        grid_order = full_rate_embed(stack, lay.taps, cfg.embed).take(lay.components, axis=1)
        phase_order = full_rate_embed(stack, lay.phase_taps, cfg.embed)
        assert same(phase_order.reshape(grid_order.shape), grid_order)
        # a_token selects from those components as it did from the gathered
        # ones, for the batch and for each sample alone.
        scores = _token_energy(token_columns(grid_order), cfg.invariant_fn)
        won, entry = best_phase(grid_order, scores, lay, TOKEN)
        assert len(np.unique(entry.offsets, axis=0)) == len(lay.phases)
        sub, got = a_token(SignalBatch(stack), cfg)
        assert same(sub.data, won) and same(got.offsets, entry.offsets)
        for i, x in enumerate(stack):
            one, alone = a_token(GridSignal(x), cfg)
            assert same(one.data[0], won[i])
            assert same(alone.offsets[0], entry.offsets[i])


@pytest.mark.parametrize("shape", ODD_SHAPES)
def test_column_projection_commutes_with_rotation(shape):
    # Exactness rests on every position getting the same arithmetic,
    # whether it falls in a vector lane or in the loop's tail.
    rng = np.random.default_rng(7)
    for patch_len in (1, 2, 3):
        cfg = PatchEmbedConfig(patch_len, rng.uniform(-0.5, 0.5, (patch_len ** len(shape) * 2, 5)))
        for data in samples(rng, shape, 2):
            x = GridSignal(data)
            full = full_rate(x, cfg).reshape(-1, cfg.embed.shape[1])
            for delta in product(*(range(n) for n in shape)):
                got = full_rate(rolled(x, delta), cfg).reshape(-1, cfg.embed.shape[1])
                assert same(got, roll_grid(full, shape, delta, axis=0))


@pytest.mark.parametrize("grid", [(16,), (4, 8), (8, 4)])
@pytest.mark.parametrize("w", [2, 4])
def test_anchored_wsa_equals_rotate_then_wsa(grid, w):
    check_anchored_wsa(grid, w)


@pytest.mark.parametrize("grid, w", [((16,), 16), ((4, 4), 4), ((4, 4), 2)])
def test_anchored_wsa_on_windows_spanning_their_grid(grid, w):
    # Tilings wsa puts back without a gather, and a rank-2 one that needs it.
    check_anchored_wsa(grid, w)


def check_anchored_wsa(grid, w):
    rng = np.random.default_rng(8)
    rank, d = len(grid), 3
    params = AttentionParams(*(rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3)))
    cfg = WindowConfig(w)
    rpes = [RpeTable("none"), RpeTable("adaptive", rng.uniform(-0.5, 0.5, (w,) * rank))]
    # Every grid offset, not only the w**rank phases a_wsa picks from.
    anchors = list(product(*(range(g) for g in grid)))
    *singles, batch = token_cases(grid, d, rng)
    for rpe in rpes:
        for tokens in singles:
            for a in anchors:
                got = wsa(tokens, cfg, params, rpe, np.array([a]))
                assert same(got.data, wsa_rotated(tokens, cfg, params, rpe, [a]).data)
        # One sample at an anchor is its row of the batch at that anchor, and
        # equals the window loop on its rotated grid.
        for a in anchors:
            rows = wsa(batch, cfg, params, rpe, np.array([a] * len(batch.data))).data
            for i, tokens in enumerate(singles):
                assert same(wsa(tokens, cfg, params, rpe, np.array([a])).data[0], rows[i])
                turned = TokenMatrix(rotate_rows(tokens.data, grid, np.array([a])), grid)
                assert np.array_equal(rows[i], wsa_window_loop(turned, w, params, rpe))
        mixed = [anchors[(5 * i + 1) % len(anchors)] for i in range(len(batch.data))]
        assert len(set(mixed)) == len(mixed)
        got = wsa(batch, cfg, params, rpe, np.array(mixed))
        assert same(got.data, wsa_rotated(batch, cfg, params, rpe, mixed).data)
    at_zero = wsa(batch, cfg, params, None, np.zeros((4, rank), int))
    assert same(wsa(batch, cfg, params).data, at_zero.data)
    with pytest.raises(ShapeError):
        wsa(batch, cfg, params, None, np.zeros((1, rank), int))


SCORES = {
    "aps": lambda comps: lp_norm(comps.reshape(len(comps), -1), 2.0),
    # Each token score takes its stack as columns, as `a_token` scores them.
    **{f"token-{n}": lambda c, n=n: _token_energy(token_columns(c), n) for n in INVARIANT_FNS},
    **{f"window-{n}": lambda c, n=n: window_score(c[..., 0], n) for n in WINDOW_FNS},
}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("score", sorted(SCORES))
def test_best_phase_equals_blocks_layout(grid, score):
    rng = np.random.default_rng(4)
    channels = 1 if score.startswith("window") else 3
    stack = np.stack(samples(rng, grid, channels))
    for b in (1, 2, 4):
        lay = layout(grid, b, "size")
        for n in (1, len(stack)):
            comps = stack[:n].reshape(n, -1, channels).take(lay.components, axis=1)
            scores = SCORES[score](comps.reshape(-1, *comps.shape[2:])).reshape(n, -1)
            won, entry = best_phase(comps, scores, lay, MERGE)
            expect = best_phase_blocks(stack[:n], b, len(grid), SCORES[score])
            got = (entry.offsets, won, entry.tied)
            assert all(same(g, e) for g, e in zip(got, expect))


def test_layout_indices_are_shared_and_gathered_without_a_copy():
    # `take` copies a read-only index on every call, so the layouts' indices
    # stay writeable; nothing writes to them.  The phase table stays
    # read-only: one sample's trace offsets are views of it.
    lay = layout((6, 9), 3, "patch_len", 2)
    assert lay is layout((6, 9), 3, "patch_len", 2)
    for name in ("taps", "phase_taps", "tap_rows", "tiles", "components", "untile"):
        index = getattr(lay, name)
        assert index is getattr(lay, name) and index.flags.writeable
    with pytest.raises(ValueError):
        lay.phases[0, 0] = 1
    signal = np.arange(54 * 2.0)
    tracemalloc.start()
    cols = signal.take(lay.taps, axis=0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 * cols.nbytes


@pytest.mark.parametrize(
    "grid, size, in_order",
    [((16,), 4, True), ((16,), 16, True), ((4, 4), 4, True), ((4, 4), 2, False),
     ((4, 8), 4, False), ((8, 8), 1, True), ((6, 9), 3, False)],
)
def test_a_tiling_in_grid_order_has_the_identity_as_its_inverse(grid, size, in_order):
    # Every rank-1 tiling lists the grid in order, as does a block that spans
    # it; wsa skips its inverse there.  `untile` stays an index either way.
    lay = layout(grid, size, "window")
    assert lay.in_order is in_order
    assert same(lay.untile, np.argsort(lay.tiles.ravel()))
    assert same(lay.tiles.ravel(), np.arange(np.prod(grid))) is in_order


# One offset each: filter taps; tiles, whose transpose is the polyphase
# components; full-rate patches; patches at an offset; a decoder scatter; a rotation.
ONE_OFFSET = [((4, 8), 2, 1, (0, 0)), ((8, 4), 2, 2, (0, 0)), ((16,), 4, 4, (0,)),
              ((8, 16), 4, 1, (0, 0)), ((8, 16), 4, 4, (3, 1)), ((4, 8), 1, 2, (1, 3)),
              ((16,), 1, 1, (5,))]


def test_one_offset_indices_are_shared_and_writeable():
    # One sample's index is cached writeable, as `take` copies a read-only
    # index on every call, and shared by every op that gathers through it.
    for grid, width, stride, off in ONE_OFFSET:
        index = offset_index(grid, width, stride, np.array([off]))
        assert index.flags.writeable
        assert offset_index(grid, width, stride, np.array([off])) is index


def test_take_through_a_one_sample_index_does_not_copy():
    # A 512 KiB rotation: `take` reads the cached index without copying it.
    index, values = offset_index((256, 256), 1, 1, np.array([(5, 2)])), np.arange(256 * 256.0)
    tracemalloc.start()
    rows = values.take(index, axis=0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 * rows.nbytes


@pytest.mark.parametrize("rank", [1, 2])
def test_layouts_share_no_memory_with_the_offset_index(rank):
    # A layout builds its offset-0 indices anew, apart from one sample's.
    (grid, _), _ = LAYOUT_GRIDS[rank]
    lay, zero = layout(grid, 4, "window"), np.zeros((1, rank), np.int64)
    arrays = (lay.taps, lay.phase_taps, lay.tap_rows, lay.tiles, lay.components, lay.untile)
    for width, stride in ((4, 1), (4, 4), (1, 1)):
        index = offset_index(grid, width, stride, zero)
        assert not any(np.shares_memory(index, a) for a in arrays)


def config_caches(model) -> list:
    """Every layout and array a model's configs keep: the patch, window and
    merge layouts and the merges' tap blocks."""
    w = model.weights
    kept = [*w.patch.layouts.values()]
    for sw in w.stages:
        kept += [*sw.window.layouts.values(), *sw.merge.layouts.values()]
        kept += sw.merge.tap_blocks.values()
    return kept


def test_cached_indices_are_never_written(monkeypatch):
    # Cached indices are writeable and shared by every op, so nothing may
    # write to them: each one-sample index and layout array that forwards at
    # both ranks read equals, after a second round, a fresh build taken after
    # the first.  The configs keep those layouts, not builds of their own,
    # and their own arrays stay as built too.
    cached, built, sample_index = {}, [], numerics._sample_index

    def recorded(*args):
        cached[args] = sample_index(*args)
        return cached[args]

    class Recorded(Layout):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(numerics, "_sample_index", recorded)
    monkeypatch.setattr(numerics, "Layout", Recorded)
    layout.cache_clear()
    runs = []
    for shape in ((64,), (32, 32)):
        model = build_model(ModelConfig(input_shape=shape))
        x = GridSignal(np.random.default_rng(3).uniform(-1, 1, (*shape, model.config.channels)))
        runs.append((model, x, SignalBatch([x.data, rolled(x, (1,) * x.rank).data])))

    def forwards():
        for model, x, batch in runs:
            model.classify(x)
            model.encode_decode(x)
            forward(model, batch)

    forwards()
    kept = [(index, sample_index.__wrapped__(*args)) for args, index in cached.items()]
    held = [item for model, _, _ in runs for item in config_caches(model)]
    layouts = [item for item in held if isinstance(item, Layout)]
    assert layouts and all(any(lay is b for b in built) for lay in layouts)
    for lay in built:
        new = Layout(lay.grid, lay.size, lay.channels)
        kept += [(a, getattr(new, k)) for k, a in vars(lay).items() if isinstance(a, np.ndarray)]
    kept += [(a, a.copy()) for a in held if isinstance(a, np.ndarray)]
    forwards()
    assert cached and built and all(same(a, copy) for a, copy in kept)
    layout.cache_clear()


def test_layout_indices_equal_the_cached_grid_indices():
    for grid, size in (((16,), 4), ((4, 8), 2), ((6, 6), 3)):
        zero = (0,) * len(grid)
        lay = layout(grid, size, "window")
        assert same(lay.taps, index_at(grid, size, 1, zero).T)
        assert same(lay.tiles, index_at(grid, size, size, zero))
        assert same(lay.components, lay.tiles.T) and lay.components.flags.c_contiguous
        assert same(lay.phases, np.array(list(product(range(size), repeat=len(grid)))))
        assert lay.coarse == tuple(g // size for g in grid)
        # Polyphase order: the columns permuted by the components.
        assert same(lay.phase_taps, lay.taps[:, lay.components.ravel()])
        # Merge rows: tap t of position n's group is row n * taps + t.
        t = size ** len(grid)
        assert same(lay.tap_rows, lay.taps * t + np.arange(t)[:, np.newaxis])
    # With C channels, tap row t * C + c is channel c of tap t's rotation.
    taps, lay = index_at((6, 4), 2, 1, (0, 0)).T, layout((6, 4), 2, "patch_len", 3)
    assert same(lay.taps[3 * 3 + 2], 3 * taps[3] + 2)
    assert same(lay.taps, (3 * taps[:, np.newaxis] + np.arange(3)[:, np.newaxis]).reshape(-1, 24))
    assert same(lay.phase_taps, lay.taps[:, lay.components.ravel()])


def test_tap_index_rows_are_rotations_in_row_major_order():
    index = layout((4, 8), 2, "window").taps
    assert index.shape == (4, 32) and index.flags.c_contiguous
    positions = np.arange(32)
    for row, delta in zip(index, product(range(2), repeat=2)):
        assert np.array_equal(row, roll_grid(positions, (4, 8), delta))


# ------------------------------------------------------------------- layouts --

# Per grid rank: (token grid, signal grid) that size 4 divides, and a pair it does not.
LAYOUT_GRIDS = {1: (((16,), (32,)), ((18,), (30,))), 2: (((8, 8), (16, 16)), ((8, 6), (16, 14)))}


def layout_op_calls(rank, tokens_grid, signal_grid):
    """Every op that takes its grid check from a layout of size 4, as
    (name, call, the layout keys it reads), on the given grids."""
    rng = np.random.default_rng(10 + rank)
    d, size = 3, 4
    tokens = TokenMatrix(rng.uniform(-1, 1, (2, int(np.prod(tokens_grid)), d)), tokens_grid)
    x = SignalBatch(rng.uniform(-1, 1, (2, *signal_grid, 2)))
    patch = PatchEmbedConfig(size, rng.uniform(-0.5, 0.5, (size**rank * 2, 5)))
    window = WindowConfig(size, energy_fn="max")
    params = AttentionParams(*(rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3)))
    rpe = RpeTable("adaptive", rng.uniform(-0.5, 0.5, (size,) * rank))
    merge = MergeConfig(size, rng.uniform(-0.5, 0.5, (size**rank * d, 2 * d)), 3.0)
    patch_key = (signal_grid, size, "patch_len", 2)
    window_key, merge_key = (tokens_grid, size, "window"), (tokens_grid, size, "factor")
    return [
        ("a_token", lambda: a_token(x, patch), [patch_key]),
        ("token", lambda: token(x, patch), [patch_key]),
        ("lemma1", lambda: lemma1_check(x.data, patch, [(1,) * rank, (3,) * rank]), [patch_key]),
        ("window_energy", lambda: window_energy(tokens, window), [window_key]),
        ("wsa", lambda: wsa(tokens, window, params, rpe), [window_key]),
        ("a_wsa", lambda: a_wsa(tokens, window, params, rpe), [window_key]),
        ("pmerge", lambda: pmerge(tokens, merge), [merge_key]),
        ("pmerge_conv_fullrate", lambda: pmerge_conv_fullrate(tokens, merge), [merge_key]),
        ("aps", lambda: aps(tokens, size, 3.0), [merge_key]),
        ("a_pmerge", lambda: a_pmerge(tokens, merge), [merge_key]),
    ]


def result_arrays(result) -> list:
    """Every array an op's result holds: token data, trace offsets and tie flags, raw arrays."""
    if isinstance(result, tuple):
        return [a for r in result for a in result_arrays(r)]
    if isinstance(result, TokenMatrix):
        return [result.data]
    if isinstance(result, TraceEntry):
        return [result.offsets, result.tied]
    return [result]


@pytest.mark.parametrize("rank", [1, 2])
def test_layout_checks_raise_on_every_call_and_leave_valid_calls_right(rank):
    (good_tokens, good_signal), (bad_tokens, bad_signal) = LAYOUT_GRIDS[rank]
    layout.cache_clear()
    expected = {name: call() for name, call, _ in layout_op_calls(rank, good_tokens, good_signal)}
    bad_calls = layout_op_calls(rank, bad_tokens, bad_signal)
    for (name, call, _), (_, bad_call, _) in zip(
        layout_op_calls(rank, good_tokens, good_signal), bad_calls
    ):
        for _ in range(2):  # errors are not cached: the second call raises as the first
            with pytest.raises(ShapeError, match="is not divisible by"):
                bad_call()
        got, want = result_arrays(call()), result_arrays(expected[name])
        assert len(got) == len(want) and all(same(g, w) for g, w in zip(got, want)), name


@pytest.mark.parametrize("rank", [1, 2])
def test_no_op_output_shares_memory_with_a_layout(rank):
    for name, call, keys in layout_op_calls(rank, *LAYOUT_GRIDS[rank][0]):
        outputs = result_arrays(call())
        named = [(n, a) for k in keys for n, a in vars(layout(*k)).items()]
        cached = [a for _, a in named if isinstance(a, np.ndarray)]
        assert cached, name
        assert not any(np.shares_memory(out, arr) for out in outputs for arr in cached), name
        # Only the phase table is read-only: `take` copies no index.
        flags = [(n, a.flags.writeable) for n, a in named if isinstance(a, np.ndarray)]
        assert all(writeable != (n == "phases") for n, writeable in flags), name


# Per rank: two token grids that window 4 and merge factor 2 divide (at rank
# 2 of one token count in two layouts), and one that window 4 does not divide.
CHECK_GRIDS = {1: ((8,), (16,), (6,)), 2: ((4, 8), (8, 4), (4, 6))}


def op_configs(rank: int) -> dict:
    """Configs the checked ops take, equal for equal `rank` on every call."""
    rng = np.random.default_rng(30 + rank)
    d = 3
    return {
        "d": d,
        "patch": PatchEmbedConfig(2, rng.uniform(-0.5, 0.5, (2**rank * 2, 5))),
        "window": WindowConfig(4),
        "params": AttentionParams(*(rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3))),
        "rpe": RpeTable("adaptive", rng.uniform(-0.5, 0.5, (4,) * rank)),
        "merge": MergeConfig(2, rng.uniform(-0.5, 0.5, (2**rank * d, 2 * d))),
        "matrix": rng.uniform(-0.5, 0.5, (d, 4)),
    }


def checked_op_calls(rank: int, cfg: dict) -> list:
    """(name, bad call, good call) per public op that checks a config, an rpe
    table or a projection against its input once: the bad call fails that
    check, and the good one, through the same configs, passes it."""
    rng = np.random.default_rng(40 + rank)
    good_grid, _, bad_grid = CHECK_GRIDS[rank]
    d, window, params, rpe, merge = (cfg[k] for k in ("d", "window", "params", "rpe", "merge"))

    def tokens(grid, dim=d):
        return TokenMatrix(rng.uniform(-1, 1, (1, int(np.prod(grid)), dim)), grid)

    good, bad_window, wide = tokens(good_grid), tokens(bad_grid), tokens(good_grid, d + 1)
    signal = SignalBatch(rng.uniform(-1, 1, (2, *(2 * g for g in good_grid), 2)))
    # Three channels do not fit an embed of two-channel patches.
    bad_signal = SignalBatch(rng.uniform(-1, 1, (2, *(2 * g for g in good_grid), 3)))
    other_rpe = RpeTable("adaptive", rng.uniform(-0.5, 0.5, (2,) * rank))
    rows, patch, matrix = rng.uniform(-1, 1, (1, 5, d)), cfg["patch"], cfg["matrix"]
    return [
        ("token", lambda: token(bad_signal, patch), lambda: token(signal, patch)),
        ("a_token", lambda: a_token(bad_signal, patch), lambda: a_token(signal, patch)),
        (
            "lemma1",
            lambda: lemma1_check(bad_signal.data, patch, [(1,) * rank] * 2),
            lambda: lemma1_check(signal.data, patch, [(1,) * rank] * 2),
        ),
        (
            "window_energy",
            lambda: window_energy(bad_window, window),
            lambda: window_energy(good, window),
        ),
        (
            "wsa",
            lambda: wsa(bad_window, window, params, rpe),
            lambda: wsa(good, window, params, rpe),
        ),
        ("a_wsa", lambda: a_wsa(bad_window, window, params), lambda: a_wsa(good, window, params)),
        (
            "wsa, rpe for another window",
            lambda: wsa(good, window, params, other_rpe),
            lambda: wsa(good, window, params, rpe),
        ),
        ("sa", lambda: sa(good, params, rpe), lambda: sa(tokens((4,) * rank), params, rpe)),
        (
            "position_bias",
            lambda: position_bias(rpe, good_grid),
            lambda: position_bias(rpe, (4,) * rank),
        ),
        ("pmerge", lambda: pmerge(wide, merge), lambda: pmerge(good, merge)),
        (
            "pmerge_conv_fullrate",
            lambda: pmerge_conv_fullrate(wide, merge),
            lambda: pmerge_conv_fullrate(good, merge),
        ),
        ("a_pmerge", lambda: a_pmerge(wide, merge), lambda: a_pmerge(good, merge)),
        (
            "project_rows",
            lambda: project_rows(rows, matrix.T),
            lambda: project_rows(rows, matrix),
        ),
    ]


def raised(call) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("rank", [1, 2])
def test_a_failed_check_keeps_nothing(rank):
    # A check that kept its result before it passed would let the repeated
    # bad call through: each raises as it did the first time, and a good call
    # through the same configs afterwards gives a fresh config's bits.
    calls, fresh = (checked_op_calls(rank, op_configs(rank)) for _ in range(2))
    for (name, bad, good), (_, _, fresh_good) in zip(calls, fresh):
        first = raised(bad)
        assert first[0] is ShapeError and raised(bad) == first, name
        got, want = result_arrays(good()), result_arrays(fresh_good())
        assert len(got) == len(want) and all(same(g, w) for g, w in zip(got, want)), name
        assert raised(bad) == first, name


@pytest.mark.parametrize("rank", [1, 2])
def test_one_config_keeps_a_layout_and_a_check_per_grid_and_dim(rank):
    # One config on two grids of one token count (rank 2: two layouts), and
    # one merge on two token dims (a line of D = 2 * d, a plane of D = d):
    # each call gives a fresh config's bits, and a dim or grid that does not
    # fit still raises after others that do.
    *grids, bad_grid = CHECK_GRIDS[rank]
    cfg, rng = op_configs(rank), np.random.default_rng(50)
    window, params, rpe = cfg["window"], cfg["params"], cfg["rpe"]
    for grid in grids * 2:
        t = TokenMatrix(rng.uniform(-1, 1, (2, int(np.prod(grid)), cfg["d"])), grid)
        fresh = op_configs(rank)
        for op, args, fresh_args in (
            (a_wsa, (window, params, rpe), (fresh["window"], fresh["params"], fresh["rpe"])),
            (a_pmerge, (cfg["merge"],), (fresh["merge"],)),
            (pmerge, (cfg["merge"],), (fresh["merge"],)),
        ):
            got, want = result_arrays(op(t, *args)), result_arrays(op(t, *fresh_args))
            assert all(same(g, w) for g, w in zip(got, want)), (op.__name__, grid)
        signal = SignalBatch(rng.uniform(-1, 1, (2, *(2 * g for g in grid), 2)))
        got, want = a_token(signal, cfg["patch"]), a_token(signal, fresh["patch"])
        assert all(same(g, w) for g, w in zip(result_arrays(got), result_arrays(want)))
    assert sorted(window.layouts) == sorted(grids)
    with pytest.raises(ShapeError, match="is not divisible by window 4"):
        a_wsa(TokenMatrix(np.ones((int(np.prod(bad_grid)), 3)), bad_grid), window, params)
    # One merge on a line of dim 6 and a plane of dim 3, and one patch embed
    # on a line of 2 channels and a plane of 1; then a dim and a channel count
    # that fit neither.
    merge = MergeConfig(2, rng.uniform(-0.5, 0.5, (12, 5)))
    line = TokenMatrix(rng.uniform(-1, 1, (16, 6)), (16,))
    plane = TokenMatrix(rng.uniform(-1, 1, (16, 3)), (4, 4))
    for t in (line, plane, line, plane):
        fresh = pmerge_conv_fullrate(t, MergeConfig(2, merge.embed))
        assert same(pmerge_conv_fullrate(t, merge).data, fresh.data)
    with pytest.raises(ShapeError, match="merge embed expects rows of width 12"):
        pmerge_conv_fullrate(TokenMatrix(rng.uniform(-1, 1, (16, 3)), (16,)), merge)
    patch = PatchEmbedConfig(2, rng.uniform(-0.5, 0.5, (4, 5)))
    for x in (SignalBatch(np.ones((1, 16, 2))), SignalBatch(np.ones((1, 8, 8, 1)))):
        assert same(token(x, patch).data, token(x, PatchEmbedConfig(2, patch.embed)).data)
    with pytest.raises(ShapeError, match="embed expects rows of width 4, patches have 2"):
        token(SignalBatch(np.ones((1, 16, 1))), patch)


@pytest.mark.parametrize("shape", [(64,), (32, 32)])
def test_a_forward_keeps_no_grid_order_tap_index(shape):
    # a_token and the merges gather through their polyphase-order and merge
    # indices, built without caching the grid-order one beside them.
    cfg = ModelConfig(input_shape=shape)
    model = build_model(cfg)
    layout.cache_clear()
    _encode(model, GridSignal(np.ones((*shape, cfg.channels))))
    patch = layout(shape, cfg.patch_len, "patch_len", cfg.channels)
    merges = [layout(g, p, "factor") for g, p in zip(cfg.stage_grids(), cfg.merge_factors)]
    assert "phase_taps" in vars(patch) and all("tap_rows" in vars(m) for m in merges)
    assert not any("taps" in vars(lay) for lay in (patch, *merges))


# ------------------------------------------------------------------- decoder --

DECODER_CONFIGS = {
    "1d": ModelConfig(),
    "2d": ModelConfig(input_shape=(16, 32), windows=2, merge_factors=2),
    "1d-depth0": ModelConfig(depth=0, windows=(), merge_factors=()),
    "2d-depth0": ModelConfig(input_shape=(8, 8), depth=0, windows=(), merge_factors=()),
    # Unequal factors: a stage's offset scaled by another stage's stride lands wrong.
    "1d-factors-3-2": ModelConfig(input_shape=(96,), windows=2, merge_factors=(3, 2)),
    "2d-factors-2-3": ModelConfig(input_shape=(24, 24), patch_len=2, windows=2, merge_factors=(2, 3)),
}


@pytest.mark.parametrize("name", sorted(DECODER_CONFIGS))
@pytest.mark.parametrize(
    "off", [c for k in range(4) for c in combinations(("a_token", "a_wsa", "a_pmerge"), k)]
)
def test_trace_entries_name_their_ops_grid_and_stride(name, off):
    # The decoder weighs each entry by the input grid over the entry's grid,
    # so each must name the grid its op selected on and that op's stride:
    # the input grid and patch length for the token offset, and stage s's
    # grid with its window or merge factor for that stage's entries.
    cfg = DECODER_CONFIGS[name].disable(*off)
    expect = [(TOKEN, cfg.input_shape, cfg.patch_len)] if cfg.a_token else []
    for grid, w, p in zip(cfg.stage_grids(), cfg.windows, cfg.merge_factors):
        expect += [(WSA, grid, w)] if cfg.a_wsa else []
        expect += [(MERGE, grid, p)] if cfg.a_pmerge else []
    model, rng = build_model(cfg), np.random.default_rng(6)
    x = rng.standard_normal((3, *cfg.input_shape, cfg.channels))

    def named(trace):
        return [(e.kind, e.grid, e.stride) for e in trace]

    for inputs in (GridSignal(x[0]), SignalBatch(x)):
        _, trace = _encode(model, inputs)
        assert named(trace) == expect
        assert all(named(trace.rows(i, i + 1)) == expect for i in range(trace.size))


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
    batch = SignalBatch([rolled(x, s).data for s in shifts] + [np.zeros(x.data.shape)])
    for inputs in (x, batch):
        tokens, trace = _encode(model, inputs)
        assert same(_decode(cfg, tokens, trace), decode_chain(cfg, tokens, trace))
    if cfg.a_token:  # the batch really mixes offsets
        assert len({tuple(o) for o in trace.of_kind("token")[0].offsets.tolist()}) > 1
    # Shifts, negative and beyond the grid too, rotate each map back as
    # `rotate_rows` by -shift does.
    grid, g = cfg.input_shape, cfg.input_shape[0]
    shifts = np.array([(s, 3 - s)[: cfg.rank] for s in (-1, -g - 5, 2 * g + 3, 0, 5, 2**62 + 1)])
    maps = _decode(cfg, tokens, trace).reshape(len(shifts), -1, tokens.data.shape[-1])
    want = rotate_rows(maps, grid, -shifts).reshape(len(shifts), *grid, -1)
    assert same(_decode(cfg, tokens, trace, shifts), want)
