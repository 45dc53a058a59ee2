"""Attention: dense oracle, position-bias tables, window alignment.

sa_oracle recomputes attention with explicit per-row softmax loops; the bias
table tests enumerate every (i, j) pair against the lookup rule.  The steps
the ops compute inline, the softmax and the window scores, are held to
their references in tests/reference.py bit for bit.
"""

import json
import os
import subprocess
import sys
from itertools import product
from math import prod

import numpy as np
import pytest

from eqvit.attention import (
    AttentionParams,
    RpeTable,
    WINDOW_FNS,
    WindowConfig,
    a_wsa,
    position_bias,
    sa,
    window_energy,
    wsa,
)
from eqvit.errors import ParameterError, ShapeError
from eqvit.numerics import best_phase, layout
from eqvit.pipeline import MAX_BATCH, ModelConfig
from eqvit.tokenizer import TokenMatrix
from eqvit.trace import WSA, SelectionTrace
from reference import rotated, softmax_rows, window_score, wsa_window_loop


def sa_oracle(t: np.ndarray, params: AttentionParams, bias=None) -> np.ndarray:
    q, k, v = t @ params.e_q, t @ params.e_k, t @ params.e_v
    logits = (q @ k.T) / np.sqrt(params.e_q.shape[1])
    if bias is not None:
        logits = logits + bias
    out = np.zeros((t.shape[0], params.e_v.shape[1]))
    for i in range(t.shape[0]):
        row = np.exp(logits[i] - logits[i].max())
        out[i] = (row / row.sum()) @ v
    return out


def rand_params(rng, d: int, d_out: int | None = None) -> AttentionParams:
    d_out = d if d_out is None else d_out
    return AttentionParams(
        rng.uniform(-0.5, 0.5, (d, d_out)),
        rng.uniform(-0.5, 0.5, (d, d_out)),
        rng.uniform(-0.5, 0.5, (d, d_out)),
    )


def norm_tokens(norms) -> TokenMatrix:
    # Single-dim tokens whose l2 norms are exactly the given values.
    col = np.asarray(norms, dtype=float)[:, np.newaxis]
    return TokenMatrix(col, (len(norms),))


# ---------------------------------------------------------------------- sa --


def test_sa_single_token_is_value_projection():
    rng = np.random.default_rng(1)
    t = TokenMatrix(rng.uniform(-1, 1, (1, 4)), (1,))
    params = rand_params(rng, 4)
    out = sa(t, params)
    assert np.array_equal(out.data, t.data @ params.e_v)


def test_sa_identical_tokens_give_identical_rows():
    rng = np.random.default_rng(2)
    row = rng.uniform(-1, 1, 4)
    t = TokenMatrix(np.stack([row, row]), (2,))
    out = sa(t, rand_params(rng, 4)).data[0]
    assert np.array_equal(out[0], out[1])


def test_sa_matches_dense_oracle():
    rng = np.random.default_rng(3)
    t = TokenMatrix(rng.uniform(-1, 1, (3, 5)), (3,))
    params = rand_params(rng, 5, 4)
    assert np.allclose(sa(t, params).data[0], sa_oracle(t.data[0], params), atol=1e-12, rtol=0)


def test_sa_with_bias_matches_oracle():
    rng = np.random.default_rng(4)
    t = TokenMatrix(rng.uniform(-1, 1, (4, 3)), (4,))
    params = rand_params(rng, 3)
    rpe = RpeTable("adaptive", rng.uniform(-1, 1, 4))
    bias = position_bias(rpe, (4,))
    assert np.allclose(
        sa(t, params, rpe).data[0], sa_oracle(t.data[0], params, bias), atol=1e-12, rtol=0
    )


def test_sa_is_permutation_equivariant_without_bias():
    rng = np.random.default_rng(5)
    t = rng.uniform(-1, 1, (6, 4))
    params = rand_params(rng, 4)
    base = sa(TokenMatrix(t, (6,)), params).data[0]
    for _ in range(5):
        perm = rng.permutation(6)
        out = sa(TokenMatrix(t[perm], (6,)), params).data[0]
        assert np.max(np.abs(out - base[perm])) <= 1e-12


def test_sa_checks_dims():
    rng = np.random.default_rng(6)
    t = TokenMatrix(rng.uniform(-1, 1, (3, 4)), (3,))
    with pytest.raises(ShapeError):
        sa(t, rand_params(rng, 5))


# ------------------------------------------------------------- bias tables --


def test_rpe_matrix_m2_layout():
    b = np.array([10.0, 20.0, 30.0])  # distances -1, 0, +1
    assert np.array_equal(position_bias(RpeTable("original", b), (2,)), [[20, 10], [30, 20]])


def test_rpe_matrix_m1():
    assert np.array_equal(position_bias(RpeTable("original", np.array([5.0])), (1,)), [[5.0]])


def test_rpe_matrix_extreme_distance():
    rng = np.random.default_rng(7)
    b = rng.uniform(-1, 1, 7)
    mat = position_bias(RpeTable("original", b), (4,))
    assert mat[0, 3] == b[0]  # distance -3 sits at the table's low end
    assert mat[3, 0] == b[6]


def test_adaptive_rpe_matrix_wraps_distance():
    rng = np.random.default_rng(8)
    b = rng.uniform(-1, 1, 4)
    mat = position_bias(RpeTable("adaptive", b), (4,))
    assert mat[0, 3] == b[1]  # (0 - 3) mod 4
    assert np.array_equal(np.diag(mat), np.full(4, b[0]))


def test_adaptive_rpe_matrix_is_circulant():
    rng = np.random.default_rng(9)
    b = rng.uniform(-1, 1, 3)
    mat = position_bias(RpeTable("adaptive", b), (3,))
    for i in range(3):
        assert np.array_equal(mat[i], np.roll(mat[0], i))


def test_position_bias_rank2_lookup_rule():
    rng = np.random.default_rng(10)
    for gh, gw in ((3, 4), (1, 4)):
        adaptive = RpeTable("adaptive", rng.uniform(-1, 1, (gh, gw)))
        original = RpeTable("original", rng.uniform(-1, 1, (2 * gh - 1, 2 * gw - 1)))
        ba = position_bias(adaptive, (gh, gw))
        bo = position_bias(original, (gh, gw))
        assert ba.shape == bo.shape == (gh * gw, gh * gw)
        for i, j in product(range(gh * gw), repeat=2):
            ih, iw = divmod(i, gw)
            jh, jw = divmod(j, gw)
            assert ba[i, j] == adaptive.table[(ih - jh) % gh, (iw - jw) % gw]
            assert bo[i, j] == original.table[ih - jh + gh - 1, iw - jw + gw - 1]


def test_position_bias_is_built_once_per_table_and_read_only():
    rng = np.random.default_rng(24)
    for rpe, grid in [(RpeTable("adaptive", rng.uniform(-1, 1, (2, 4))), (2, 4)),
                      (RpeTable("original", rng.uniform(-1, 1, 7)), (4,))]:
        bias = position_bias(rpe, grid)
        assert bias is position_bias(rpe, grid) and rpe.grid == grid
        with pytest.raises(ValueError):
            bias[0, 0] = 1.0
    assert RpeTable("original", np.zeros(4)).grid is None


def test_position_bias_none_is_none():
    assert position_bias(RpeTable("none"), (4,)) is None


def test_bias_table_validation():
    with pytest.raises(ParameterError):
        RpeTable("fancy", np.zeros(3))
    with pytest.raises(ParameterError):
        RpeTable("none", np.zeros(3))
    with pytest.raises(ShapeError):
        position_bias(RpeTable("original", np.zeros(6)), (4,))
    with pytest.raises(ShapeError):
        position_bias(RpeTable("adaptive", np.zeros(3)), (4,))
    with pytest.raises(ShapeError):
        position_bias(RpeTable("original", np.zeros(4)), (4,))
    with pytest.raises(ShapeError):
        position_bias(RpeTable("original", np.zeros((3, 5))), (2, 4))
    with pytest.raises(ShapeError):
        position_bias(RpeTable("adaptive", np.zeros(4)), (2, 2))
    with pytest.raises(ShapeError):
        position_bias(RpeTable("adaptive", np.zeros((3, 3))), (2, 2))


def test_adaptive_bias_commutes_with_rotation():
    rng = np.random.default_rng(11)
    for m in (4, 8):
        t = rng.uniform(-1, 1, (m, 4))
        params = rand_params(rng, 4)
        rpe = RpeTable("adaptive", rng.uniform(-1, 1, m))
        base = sa(TokenMatrix(t, (m,)), params, rpe)
        for r in range(m):
            out = sa(rotated(TokenMatrix(t, (m,)), r), params, rpe)
            assert np.max(np.abs(out.data - rotated(base, r).data)) <= 1e-12


def test_original_bias_breaks_under_rotation():
    rng = np.random.default_rng(12)
    m = 6
    t = TokenMatrix(rng.uniform(-1, 1, (m, 4)), (m,))
    params = rand_params(rng, 4)
    rpe = RpeTable("original", rng.uniform(-1, 1, 2 * m - 1))
    base = sa(t, params, rpe)
    worst = max(
        np.max(np.abs(sa(rotated(t, r), params, rpe).data - rotated(base, r).data))
        for r in range(1, m)
    )
    assert worst > 1e-6


# ----------------------------------------------------------- window energy --


def test_window_energy_pair_average():
    v = window_energy(norm_tokens([1, 5, 5, 1]), WindowConfig(2))
    assert np.array_equal(v[0], [3, 5, 3, 1])


def test_window_energy_degenerate_cases():
    t = norm_tokens([2, 2, 2, 2])
    assert np.array_equal(window_energy(t, WindowConfig(2))[0], [2, 2, 2, 2])
    t2 = norm_tokens([1, 4, 2, 7])
    assert np.array_equal(window_energy(t2, WindowConfig(1))[0], [1, 4, 2, 7])


def test_window_energy_rotates_bit_exactly():
    # The alignment argument needs the energy grid of rotated tokens to be
    # exactly the rotated energy grid.
    rng = np.random.default_rng(13)
    t = TokenMatrix(rng.uniform(-1, 1, (8, 3)), (8,))
    cfg = WindowConfig(2)
    base = window_energy(t, cfg)
    for r in range(8):
        assert np.array_equal(window_energy(rotated(t, r), cfg), np.roll(base, -r))


@pytest.mark.parametrize("name", sorted(WINDOW_FNS))
def test_window_scorers_ignore_permutation(name):
    rng = np.random.default_rng(14)
    v = rng.uniform(0, 3, 9)
    assert window_score(v, name) == window_score(v[rng.permutation(9)], name)


@pytest.mark.parametrize("name", sorted(WINDOW_FNS))
@pytest.mark.parametrize("grid, w", [((16,), 4), ((8,), 2), ((4, 4), 2), ((8, 4), 4)])
def test_a_wsa_scores_each_anchor_by_its_window_functional(name, grid, w):
    # Each sample's anchor and tie flag are best_phase's on the reference
    # scores of its window energies, in a batch and alone; the constant
    # tokens tie every anchor.
    rng = np.random.default_rng(16)
    m, d = int(np.prod(grid)), 3
    mats = [rng.uniform(-1, 1, (m, d)) * 10.0 ** rng.uniform(-2, 2) for _ in range(6)]
    mats.append(np.full((m, d), 0.5))
    tokens = TokenMatrix(np.stack(mats), grid)
    cfg, params = WindowConfig(w, 2.0, name), rand_params(rng, d)
    lay = layout(grid, w, "window")
    energies = window_energy(tokens, cfg).reshape(len(mats), -1)
    scores = window_score(energies.take(lay.components, axis=1), name)
    _, expect = best_phase(None, scores, lay, WSA)
    assert expect.tied[-1] and (expect.grid, expect.stride) == (grid, w)
    _, entry = a_wsa(tokens, cfg, params)
    assert entry == expect
    trace = SelectionTrace(len(mats), [expect])
    for i, mat in enumerate(mats):
        _, alone = a_wsa(TokenMatrix(mat, grid), cfg, params)
        assert trace.rows(i, i + 1).entries == [alone]


def attend_reference(x: np.ndarray, params: AttentionParams, bias=None) -> np.ndarray:
    """Attention over each (M, D) set of a stack, weighted by `softmax_rows`."""
    logits = (x @ params.e_q) @ (x @ params.e_k).swapaxes(-1, -2)
    logits *= params.scale
    if bias is not None:
        logits += bias
    return softmax_rows(logits) @ (x @ params.e_v)


@pytest.mark.parametrize("kind", ["none", "adaptive", "original"])
def test_sa_and_wsa_weight_by_the_reference_softmax(kind):
    # Token scales up to 1e3 give logits far past exp's range: only the
    # max subtraction keeps the weights finite.
    rng = np.random.default_rng(17)
    grid, w, d = (4, 4), 2, 4
    data = rng.uniform(-1, 1, (5, 16, d)) * 10.0 ** np.arange(-1, 4)[:, None, None]
    tokens, params = TokenMatrix(data, grid), rand_params(rng, d)

    def table(g):
        shape = g if kind == "adaptive" else tuple(2 * n - 1 for n in g)
        return RpeTable(kind, rng.uniform(-1, 1, shape)) if kind != "none" else RpeTable(kind)

    rpe, window_rpe = table(grid), table((w, w))
    out = sa(tokens, params, rpe).data
    assert np.isfinite(out).all()
    assert out.tobytes() == attend_reference(data, params, rpe.bias).tobytes()
    # wsa at anchor 0: the same, in each window of the tiling, put back in grid order.
    lay = layout(grid, w, "window")
    windows = attend_reference(data.take(lay.tiles, axis=1), params, window_rpe.bias)
    expect = windows.reshape(5, 16, -1).take(lay.untile, axis=1)
    assert wsa(tokens, WindowConfig(w), params, window_rpe).data.tobytes() == expect.tobytes()


# --------------------------------------------------------------- wsa/a_wsa --


def test_wsa_full_window_equals_sa():
    rng = np.random.default_rng(15)
    t = TokenMatrix(rng.uniform(-1, 1, (4, 3)), (4,))
    params = rand_params(rng, 3)
    assert np.array_equal(wsa(t, WindowConfig(4), params).data, sa(t, params).data)


def test_wsa_is_independent_blocks():
    rng = np.random.default_rng(16)
    t = rng.uniform(-1, 1, (4, 3))
    params = rand_params(rng, 3)
    out = wsa(TokenMatrix(t, (4,)), WindowConfig(2), params).data[0]
    blocks = [sa(TokenMatrix(t[i : i + 2], (2,)), params).data[0] for i in (0, 2)]
    assert np.array_equal(out, np.vstack(blocks))


def test_wsa_identical_windows_identical_outputs():
    rng = np.random.default_rng(17)
    block = rng.uniform(-1, 1, (2, 3))
    t = TokenMatrix(np.vstack([block, block]), (4,))
    out = wsa(t, WindowConfig(2), rand_params(rng, 3)).data[0]
    assert np.array_equal(out[:2], out[2:])


@pytest.mark.parametrize("kind", ["none", "original", "adaptive"])
@pytest.mark.parametrize(
    "grid, w, d",
    [((16,), 4, 8), ((12,), 3, 5), ((8, 8), 4, 16), ((6, 6), 2, 5), ((4, 8), 2, 5), ((8, 4), 4, 3)],
)
def test_wsa_matches_per_window_sa_bit_for_bit(grid, w, d, kind):
    rng = np.random.default_rng(19)
    t = TokenMatrix(rng.uniform(-1, 1, (int(np.prod(grid)), d)), grid)
    params = rand_params(rng, d)
    rank = len(grid)
    tables = {
        "none": None,
        "original": rng.uniform(-0.5, 0.5, (2 * w - 1,) * rank),
        "adaptive": rng.uniform(-0.5, 0.5, (w,) * rank),
    }
    rpe = RpeTable(kind, tables[kind])
    out = wsa(t, WindowConfig(w), params, rpe).data[0]
    assert np.array_equal(out, wsa_window_loop(t, w, params, rpe))


def test_attention_outputs_are_read_only():
    rng = np.random.default_rng(20)
    t = TokenMatrix(rng.uniform(-1, 1, (8, 3)), (8,))
    params = rand_params(rng, 3)
    for out in (sa(t, params), wsa(t, WindowConfig(4), params)):
        with pytest.raises(ValueError):
            out.data[0, 0] = 1.0


def test_wsa_checks_divisibility():
    rng = np.random.default_rng(18)
    t = TokenMatrix(rng.uniform(-1, 1, (6, 3)), (6,))
    with pytest.raises(ShapeError):
        wsa(t, WindowConfig(4), rand_params(rng, 3))


def test_a_wsa_selects_highest_energy_anchor():
    rng = np.random.default_rng(19)
    t = norm_tokens([1, 5, 5, 1])
    params = rand_params(rng, 1)
    out, entry = a_wsa(t, WindowConfig(2), params)
    # Anchor 0 windows score max 3; anchor 1 windows (tokens {1,2}, {3,0})
    # score max 5.
    assert entry.kind == WSA
    assert entry.offsets.tolist() == [[1]]
    assert np.array_equal(out.data, wsa(rotated(t, 1), WindowConfig(2), params).data)


def test_a_wsa_constant_tokens_tie_to_anchor_zero():
    rng = np.random.default_rng(23)
    params = rand_params(rng, 3)
    cfg = WindowConfig(2)
    for grid in ((8,), (4, 4)):
        t = TokenMatrix(np.ones((int(np.prod(grid)), 3)), grid)
        out, entry = a_wsa(t, cfg, params)
        assert entry.offsets.tolist() == [[0] * len(grid)]
        assert entry.tied.tolist() == [True]
        assert np.array_equal(out.data, wsa(t, cfg, params).data)


def test_a_wsa_aligns_under_rotation():
    rng = np.random.default_rng(20)
    m, w = 8, 2
    params = rand_params(rng, 3)
    rpe = RpeTable("adaptive", rng.uniform(-0.5, 0.5, w))
    cfg = WindowConfig(w)
    for _ in range(25):
        t = TokenMatrix(rng.uniform(-1, 1, (m, 3)), (m,))
        shift = int(rng.integers(0, m))
        base, tb = a_wsa(t, cfg, params, rpe)
        out, ts = a_wsa(rotated(t, shift), cfg, params, rpe)
        if tb.tied.any() or ts.tied.any():
            continue
        best = min(
            np.max(np.abs(out.data - rotated(base, r).data)) for r in range(0, m, w)
        )
        assert best <= 1e-12


def test_a_wsa_aligns_rank2():
    rng = np.random.default_rng(21)
    params = rand_params(rng, 3)
    cfg = WindowConfig(2)
    t = TokenMatrix(rng.uniform(-1, 1, (16, 3)), (4, 4))
    base, _ = a_wsa(t, cfg, params)
    out, _ = a_wsa(rotated(t, (1, 3)), cfg, params)
    best = min(
        np.max(np.abs(out.data - rotated(base, (rh, rw)).data))
        for rh in range(0, 4, 2)
        for rw in range(0, 4, 2)
    )
    assert best <= 1e-12


def test_a_wsa_single_window_degenerates_to_sa():
    rng = np.random.default_rng(22)
    t = TokenMatrix(rng.uniform(-1, 1, (4, 3)), (4,))
    params = rand_params(rng, 3)
    out, entry = a_wsa(t, WindowConfig(4), params)
    off = int(entry.offsets[0, 0])
    assert np.array_equal(out.data, sa(rotated(t, off), params).data)


# ---------------------------------------------------------------- configs --


def test_attention_params_validation():
    with pytest.raises(ShapeError):
        AttentionParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        AttentionParams(np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ParameterError):
        AttentionParams(np.full((2, 2), np.nan), np.zeros((2, 2)), np.zeros((2, 2)))
    for empty in ([[]] * 8, np.zeros((0, 2))):
        with pytest.raises(ShapeError):
            AttentionParams(empty, empty, empty)
    p = AttentionParams(np.zeros((3, 4)), np.zeros((3, 4)), np.zeros((3, 4)))
    assert p.e_q.shape == (3, 4) and p.scale == 0.5


def test_window_config_validation():
    with pytest.raises(ParameterError):
        WindowConfig(0)
    for p in (0.5, np.nan, np.inf):
        with pytest.raises(ParameterError):
            WindowConfig(2, energy_p=p)
    for name in ("median", "sum"):  # a sum scores every anchor's partition alike
        with pytest.raises(ParameterError):
            WindowConfig(2, energy_fn=name)


# ------------------------------------------------------- the BLAS assumption --

# Run in a fresh interpreter, so that OPENBLAS_NUM_THREADS takes effect: for
# each (sets, M, D), a random stack x, a (D, D) matrix W and a (D, 3D) one,
# the width of `AttentionParams.qkv`, and every way a row of x @ W could lose
# its bits, one line per failure; then the per-set products `_attend` stacks
# after the fused one, queries times transposed keys and softmax weights times
# values, taken as it takes them, slices of that product, each set's alone
# against inside the stack.
BLAS_ROWS = """
import json, sys
import numpy as np
for sets, m, d in json.loads(sys.argv[1]):
    rng = np.random.default_rng([sets, m, d])
    x, perm = rng.uniform(-1, 1, (sets, m, d)), rng.permutation(m)
    for w in (rng.uniform(-0.5, 0.5, (d, d)), rng.uniform(-0.5, 0.5, (d, 3 * d))):
        out, at = x @ w, f"{(sets, m, d)} @ {w.shape}"
        if (x[:, perm] @ w).tobytes() != out[:, perm].tobytes():
            print(f"{at}: rows permuted in every set")
        for s in range(sets):
            if (x[s] @ w).tobytes() != out[s].tobytes():
                print(f"{at}: set {s} alone")
            if (x[s][perm] @ w).tobytes() != out[s][perm].tobytes():
                print(f"{at}: set {s} permuted")
    queries, keys, values = out[..., :d], out[..., d : 2 * d], out[..., 2 * d :]
    weights = rng.uniform(0, 1, (sets, m, m))
    logits, mixed = queries @ keys.swapaxes(-1, -2), weights @ values
    for s in range(sets):
        if (queries[s] @ keys[s].T).tobytes() != logits[s].tobytes():
            print(f"{(sets, m, d)}: set {s} q @ k^T alone")
        if (weights[s] @ values[s]).tobytes() != mixed[s].tobytes():
            print(f"{(sets, m, d)}: set {s} weights @ v alone")
"""


def stacked_projection_shapes() -> list[tuple[int, int, int]]:
    """(sets, tokens per set, D) of every stacked `x @ W` `_attend` runs on
    the default models at (64,) and 32x32: each stage's window sets and the
    global set, for one sample and for `MAX_BATCH`."""
    shapes = []
    for input_shape in ((64,), (32, 32)):
        cfg = ModelConfig(input_shape=input_shape)
        grids, dims = cfg.stage_grids(), cfg.stage_dims()
        m = [w**cfg.rank for w in cfg.windows]
        sets = [(prod(g) // k, k, d) for g, d, k in zip(grids, dims, m)]
        sets.append((1, prod(grids[-1]), dims[-1]))
        shapes += [(b * n, m, d) for n, m, d in sets for b in (1, MAX_BATCH)]
    return shapes


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blas_gives_a_row_of_x_at_w_its_bits_wherever_it_sits(threads):
    # What `_attend`'s exactness rests on: permuting the rows of a set
    # permutes the rows of its product, of `x @ W` at width D and at the
    # fused width 3D alike, and each set's product, of `x @ W`, `q @ k^T`
    # and `weights @ v` alike, has the same bits alone as inside a stack, at
    # one BLAS thread and at two.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    shapes = json.dumps(stacked_projection_shapes())
    run = subprocess.run(
        [sys.executable, "-c", BLAS_ROWS, shapes], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == ""
