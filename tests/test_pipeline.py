"""Composed models: weight determinism, trace accounting, end-to-end laws."""

import copy
import dataclasses
import math
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqvit
from eqvit import GridSignal, attention, merging, numerics, pipeline
from eqvit.errors import ConfigError, ParameterError, ShapeError
from eqvit.numerics import MAX_NORM_ORDER, SignalBatch
from eqvit.pipeline import SWITCHES, ModelConfig, build_model, classify, encode_decode, forward
from eqvit.tokenizer import PatchEmbedConfig, TokenMatrix, a_token
from eqvit.trace import MERGE, TOKEN, WSA
from reference import rolled


def rand_input(cfg: ModelConfig, seed: int = 0) -> GridSignal:
    rng = np.random.default_rng(seed)
    return GridSignal(rng.uniform(-1, 1, (*cfg.input_shape, cfg.channels)))


# ------------------------------------------------------------- ModelConfig --


def test_default_config_geometry():
    cfg = ModelConfig()
    assert cfg.rank == 1
    assert cfg.stage_grids() == [(16,), (8,), (4,)]
    assert cfg.stage_dims() == [8, 16, 32]


def test_config_broadcasts_stage_ints():
    cfg = ModelConfig(windows=4, merge_factors=2)
    assert cfg.windows == (4, 4) and cfg.merge_factors == (2, 2)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(input_shape=(63,))  # not divisible by patch_len
    with pytest.raises(ConfigError):
        ModelConfig(windows=(4, 4, 4))  # wrong stage count
    with pytest.raises(ConfigError):
        ModelConfig(windows=(4, 3))  # second-stage grid of 8 not divisible
    with pytest.raises(ConfigError):
        ModelConfig(rpe_kind="circulantish")
    with pytest.raises(ConfigError):
        ModelConfig(token_energy="max_l7")
    with pytest.raises(ConfigError):
        ModelConfig(window_energy_fn="avg")
    with pytest.raises(ConfigError):
        ModelConfig(depth=-1)
    with pytest.raises(ConfigError):
        ModelConfig(channels=0)
    with pytest.raises(ConfigError):
        ModelConfig(energy_p=0.5)
    with pytest.raises(ConfigError):
        ModelConfig(input_shape=(4, 4, 4))
    # Python callers get the rules a JSON document gets, not a later
    # TypeError or a silently truncated value.
    for bad in ({"channels": 2.5}, {"input_shape": (64.7,)}, {"depth": 2.0}, {"token_energy": {}}):
        with pytest.raises(ConfigError):
            ModelConfig(**bad)


def test_config_dict_round_trip():
    cfg = ModelConfig(input_shape=(32, 32), channels=3, seed=9)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"input_shape": [64], "dropout": 0.1})


@pytest.mark.parametrize(
    "doc",
    [[], {"patch_len": "4"}, {"channels": 2.5}, {"seed": -1}, {"a_token": 1},
     {"windows": [4.0, 4]}],
)
def test_from_dict_rejects_bad_documents(doc):
    with pytest.raises(ConfigError):
        ModelConfig.from_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [{"energy_p": math.nan}, {"energy_p": math.inf}, {"energy_p": -math.inf},
     {"energy_p": 10**400}, {"depth": 10**12, "windows": 1, "merge_factors": 1}],
    ids=["nan", "inf", "-inf", "int-past-float", "huge-depth"],
)
def test_from_dict_rejects_non_finite_and_unbuildable_numbers(doc):
    with pytest.raises(ConfigError):
        ModelConfig.from_dict(doc)


# JSON documents near the config's own shape: a valid config with a few
# fields replaced, and documents of its keys and a few strangers.  Values run
# from small sizes to ints past the float range, NaN and infinities, the
# names the string fields accept, and nested lists and objects.
_FIELDS = [f.name for f in dataclasses.fields(ModelConfig)]
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 70)
    | st.integers()
    | st.sampled_from([2**63, 10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["adaptive", "original", "none", "sum_l2", "max", "l2", ""])
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_EDITED_DEFAULTS = st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=3).map(
    lambda edits: {**ModelConfig().to_dict(), **edits}
)
_CONFIG_DOCS = st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=4), _JSON, max_size=8)


@settings(max_examples=200, deadline=None)
@given(_EDITED_DEFAULTS | _CONFIG_DOCS | _JSON)
@example({"energy_p": math.nan})
@example({"depth": 10**12, "windows": 1})
def test_from_dict_returns_or_raises_config_error(doc):
    try:
        cfg = ModelConfig.from_dict(doc)
    except ConfigError:
        # A Python caller passing the same known keys is held to the same rules.
        if isinstance(doc, dict) and set(doc) <= set(_FIELDS):
            with pytest.raises(ConfigError):
                ModelConfig(**doc)
        return
    assert ModelConfig(**doc) == cfg
    assert math.isfinite(cfg.energy_p) and 1 <= cfg.energy_p <= MAX_NORM_ORDER
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# Each would draw or take an array past MAX_ELEMENTS; none is allocated.
OVERSIZED = {
    "embed_dim": {"embed_dim": 1_000_000},
    "input_shape": {"input_shape": [10**12]},
    "channels": {"channels": 10**12},
    "num_classes": {"num_classes": 10**13},
    "channels-past-bound": {"channels": 2**10 + 1},
    "activations": {"input_shape": [2048, 2048], "channels": 1},
    "global-attention": {"input_shape": [4096], "channels": 1, "patch_len": 1, "depth": 1,
                         "windows": 1, "merge_factors": 1, "embed_dim": 1, "rpe_kind": "none"},
    "original-bias": {"input_shape": [2**11, 2**10], "channels": 1, "patch_len": 1, "depth": 1,
                      "windows": 1, "merge_factors": 1, "rpe_kind": "original"},
}


@pytest.mark.parametrize("doc", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_from_dict_rejects_arrays_past_the_element_bound(doc):
    with pytest.raises(ConfigError, match=f"more than {pipeline.MAX_ELEMENTS}"):
        ModelConfig.from_dict(doc)


def test_element_bound_is_inclusive():
    # A MAX_BATCH batch of full-rate patches, 16 x 64 positions x 4 taps x 1024
    # channels, holds exactly MAX_ELEMENTS.
    cfg = ModelConfig(channels=2**10)
    sizes = cfg.array_sizes() + cfg.activation_sizes()
    assert max(sizes, key=lambda item: item[1]) == ("full-rate patches", pipeline.MAX_ELEMENTS)


@pytest.mark.parametrize(
    "cfg",
    [
        ModelConfig(),
        ModelConfig(input_shape=(16, 32), windows=2, merge_factors=2, rpe_kind="original"),
        ModelConfig(rpe_kind="none", num_classes=7),
        ModelConfig(depth=0, windows=(), merge_factors=()),
    ],
    ids=["default", "2d-original", "1d-none", "depth0"],
)
def test_array_sizes_match_the_built_weights(cfg):
    w = build_model(cfg).weights

    def attention_arrays(at, params, rpe):
        arrays = [(f"{at} {e}", getattr(params, e)) for e in ("e_q", "e_k", "e_v")]
        return arrays + [(f"{at} position bias table", rpe.table)] * (rpe.table is not None)

    arrays = [("patch embed", w.patch.embed), ("head", w.head)]
    for s, sw in enumerate(w.stages):
        arrays += attention_arrays(f"stage {s}", sw.attn, sw.rpe)
        arrays.append((f"stage {s} merge projection", sw.merge.embed))
    if w.global_attn is not None:
        arrays += attention_arrays("global", w.global_attn, w.global_rpe)
    assert sorted(cfg.weight_shapes()) == sorted((name, a.shape) for name, a in arrays)
    built = [(name, a.size) for name, a in arrays]
    assert sorted(cfg.array_sizes()) == sorted([("input", rand_input(cfg).data.size), *built])


def test_from_dict_broadcasts_bare_stage_ints():
    assert ModelConfig.from_dict({"windows": 4, "merge_factors": 2}) == ModelConfig()


def test_disable_and_effective_rpe():
    cfg = ModelConfig()
    off = cfg.disable("a_wsa", "adaptive_rpe")
    assert not off.a_wsa and not off.adaptive_rpe and off.a_token
    assert cfg.effective_rpe_kind == "adaptive"
    assert off.effective_rpe_kind == "original"
    assert ModelConfig(rpe_kind="none").disable("adaptive_rpe").effective_rpe_kind == "none"
    with pytest.raises(ConfigError):
        cfg.disable("a_bias")


# ------------------------------------------------------------- build_model --


def test_weights_reproducible_from_seed():
    a = build_model(ModelConfig(seed=5))
    b = build_model(ModelConfig(seed=5))
    assert np.array_equal(a.weights.patch.embed, b.weights.patch.embed)
    assert np.array_equal(a.weights.head, b.weights.head)
    for sa_, sb in zip(a.weights.stages, b.weights.stages):
        assert np.array_equal(sa_.attn.e_q, sb.attn.e_q)
        assert np.array_equal(sa_.rpe.table, sb.rpe.table)
        assert np.array_equal(sa_.merge.embed, sb.merge.embed)
    assert np.array_equal(a.weights.global_attn.e_v, b.weights.global_attn.e_v)


def test_weights_differ_across_seeds():
    a = build_model(ModelConfig(seed=5))
    b = build_model(ModelConfig(seed=6))
    assert not np.array_equal(a.weights.patch.embed, b.weights.patch.embed)


def test_stage_shapes_follow_config():
    model = build_model(ModelConfig())
    assert model.weights.patch.embed.shape == (8, 8)
    assert model.weights.stages[0].merge.embed.shape == (16, 16)
    assert model.weights.stages[1].merge.embed.shape == (32, 32)
    assert model.weights.global_attn.e_q.shape == (32, 32)
    assert model.weights.global_rpe.table.shape == (4,)
    assert model.weights.head.shape == (32, 4)


def test_rpe_kind_controls_tables():
    orig = build_model(ModelConfig(rpe_kind="original"))
    assert orig.weights.stages[0].rpe.table.shape == (7,)  # 2W - 1
    none = build_model(ModelConfig(rpe_kind="none"))
    assert none.weights.stages[0].rpe.table is None
    assert none.weights.global_rpe.table is None


# ------------------------------------------------------------------ traces --


@pytest.mark.parametrize("bits", list(product([True, False], repeat=3)))
def test_trace_entry_count_formula(bits):
    tok, win, mrg = bits
    cfg = ModelConfig(
        a_token=tok, a_wsa=win, a_pmerge=mrg, num_classes=3, seed=1
    )
    model = build_model(cfg)
    _, _, trace = model.classify(rand_input(cfg, 2))
    expected = int(tok) + cfg.depth * (int(win) + int(mrg))
    assert len(trace.entries) == expected
    assert len(trace.of_kind(TOKEN)) == int(tok)
    assert len(trace.of_kind(WSA)) == cfg.depth * int(win)
    assert len(trace.of_kind(MERGE)) == cfg.depth * int(mrg)


def test_fully_adaptive_trace_order():
    cfg = ModelConfig()
    _, _, trace = build_model(cfg).classify(rand_input(cfg))
    assert [e.kind for e in trace] == [TOKEN, WSA, MERGE, WSA, MERGE]


# ----------------------------------------------------------------- classify --


def test_classifier_is_shift_invariant_all_offsets():
    cfg = ModelConfig(seed=3)
    model = build_model(cfg)
    x = rand_input(cfg, 4)
    logits0, label0, _ = model.classify(x)
    assert logits0.shape == (cfg.num_classes,)
    for off in range(64):
        logits, label, _ = model.classify(rolled(x, off))
        assert label == label0
        assert np.max(np.abs(logits - logits0)) <= 1e-9


def test_classifier_is_shift_invariant_rank2():
    cfg = ModelConfig(input_shape=(32, 32), channels=3, seed=7)
    model = build_model(cfg)
    x = rand_input(cfg, 8)
    logits0, label0, _ = model.classify(x)
    for off in [(1, 0), (0, 1), (5, 11), (31, 17)]:
        logits, label, _ = model.classify(rolled(x, off))
        assert label == label0
        assert np.max(np.abs(logits - logits0)) <= 1e-9


def test_zero_input_is_shift_fixed_and_tied():
    cfg = ModelConfig(seed=1)
    model = build_model(cfg)
    zero = GridSignal(np.zeros((64, 2)))
    logits0, _, trace = model.classify(zero)
    assert trace.any_tied
    logits1, _, _ = model.classify(rolled(zero, 13))
    assert np.array_equal(logits0, logits1)


def test_full_baseline_breaks_invariance():
    cfg = ModelConfig(seed=2).disable(*SWITCHES)
    model = build_model(cfg)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        x = GridSignal(rng.uniform(-1, 1, (64, 2)))
        base, _, _ = model.classify(x)
        out, _, _ = model.classify(rolled(x, 1))
        worst = max(worst, float(np.max(np.abs(out - base))))
    assert worst > 1e-6


def test_classify_rejects_wrong_shape():
    model = build_model(ModelConfig())
    with pytest.raises(ShapeError):
        model.classify(GridSignal(np.zeros((32, 2))))
    with pytest.raises(ShapeError):
        model.classify(GridSignal(np.zeros((64, 3))))


# ----------------------------------------------------------------- forward --


@pytest.mark.parametrize("shape", [(64,), (32, 32)])
@pytest.mark.parametrize("off", [None, *SWITCHES])
def test_forward_matches_both_heads_bit_for_bit(shape, off):
    cfg = ModelConfig(input_shape=shape, seed=3)
    model = build_model(cfg.disable(off) if off else cfg)
    x = rand_input(model.config, 11)
    logits, label, out, trace = forward(model, x)
    c_logits, c_label, c_trace = classify(model, x)
    d_out, d_trace = encode_decode(model, x)
    assert np.array_equal(logits, c_logits) and label == c_label
    assert np.array_equal(out, d_out)
    assert trace.entries == c_trace.entries == d_trace.entries


@pytest.mark.parametrize("shape", [(64,), (32, 32)])
def test_heads_stack_a_batch_as_forward_does(shape):
    # Given a SignalBatch, each head returns one output per sample, the very
    # stacks `forward` gives, and the same trace.
    model = build_model(ModelConfig(input_shape=shape, seed=5))
    batch = SignalBatch([rand_input(model.config, seed).data for seed in range(3)])
    logits, labels, maps, trace = forward(model, batch)
    c_logits, c_labels, c_trace = classify(model, batch)
    d_maps, d_trace = encode_decode(model, batch)
    assert c_logits.shape == (3, model.config.num_classes) and d_maps.shape == maps.shape
    assert c_logits.tobytes() == logits.tobytes() and c_labels.tolist() == labels.tolist()
    assert d_maps.tobytes() == maps.tobytes()
    assert c_trace.size == d_trace.size == trace.size == 3
    assert c_trace.entries == d_trace.entries == trace.entries


@pytest.mark.parametrize("shape", [(64,), (32, 32)])
def test_overflowing_input_raises_instead_of_returning_nan(shape):
    model = build_model(ModelConfig(input_shape=shape))
    x = GridSignal(1e300 * rand_input(model.config, 12).data)
    for head in (forward, classify, encode_decode):
        with np.errstate(all="ignore"), pytest.raises(ParameterError):
            head(model, x)


@pytest.mark.parametrize("shape", [(64,), (32, 32)])
def test_forward_overhead_stays_out(monkeypatch, shape):
    # Intermediate token matrices skip validation, grid rotations are index
    # gathers, and each window stage is one stacked attention call.  Model
    # constants (window configs, bias matrices) are built once per model.
    model = build_model(ModelConfig(input_shape=shape))
    x = rand_input(model.config, 13)
    forward(model, x)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    validate = counted("validate", TokenMatrix.__post_init__)
    monkeypatch.setattr(TokenMatrix, "__post_init__", validate)
    monkeypatch.setattr(np, "roll", counted("roll", np.roll))
    monkeypatch.setattr(pipeline, "sa", counted("sa", pipeline.sa))
    monkeypatch.setattr(attention, "_attend", counted("kernel", attention._attend))
    monkeypatch.setattr(attention, "_bias_index", counted("bias", attention._bias_index))
    window = counted("window", attention.WindowConfig.__post_init__)
    monkeypatch.setattr(attention.WindowConfig, "__post_init__", window)
    classify(model, x)
    encode_decode(model, x)
    passes = 2
    assert calls["validate"] == calls["bias"] == calls["window"] == 0
    assert calls["roll"] == 0
    assert calls["sa"] == passes
    assert calls["kernel"] == passes * (model.config.depth + 1)
    # One batched forward over a stack of samples is one pass: each window
    # stage and the global attention run once for the whole batch.
    calls.clear()
    forward(model, SignalBatch([rand_input(model.config, seed).data for seed in range(8)]))
    assert calls["validate"] == calls["roll"] == 0
    assert calls["sa"] == 1
    assert calls["kernel"] == model.config.depth + 1


# Python frames under src/eqvit per warm one-sample call, (classify,
# encode_decode).  A ceiling: lower is fine, and Python versions that inline
# comprehensions count fewer.  NumPy's own frames are not counted, so the
# figures do not depend on the NumPy version.
FRAME_BUDGET = {(64,): (48, 50), (32, 32): (48, 50)}


def eqvit_frames(fn, *args) -> int:
    package = str(Path(eqvit.__file__).parent)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(package):
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("shape", sorted(FRAME_BUDGET))
def test_forward_stays_within_its_frame_budget(shape):
    model = build_model(ModelConfig(input_shape=shape))
    x = rand_input(model.config, 14)
    forward(model, x)  # builds the cached indices and bias matrices
    counts = tuple(eqvit_frames(head, model, x) for head in (classify, encode_decode))
    assert all(c <= b for c, b in zip(counts, FRAME_BUDGET[shape])), counts


# The model-layer functions the benchmark traces, by module.
TRACED_LAYERS = {
    "tokenizer": ("a_token",),
    "attention": ("a_wsa", "window_energy", "wsa", "sa", "position_bias"),
    "merging": ("a_pmerge", "pmerge_conv_fullrate", "aps"),
    "numerics": ("project_rows",),
}


@pytest.mark.parametrize("shape", [(64,), (32, 32)])
@pytest.mark.parametrize("head", [forward, classify, encode_decode], ids=lambda f: f.__name__)
def test_forward_calls_every_traced_layer(monkeypatch, shape, head):
    # Wrapped the way the benchmark's tracer wraps them: every reference in
    # an eqvit module's globals.  A head that bypassed one of them would
    # leave its per-layer figure at 0; the benchmark times classify and
    # encode_decode.
    modules = [m for name, m in sys.modules.items() if name.startswith("eqvit.")]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, names in TRACED_LAYERS.items():
        for name in names:
            original = getattr(sys.modules[f"eqvit.{module_name}"], name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        monkeypatch.setattr(m, key, counted(name, original))
    model = build_model(ModelConfig(input_shape=shape))
    head(model, rand_input(model.config, 15))
    missing = [n for names in TRACED_LAYERS.values() for n in names if not calls[n]]
    assert not missing


def tied_choices(rank: int) -> dict:
    """Each adaptive op's one trace entry on a constant input, where every
    candidate scores the same, at patch, window and merge size 2."""
    rng = np.random.default_rng(16)
    grid, dim = (8,) if rank == 1 else (4, 4), 3
    tokens = TokenMatrix(np.ones((int(np.prod(grid)), dim)), grid)
    embed = rng.uniform(-1, 1, (2**rank, dim))
    params = attention.AttentionParams(*rng.uniform(-1, 1, (3, dim, dim)))
    return {
        TOKEN: a_token(GridSignal(np.ones((*grid, 1))), PatchEmbedConfig(2, embed))[1],
        WSA: attention.a_wsa(tokens, attention.WindowConfig(2), params)[1],
        MERGE: merging.aps(tokens, 2)[1],
    }


@pytest.mark.parametrize("rank", [1, 2])
def test_every_selection_goes_through_best_phase(monkeypatch, rank):
    # Unpatched, each op keeps the lowest phase of a tie and flags it.
    for entry in tied_choices(rank).values():
        assert entry.offsets.tolist() == [[0] * rank] and entry.tied.tolist() == [True]
    # A highest-index tie-break bound wherever an eqvit module holds
    # best_phase, as test_forward_calls_every_traced_layer binds the traced
    # layers, moves all three ops to the last phase: one patch point.
    original = numerics.best_phase

    def last_on_ties(comps, scores, lay, kind):
        # a_wsa wants only the offsets and passes no components.  The copy
        # of the layout reads its phases backwards and caches its own entries.
        flipped = None if comps is None else comps[:, ::-1]
        backwards = copy.copy(lay)
        backwards.phases, backwards.entries = lay.phases[::-1], {}
        return original(flipped, scores[:, ::-1].copy(), backwards, kind)

    for name, module in list(sys.modules.items()):
        if name.startswith("eqvit.") and getattr(module, "best_phase", None) is original:
            monkeypatch.setattr(module, "best_phase", last_on_ties)
    for entry in tied_choices(rank).values():
        assert entry.offsets.tolist() == [[1] * rank] and entry.tied.tolist() == [True]


# ----------------------------------------------------------- encode_decode --


def test_decoder_output_shape():
    cfg = ModelConfig()
    out, trace = build_model(cfg).encode_decode(rand_input(cfg))
    assert out.shape == (64, 32)  # final dim embed_dim * 2**depth
    assert len(trace.entries) == 5


def test_decoder_is_shift_equivariant():
    cfg = ModelConfig(seed=5)
    model = build_model(cfg)
    x = rand_input(cfg, 6)
    base, _ = model.encode_decode(x)
    for off in (1, 7, 33, 63):
        out, _ = model.encode_decode(rolled(x, off))
        assert np.max(np.abs(np.roll(out, off, axis=0) - base)) <= 1e-9


def test_decoder_is_shift_equivariant_rank2():
    cfg = ModelConfig(input_shape=(32, 32), channels=3, seed=5)
    model = build_model(cfg)
    x = rand_input(cfg, 6)
    base, _ = model.encode_decode(x)
    for off in [(3, 0), (0, 9), (21, 30)]:
        out, _ = model.encode_decode(rolled(x, off))
        assert np.max(np.abs(np.roll(out, off, axis=(0, 1)) - base)) <= 1e-9


def test_depth_zero_decoder_scatters_tokens():
    cfg = ModelConfig(input_shape=(16,), depth=0, windows=(), merge_factors=(), seed=4)
    model = build_model(cfg)
    x = rand_input(cfg, 9)
    out, trace = model.encode_decode(x)
    assert len(trace.entries) == 1
    tokens, entry = a_token(x, model.weights.patch)
    off = int(entry.offsets[0, 0])
    expected = np.zeros((16, cfg.embed_dim))
    expected[off :: cfg.patch_len] = tokens.data
    assert np.array_equal(out, expected)


def test_depth_zero_classifier_works():
    cfg = ModelConfig(input_shape=(16,), depth=0, windows=(), merge_factors=(), seed=4)
    model = build_model(cfg)
    assert model.weights.global_attn is None
    x = rand_input(cfg, 9)
    logits0, label0, _ = model.classify(x)
    for off in range(16):
        logits, label, _ = model.classify(rolled(x, off))
        assert label == label0
        assert np.max(np.abs(logits - logits0)) <= 1e-9


def test_baseline_decoder_breaks_equivariance():
    cfg = ModelConfig(seed=2).disable(*SWITCHES)
    model = build_model(cfg)
    x = rand_input(cfg, 3)
    base, trace = model.encode_decode(x)
    assert len(trace.entries) == 0
    out, _ = model.encode_decode(rolled(x, 1))
    assert np.max(np.abs(np.roll(out, 1, axis=0) - base)) > 1e-6
