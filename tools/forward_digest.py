"""One sha256 over every forward output on a grid of models and inputs.

    python3 tools/forward_digest.py

Run it on two checkouts to check that a change keeps every output bit for
bit: equal digests mean equal logits, labels, decoded maps, trace offsets
and tie flags on every case below.  Run as a script, it imports the package
from the `src/` directory next to this file's `tools/` directory;
`digest(package)` runs the grid through any imported copy of the package,
as `tools/forward_ab.py` does for two checkouts in one process.

The grid covers both grid ranks, odd token grids (5 x 7 and 15), windows 1
to 4, unequal merge factors per stage ((3, 2) at rank 1, (2, 3) at rank 2),
the three position-bias kinds, every window and token energy, norm orders
1, 2, 2.5 and 3 (at rank 2, the "l2" window score and the l1 and l2.5
norms too), and every subset of the adaptive switches.  Each model runs
one sample alone and one batch of 7 that holds shifted copies, a zero input,
an impulse, an all negative-zero input and an input with signed zeros mixed
into random values.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIGS = (
    dict(),
    dict(rpe_kind="original", energy_p=3.0, window_energy_fn="l2", token_energy="max_l2"),
    dict(rpe_kind="none", window_energy_fn="l2", token_energy="sum_l1", seed=5),
    dict(input_shape=(60,), patch_len=4, depth=1, windows=3, merge_factors=3),
    dict(input_shape=(36,), patch_len=2, depth=2, windows=3, merge_factors=3, rpe_kind="original"),
    dict(input_shape=(32, 32)),
    dict(input_shape=(5, 7), channels=1, patch_len=1, depth=1, windows=1, merge_factors=1),
    dict(input_shape=(16, 16), patch_len=2, windows=2, merge_factors=2, rpe_kind="original"),
    dict(input_shape=(12, 12), patch_len=1, depth=1, windows=3, merge_factors=2, rpe_kind="none"),
    dict(input_shape=(16, 16), patch_len=2, windows=2, merge_factors=2, energy_p=1.0,
         window_energy_fn="l2"),
    dict(input_shape=(24, 24), patch_len=2, windows=3, merge_factors=2, energy_p=2.5,
         token_energy="max_l2"),
    dict(input_shape=(96,), windows=2, merge_factors=(3, 2)),
    dict(input_shape=(24, 24), patch_len=2, windows=2, merge_factors=(2, 3)),
)


def inputs(package, cfg):
    """One random input of `package`'s GridSignal, and a SignalBatch of 7
    with the special cases."""
    rng = np.random.default_rng(sum(cfg.input_shape))
    shape = (*cfg.input_shape, cfg.channels)
    x = package.GridSignal(rng.uniform(-1, 1, shape))
    impulse = np.zeros(shape)
    impulse[(0,) * len(shape)] = 1.0
    mixed = np.where(rng.uniform(size=shape) < 0.5, -0.0, rng.uniform(-1, 1, shape))
    batch = [
        x.data,
        package.circular_shift(x, (1,) * cfg.rank).data,
        package.circular_shift(x, tuple(range(3, 3 + cfg.rank))).data,
        np.zeros(shape),
        impulse,
        np.full(shape, -0.0),
        mixed,
    ]
    return x, package.numerics.SignalBatch(batch)


def update(digest, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())


def digest(package) -> tuple[str, int]:
    """(sha256 hex digest, forward calls) over the grid, run through
    `package`, an imported eqvit package under any module name."""
    pipeline, sha, cases = package.pipeline, hashlib.sha256(), 0
    for overrides in CONFIGS:
        base = pipeline.ModelConfig(**overrides)
        for k in range(len(pipeline.SWITCHES) + 1):
            for off in combinations(pipeline.SWITCHES, k):
                model = pipeline.build_model(base.disable(*off))
                for sample in inputs(package, model.config):
                    logits, labels, maps, trace = pipeline.forward(model, sample)
                    update(sha, logits, np.asarray(labels), maps)
                    for entry in trace:
                        sha.update(entry.kind.encode())
                        update(sha, entry.offsets, entry.tied)
                    cases += 1
    return sha.hexdigest(), cases


def main() -> None:
    sys.path.insert(0, str(SRC))
    import eqvit

    sha, calls = digest(eqvit)
    print(f"{sha}  {calls} forward calls")


if __name__ == "__main__":
    main()
