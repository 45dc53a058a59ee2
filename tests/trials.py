"""Per-trial views of the harness's batches: the payloads trial-by-trial
references and replay tests start from."""

from eqvit import harness
from eqvit.harness import PROPERTIES, SuiteConfig


def batches_of(name: str, sc: SuiteConfig):
    """Suite `name`'s batches; the metrics suite's are end2end's on its own stream."""
    if name == "metrics":
        return harness._end2end_batches(sc, "metrics")
    return PROPERTIES[name].batches(sc)


def trial_payloads(name: str, sc: SuiteConfig) -> list[tuple[dict, object]]:
    """(payload, shared) of every trial of suite `name` under `sc`, in trial
    order: each batch expanded row by row through `Property.payload`."""
    prop = PROPERTIES["end2end" if name == "metrics" else name]
    trials = [
        (i, prop.payload(columns, k), shared)
        for indices, columns, shared in batches_of(name, sc)
        for k, i in enumerate(indices)
    ]
    trials.sort(key=lambda trial: trial[0])
    return [(payload, shared) for _, payload, shared in trials]


def first_payload(name: str) -> dict:
    """Trial 0 of suite `name`, the payload its replay template is read from."""
    return trial_payloads(name, SuiteConfig(trials=1))[0][0]


def batch_of(name: str, payloads: list[dict]) -> dict:
    """The columns of one batch of `payloads`, which differ only in their rows."""
    rows = PROPERTIES[name].rows
    return {k: [p[k] for p in payloads] if k in rows else v for k, v in payloads[0].items()}
