"""Output checks shared by the benchmark and its self-test.

A forward op is one shift group: K circular shifts of one input, each run
through `classify` and `encode_decode`.  The group passes when every shift
agrees with the first one: logits within TOL, the same label, and decoded
maps that match within TOL once each is rotated back by its own input shift.
A group in which any selection reports an exact energy tie is counted as
tied and not asserted: the package documents that tied selections may
legitimately depend on the shift.

A verify op is one default `eqvit run`.  It passes when the run exits 0 and
its report bytes equal those of the first run made with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The package's end-to-end tolerance (harness.TOL_END2END); restated here so
# that a change to the library cannot loosen the benchmark's check.
TOL = 1e-9


@dataclass(frozen=True)
class ShiftResult:
    """What one shifted input produced: both heads' outputs and tie flags."""

    shift: tuple[int, ...]
    logits: np.ndarray
    label: int
    decoded: np.ndarray
    tied: bool


def rotate_back(decoded: np.ndarray, shift: tuple[int, ...]) -> np.ndarray:
    """Undo the input shift on a decoded map of shape (*grid, D)."""
    return np.roll(decoded, shift, axis=tuple(range(len(shift))))


def check_group(results: list[ShiftResult]) -> str:
    """'pass', 'fail' or 'tied' for one shift group."""
    if any(r.tied for r in results):
        return "tied"
    ref = results[0]
    ref_map = rotate_back(ref.decoded, ref.shift)
    for r in results[1:]:
        if r.label != ref.label:
            return "fail"
        if not np.max(np.abs(r.logits - ref.logits)) <= TOL:
            return "fail"
        if not np.max(np.abs(rotate_back(r.decoded, r.shift) - ref_map)) <= TOL:
            return "fail"
    return "pass"


def check_report(exit_code: int, report: bytes, first_report: bytes | None) -> bool:
    """True when a verification passed and reproduced the first report."""
    return exit_code == 0 and (first_report is None or report == first_report)
