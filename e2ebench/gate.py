"""The correctness gate shared by every workload.

Expected values come from the hand-written ``expected.json`` beside this
file, never from the compiler under test.  A problem is one line of text;
any problem marks its job failed and makes the run exit non-zero.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)["independent_optimum"]


def optimum_problem(expected: dict, modes: int, weight: int,
                    proved: bool) -> str | None:
    """Mismatch against the known independent optimum for ``modes``
    (``None`` when it matches or no optimum is listed)."""
    known = expected.get(str(modes))
    if known is None:
        return None
    if weight != known["weight"] or proved != known["proved"]:
        return (f"{modes}-mode independent optimum: got weight {weight} "
                f"proved={proved}, expected weight {known['weight']} "
                f"proved={known['proved']}")
    return None


def drift_problems(name: str, signatures: list) -> list[tuple[int, str]]:
    """``(pass index, problem)`` for each pass whose deterministic
    outputs differ from the first pass's."""
    return [
        (index, f"{name}: pass {index} gave {signature}, "
                f"pass 0 gave {signatures[0]}")
        for index, signature in enumerate(signatures)
        if signature != signatures[0]
    ]
