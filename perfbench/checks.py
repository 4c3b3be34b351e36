"""Output checks: every operation's output is checked before it counts as done.

``compare`` walks two decoded JSON documents and reports the first place
they differ. Numbers may differ by at most ``DRIFT`` (relative to the larger
of 1 and the reference value), the cross-version allowance of the project's
roadmap; integers, strings, booleans and the shape of the document must match
exactly.
"""

from __future__ import annotations

import math

DRIFT = 1e-12
MIN_EFFECTIVE_SHARE = 0.95


def compare(got, ref, where: str = "$") -> str | None:
    """None if ``got`` matches ``ref`` within DRIFT, else where it does not."""
    if isinstance(ref, bool) or isinstance(got, bool):
        return None if got is ref else f"{where}: {got!r} != {ref!r}"
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(ref, (int, float)):
            return f"{where}: {got!r} != {ref!r}"
        if math.isnan(ref) and math.isnan(got):
            return None
        if abs(got - ref) <= DRIFT * max(1.0, abs(ref)):
            return None
        return f"{where}: {got!r} differs from {ref!r} by more than {DRIFT}"
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            return f"{where}: keys differ"
        for key in ref:
            found = compare(got[key], ref[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: lengths differ"
        for i, (g, r) in enumerate(zip(got, ref)):
            found = compare(g, r, f"{where}[{i}]")
            if found:
                return found
        return None
    return None if got == ref else f"{where}: {got!r} != {ref!r}"


def cyclic_report(report: dict) -> list[str]:
    """Seed-independent checks on a ``plscycle cyclic`` JSON report."""
    problems = []
    if report["fit"].get("converged") is not True:
        problems.append("step-1 fit did not converge")
    if report["cyclic"]["step2"].get("converged") is not True:
        problems.append("step-2 fit did not converge")
    boot = report["bootstrap"]
    if boot["effective"] < MIN_EFFECTIVE_SHARE * boot["requested"]:
        problems.append(f"b_effective {boot['effective']} < 0.95 * {boot['requested']}")
    return problems
