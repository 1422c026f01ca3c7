"""Correctness gate: run after serving, outside every timed region.

Each check returns a list of problems (empty when the check passes),
so ``run.py`` can report all of them before exiting non-zero.  The
interpreted ``scheme.route()`` is ground truth: compiled outputs must
equal it exactly, with no tolerance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np



def misdelivered(out: Dict[str, object], targets: np.ndarray) -> int:
    """How many routes of one ``route_arrays`` call reached a wrong node."""
    return int(np.count_nonzero(np.asarray(out["target"]) != targets))


def _compiled_legs(
    out: Dict[str, object], i: int, leg_names: Sequence[str]
) -> Optional[Dict[str, float]]:
    """Row ``i``'s legs as the dict ``route()`` would return."""
    legs = out.get("legs")
    zerohop = out.get("zerohop")
    if legs is None or (zerohop is not None and zerohop[i]):
        return None
    row = np.asarray(legs)[i]
    return {name: float(row[k]) for k, name in enumerate(leg_names)}


def lemma_3_4_bound(epsilon: float) -> float:
    """Eqn. 6's envelope ``1 + 8(1/eps + 1)/(1/eps - 2)``, finite for eps < 1/2."""
    inv = 1.0 / epsilon
    return 1.0 + 8.0 * (inv + 1.0) / (inv - 2.0)


def stretch_bound(scheme) -> Optional[float]:
    """The stretch every route of ``scheme`` must stay within, or None.

    ``stretch_guarantee()`` is the paper's constant (9 for the Theorem 1.4
    scheme) without its O(eps) term.  For eps < 1/2 the bound is Lemma
    3.4's exact envelope, as in the repository's tests of that scheme; at
    eps >= 1/2, where the envelope is infinite, it is ``guarantee + 8 eps``,
    the cap those tests use at eps = 1/2.  Of the benchmark's schemes
    only ``SimpleNameIndependentScheme`` has a guarantee.
    """
    guarantee = scheme.stretch_guarantee()
    if guarantee is None:
        return None
    epsilon = scheme.params.epsilon
    if epsilon < 0.5:
        return max(guarantee, lemma_3_4_bound(epsilon))
    return guarantee + 8.0 * epsilon


def against_interpreted(
    results: Sequence,
    out: Dict[str, object],
    leg_names: Optional[Sequence[str]],
    bound: Optional[float],
) -> List[str]:
    """Compiled target, cost, legs and zerohop == the ``route()`` results.

    ``results[i]`` is ``scheme.route()`` of the pair behind row ``i`` of
    ``out``.  Also checks each interpreted stretch against ``bound``.
    Legs are compared by name, so they are skipped when the tables no
    longer expose ``leg_names`` (``run.py`` records that as absent).
    """
    problems: List[str] = []
    zerohop = out.get("zerohop")
    for i, want in enumerate(results):
        pair = f"pair ({want.source}, {want.target})"
        if int(out["target"][i]) != want.target:
            problems.append(f"{pair}: delivered {int(out['target'][i])}")
        if float(out["cost"][i]) != want.cost:
            problems.append(f"{pair}: cost {float(out['cost'][i])!r} vs {want.cost!r}")
        if leg_names is not None:
            legs = _compiled_legs(out, i, leg_names)
            if legs != want.legs:
                problems.append(f"{pair}: legs {legs} vs {want.legs}")
        if zerohop is not None and bool(zerohop[i]) != (want.legs is None):
            problems.append(f"{pair}: zerohop {bool(zerohop[i])} vs {want.legs is None}")
        if bound is not None and want.stretch > bound:
            problems.append(f"{pair}: stretch {want.stretch} above {bound}")
    return problems


def same_outputs(label: str, a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Two ``route_arrays`` results agree exactly on every output array."""
    problems = []
    for key in ("target", "cost", "legs", "zerohop"):
        x, y = a.get(key), b.get(key)
        if (x is None) != (y is None) or (
            x is not None and not np.array_equal(np.asarray(x), np.asarray(y))
        ):
            problems.append(f"{label}: {key} differs")
    return problems


def same_table_bits(warm: Sequence[int], cold: Sequence[int]) -> List[str]:
    if list(warm) != list(cold):
        return ["warm table_bits_vector differs from a cold rebuild"]
    return []
