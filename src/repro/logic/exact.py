"""Exact two-level minimization (Quine–McCluskey + unate covering).

The paper's footnote 6 notes that improved results can be obtained by
running ESPRESSO-EXACT instead of the heuristic minimizer.  This module
provides that exact mode for single-output functions of modest size:

1. **Prime generation** by iterated consensus over the ON ∪ DC cubes
   (equivalently Quine–McCluskey when starting from minterms).
2. **Unate covering** of the ON-set minterms by primes, solved with
   essential-column extraction, row/column dominance reduction, and a
   depth-first branch-and-bound with a greedy incumbent.

Sizes beyond :data:`MAX_MINTERMS` fall back to the heuristic loop — the
classic practical compromise.
"""

from __future__ import annotations

from .cover import Cover
from .cube import Cube
from .espresso import espresso

__all__ = ["generate_primes", "exact_minimize", "unate_cover"]

#: ON-set size above which :func:`exact_minimize` falls back to ESPRESSO
MAX_MINTERMS = 4096
#: working-set bound of :func:`generate_primes`
PRIME_LIMIT = 20000


def generate_primes(on: Cover, dc: Cover | None = None) -> list[Cube]:
    """All prime implicants of ``F ∪ D`` by iterated consensus.

    Starts from the given cubes (single-output), repeatedly adds
    consensus cubes, and removes cubes contained in others.
    :data:`PRIME_LIMIT` bounds the working set to keep the worst case
    in check.
    """
    pool: set[tuple[int, int]] = set()
    n = on.num_inputs
    for c in on.cubes:
        if not c.is_empty():
            pool.add((c.inputs, 1))
    if dc is not None:
        for c in dc.cubes:
            if not c.is_empty():
                pool.add((c.inputs, 1))
    cubes = [Cube(n, i, o) for i, o in pool]

    changed = True
    while changed:
        changed = False
        # absorb contained cubes
        cubes.sort(key=lambda c: -len(c.free_vars()))
        kept: list[Cube] = []
        for c in cubes:
            if not any(k.contains(c) for k in kept):
                kept.append(c)
        cubes = kept
        existing = {c.inputs for c in cubes}
        new: list[Cube] = []
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                cons = cubes[i].consensus(cubes[j])
                if cons is None or cons.inputs in existing:
                    continue
                if any(k.contains(cons) for k in cubes):
                    continue
                existing.add(cons.inputs)
                new.append(cons)
                if len(cubes) + len(new) > PRIME_LIMIT:
                    raise RuntimeError("prime generation exceeded limit")
        if new:
            cubes.extend(new)
            changed = True
    # final absorption
    cubes.sort(key=lambda c: -len(c.free_vars()))
    primes: list[Cube] = []
    for c in cubes:
        if not any(p.contains(c) for p in primes):
            primes.append(c)
    return primes


def unate_cover(rows: list[set[int]], costs: list[int], num_cols: int) -> list[int]:
    """Solve a unate covering problem.

    ``rows[i]`` is the set of columns that cover row ``i``; every row
    must be covered; ``costs[j]`` is the cost of selecting column ``j``.
    Returns the selected column indices.  Exact branch-and-bound for
    small instances with dominance reductions; falls back to pure
    greedy beyond a work budget.
    """
    # --- reductions -------------------------------------------------
    selected: set[int] = set()
    active_rows = [set(r) for r in rows]
    alive = [True] * len(active_rows)

    def reduce_once() -> bool:
        changed = False
        # essential columns: a row coverable by exactly one column
        for i, r in enumerate(active_rows):
            if not alive[i]:
                continue
            if len(r) == 0:
                raise ValueError("infeasible covering problem")
            if len(r) == 1:
                col = next(iter(r))
                selected.add(col)
                for k, rr in enumerate(active_rows):
                    if alive[k] and col in rr:
                        alive[k] = False
                changed = True
        # row dominance: drop rows that are supersets of other rows
        live = [i for i in range(len(active_rows)) if alive[i]]
        for a in live:
            if not alive[a]:
                continue
            for b in live:
                if a != b and alive[a] and alive[b] and active_rows[b] <= active_rows[a]:
                    alive[a] = False
                    changed = True
                    break
        # column dominance: drop column c if some d covers a superset
        # of c's rows at no greater cost
        live = [i for i in range(len(active_rows)) if alive[i]]
        col_rows: dict[int, set[int]] = {}
        for i in live:
            for c in active_rows[i]:
                col_rows.setdefault(c, set()).add(i)
        cols = list(col_rows)
        dominated: set[int] = set()
        for c in cols:
            for d in cols:
                if c == d or d in dominated or c in dominated:
                    continue
                if col_rows[c] <= col_rows[d] and costs[d] <= costs[c]:
                    if col_rows[c] == col_rows[d] and costs[c] == costs[d] and c < d:
                        continue  # symmetric tie: keep the lower index
                    dominated.add(c)
                    break
        if dominated:
            changed = True
            for i in live:
                active_rows[i] -= dominated
        return changed

    while True:
        live = [i for i in range(len(active_rows)) if alive[i]]
        if not live:
            return sorted(selected)
        if not reduce_once():
            break

    live_rows = [active_rows[i] for i in range(len(active_rows)) if alive[i]]
    if not live_rows:
        return sorted(selected)

    # --- greedy incumbent -------------------------------------------
    def greedy(rows_left: list[set[int]]) -> list[int]:
        chosen: list[int] = []
        remaining = [set(r) for r in rows_left]
        while remaining:
            score: dict[int, int] = {}
            for r in remaining:
                for c in r:
                    score[c] = score.get(c, 0) + 1
            best = max(score, key=lambda c: (score[c] / max(costs[c], 1), -costs[c]))
            chosen.append(best)
            remaining = [r for r in remaining if best not in r]
        return chosen

    incumbent = greedy(live_rows)
    incumbent_cost = sum(costs[c] for c in incumbent)
    budget = [200000]

    # --- branch and bound -------------------------------------------
    def bb(rows_left: list[set[int]], chosen: list[int], cost: int) -> None:
        nonlocal incumbent, incumbent_cost
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if not rows_left:
            if cost < incumbent_cost:
                incumbent, incumbent_cost = list(chosen), cost
            return
        if cost >= incumbent_cost:
            return
        # branch on the hardest row (fewest covering columns)
        row = min(rows_left, key=len)
        for col in sorted(row, key=lambda c: costs[c]):
            rest = [r for r in rows_left if col not in r]
            bb(rest, chosen + [col], cost + costs[col])

    bb(live_rows, [], 0)
    return sorted(selected | set(incumbent))


def exact_minimize(
    on: Cover,
    dc: Cover | None = None,
) -> Cover:
    """Exact single-output minimization; heuristic fallback when large.

    The cost function is (cubes, literals): primes are selected to
    minimize cube count, ties broken toward fewer literals via the
    column costs.
    """
    if on.num_outputs != 1:
        raise ValueError("exact_minimize handles single-output covers")
    on_minterms = sorted(on.minterms(0))
    if not on_minterms:
        return Cover.empty(on.num_inputs, 1)
    if len(on_minterms) > MAX_MINTERMS:
        return espresso(on, dc)
    try:
        primes = generate_primes(on, dc)
    except RuntimeError:
        return espresso(on, dc)

    rows: list[set[int]] = []
    for m in on_minterms:
        cols = {j for j, p in enumerate(primes) if p.contains_minterm(m)}
        rows.append(cols)
    # cost: dominate on cube count; add literal count as a small tiebreak
    costs = [1000 + p.num_literals() for p in primes]
    chosen = unate_cover(rows, costs, len(primes))
    return Cover(on.num_inputs, 1, [primes[j] for j in chosen])
