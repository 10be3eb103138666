"""A deliberately naive reference for the paper's SG definitions.

Covers the consistent state assignment (Section III-A), CSC
(Definition 1), semi-modularity with input choices (Definition 2),
detonant states and distributivity (Definitions 3-4), Vlad's
semi-modularity of the excitation function of the codes, the regions
(Definitions 5-7, 9) and the implied next-state function with the
static-1 and function hazards the baseline flows must handle.  Written
straight from the definitions as brute-force set comprehensions over
explicit state and arc lists, sharing no code with :mod:`repro.sg` or
:mod:`repro.baselines`, so the differential tests in
``test_sg_reference.py`` check the real classifiers and analysis
against an independent reading of the paper rather than against
themselves.

Every function takes an :class:`Explicit` snapshot of a state graph:
its state list, its codes and, per state, its outgoing arcs
``(signal, direction, dst)``.  :func:`elaborate` is the exception: it
plays the token game of an STG (Section III-A's SG semantics) on
frozenset markings, sharing no code with :mod:`repro.stg`, and is
compared with ``repro.stg.elaborate`` in ``test_elaborate_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Explicit:
    """A state graph flattened to explicit lists."""

    states: tuple
    code: dict
    succ: dict  # state -> tuple of (signal, direction, dst)
    non_inputs: tuple

    @classmethod
    def of(cls, sg) -> "Explicit":
        states = tuple(sg.states())
        return cls(
            states=states,
            code={s: sg.code(s) for s in states},
            succ={
                s: tuple((t.signal, t.direction, d) for t, d in sg.successors(s))
                for s in states
            },
            non_inputs=tuple(sg.non_inputs),
        )

    def value(self, s, a: int) -> int:
        return (self.code[s] >> a) & 1

    def excited(self, s, a: int, direction: int | None = None) -> bool:
        return any(sig == a and direction in (None, d) for sig, d, _ in self.succ[s])


def consistency_violations(g: Explicit) -> set[tuple]:
    """Section III-A: an arc ``+a`` goes from a code with ``a = 0`` to one
    with ``a = 1`` (``-a`` the reverse) and changes no other signal.
    Returns the offending arcs as ``(src, signal, direction, dst)``."""
    return {
        (s, a, d, t)
        for s in g.states
        for a, d, t in g.succ[s]
        if (g.value(s, a), g.value(t, a)) != ((0, 1) if d == 1 else (1, 0))
        or (g.code[s] ^ g.code[t]) & ~(1 << a)
    }


def csc_violations(g: Explicit) -> set[frozenset]:
    """Definition 1: unordered pairs of states with the same binary code
    but different sets of excited non-input signals."""
    excited = {
        s: frozenset(a for a in g.non_inputs if g.excited(s, a)) for s in g.states
    }
    by_code: dict = {}
    for s in g.states:
        by_code.setdefault(g.code[s], []).append(s)
    return {
        frozenset((s, t))
        for same in by_code.values()
        for s in same
        for t in same
        if s != t and excited[s] != excited[t]
    }


def semimodularity_violations(g: Explicit) -> set[tuple]:
    """Definition 2: for every state ``s``, non-input ``t1`` enabled in
    ``s`` and other ``t2`` enabled in ``s``, ``t1`` stays enabled after
    ``t2`` and ``s t1 t2`` and ``s t2 t1`` reach the same state (inputs
    may disable each other: input choice).  Returns
    ``(s, t1, t2, kind)`` with transitions as ``(signal, direction)``
    and ``kind`` ``"disabled"`` or ``"no-diamond"``."""

    def fire(s, t):
        return next((d for a, dr, d in g.succ[s] if (a, dr) == t), None)

    out = set()
    for s in g.states:
        enabled = [(a, d) for a, d, _ in g.succ[s]]
        for t1 in enabled:
            if t1[0] not in g.non_inputs:
                continue
            for t2 in enabled:
                if t2 == t1:
                    continue
                after_t2 = fire(fire(s, t2), t1)
                if after_t2 is None:
                    out.add((s, t1, t2, "disabled"))
                elif fire(fire(s, t1), t2) != after_t2:
                    out.add((s, t1, t2, "no-diamond"))
    return out


def detonant_states(g: Explicit, a: int) -> set[tuple]:
    """Definition 3: ``(w, {u, v})`` where ``a`` is stable in ``w`` but
    excited in two distinct direct successors ``u`` and ``v``."""
    hot = {s for s in g.states if g.excited(s, a)}
    return {
        (w, frozenset((u, v)))
        for w in g.states
        if w not in hot
        for _, _, u in g.succ[w]
        for _, _, v in g.succ[w]
        if u != v and u in hot and v in hot
    }


def distributive(g: Explicit) -> bool:
    """Definition 4: no non-input signal has a detonant state."""
    return not any(detonant_states(g, a) for a in g.non_inputs)


def next_state(g: Explicit, s, a: int) -> int:
    """The implied next-state value of ``a`` in ``s``: its value,
    flipped when ``a`` is excited there."""
    return g.value(s, a) ^ g.excited(s, a)


def static_one_pairs(g: Explicit, a: int) -> set[tuple]:
    """Arcs ``(s, d)`` by signals other than ``a`` between two states
    whose implied next-state value of ``a`` is 1: a two-level cover
    must hold both in one cube or glitch 1-0-1 (static-1 hazard)."""
    f = {s: next_state(g, s, a) for s in g.states}
    return {
        (s, d) for s in g.states for sig, _, d in g.succ[s] if sig != a and f[s] == 1 == f[d]
    }


def function_hazard_states(g: Explicit, a: int) -> set:
    """States ``s`` with two enabled arcs of signals other than ``a``,
    ``t1`` listed before ``t2``, such that the implied next-state value
    of ``a`` takes both 0 and 1 over ``s``, ``s·t1``, ``s·t2`` and, when
    ``t2`` is still enabled after ``t1``, ``s·t1·t2``: a function
    hazard, which no cover can make glitch-free."""

    def fire(s, t):
        return next((d for sig, dr, d in g.succ[s] if (sig, dr) == t), None)

    f = {s: next_state(g, s, a) for s in g.states}
    out = set()
    for s in g.states:
        arcs = [(sig, dr, d) for sig, dr, d in g.succ[s] if sig != a]
        for i, (_, _, s1) in enumerate(arcs):
            for sig2, dr2, s2 in arcs[i + 1 :]:
                corners = {s, s1, s2, fire(s1, (sig2, dr2))} - {None}
                if len({f[x] for x in corners}) > 1:
                    out.add(s)
    return out


def _closure(seeds: set, step) -> frozenset:
    """Least fixpoint of ``seeds ∪ step(x)``."""
    out, frontier = set(seeds), set(seeds)
    while frontier:
        frontier = {y for x in frontier for y in step(x)} - out
        out |= frontier
    return frozenset(out)


def excitation_regions(g: Explicit, a: int) -> set[tuple[int, frozenset]]:
    """Definition 5: ``(direction, states)`` of every ER of ``a`` — the
    weakly connected components of the states where ``a`` has one value
    and is excited in the matching direction."""
    out = set()
    for direction, value in ((1, 0), (-1, 1)):
        members = {
            s for s in g.states if g.value(s, a) == value and g.excited(s, a, direction)
        }
        edges = {(s, d) for s in members for _, _, d in g.succ[s] if d in members}
        linked = {s: set() for s in members}
        for s, d in edges:
            linked[s].add(d)
            linked[d].add(s)
        comps: set[frozenset] = set()
        for s in members:
            if not any(s in c for c in comps):
                comps.add(_closure({s}, linked.__getitem__))
        out |= {(direction, c) for c in comps}
    return out


def quiescent_region(g: Explicit, a: int, direction: int, er: frozenset) -> frozenset:
    """Definition 6: the states entered by firing the ER's transition,
    closed forward while ``a`` stays stable at its new value."""
    post = 1 if direction == 1 else 0

    def quiet(s) -> bool:
        return g.value(s, a) == post and not g.excited(s, a)

    seeds = {d for s in er for sig, dr, d in g.succ[s] if sig == a and dr == direction}
    return _closure(
        {s for s in seeds if quiet(s)},
        lambda x: {d for _, _, d in g.succ[x] if quiet(d)},
    )


def trigger_regions(g: Explicit, a: int, er: frozenset) -> set[frozenset]:
    """Definition 7: a state is in a trigger region when it is mutually
    reachable with every state it reaches inside the ER over arcs of
    other signals; the region is that reachable set."""
    reach = {
        s: _closure(
            {s}, lambda x: {d for sig, _, d in g.succ[x] if sig != a and d in er}
        )
        for s in er
    }
    return {reach[s] for s in er if all(s in reach[t] for t in reach[s])}


def single_traversal(trigger_regions) -> bool:
    """Definition 9: every trigger region (of every non-input) is one state."""
    return all(len(tr) == 1 for tr in trigger_regions)


class Unelaboratable(Exception):
    """The STG has no state graph; ``kind`` says why: ``"unsafe"``,
    ``"mixed-polarity"``, ``"inconsistent"``, ``"nondeterministic"`` or
    ``"max-states"``."""

    def __init__(self, kind: str) -> None:
        super().__init__(kind)
        self.kind = kind


def elaborate(stg, max_states: int = 200000) -> tuple[list, dict, list]:
    """The state graph of an STG by token flow.

    A state is ``(marking, code)``; states are listed in the order a
    depth-first token game (last in, first out; transitions tried in
    the STG's order) discovers them, and arcs ``(src, signal index,
    direction, dst)`` in the order it fires them.  Undeclared initial
    values come from the first polarity of each signal over all firing
    paths: ``x+`` first means 0, ``x-`` first means 1, never fired
    means 0, both mean no consistent coding.  Returns
    ``(states, code per state, arcs)``.
    """
    signals = list(stg.signals)

    def enabled(marking):
        return [t for t in stg.transitions if stg.pre[t] <= marking]

    def fire(marking, t):
        kept = marking - stg.pre[t]
        if kept & stg.post[t]:
            raise Unelaboratable("unsafe")
        return frozenset(kept | stg.post[t])

    # first polarities, over (marking, signals fired so far) pairs
    first = {s: set() for s in signals}
    start = (frozenset(stg.initial_marking), frozenset())
    seen, todo = {start}, [start]
    while todo:
        marking, fired = todo.pop()
        for t in enabled(marking):
            if t.signal not in fired:
                first[t.signal].add(t.direction)
            after = (fire(marking, t), fired | {t.signal})
            if after not in seen:
                seen.add(after)
                todo.append(after)
    values = {}
    for s in signals:
        if s in stg.initial_values:
            values[s] = stg.initial_values[s]
        elif first[s] == {1, -1}:
            raise Unelaboratable("mixed-polarity")
        else:
            values[s] = 1 if first[s] == {-1} else 0

    s0 = (frozenset(stg.initial_marking), sum(values[s] << i for i, s in enumerate(signals)))
    states, code, arcs, target = [s0], {s0: s0[1]}, [], {}
    todo = [s0]
    while todo:
        state = todo.pop()
        marking, c = state
        for t in enabled(marking):
            i = signals.index(t.signal)
            if (c >> i) & 1 != (0 if t.direction == 1 else 1):
                raise Unelaboratable("inconsistent")
            after = (fire(marking, t), c ^ (1 << i))
            if after not in code:
                if len(code) >= max_states:
                    raise Unelaboratable("max-states")
                code[after] = after[1]
                states.append(after)
                todo.append(after)
            label = (state, i, t.direction)
            if label not in target:
                target[label] = after
                arcs.append((state, i, t.direction, after))
            elif target[label] != after:
                raise Unelaboratable("nondeterministic")
    return states, code, arcs


def excitation_function(g: Explicit) -> dict[int, int]:
    """Vlad's excitation function Φ: {0,1}ⁿ → {0,1}ⁿ (arXiv cs/0110062),
    built from the codes alone: ``Φ(x)`` is ``x`` with every coordinate
    flipped that some arc out of a state coded ``x`` flips.  Codes no
    state carries are left out (stable: ``Φ(x) = x``)."""
    flips: dict[int, int] = {}
    for s in g.states:
        x = g.code[s]
        for _a, _d, t in g.succ[s]:
            flips[x] = flips.get(x, 0) | (x ^ g.code[t])
        flips.setdefault(x, 0)
    return {x: x ^ f for x, f in flips.items()}


def vlad_violations(g: Explicit) -> set[tuple[int, int, int]]:
    """Vlad's discrete-time semi-modularity of Φ, with input choices:
    at every code ``x``, an excited coordinate ``i`` stays excited after
    any other excited coordinate ``j`` switches, unless both are
    inputs.  Returns the failures as ``(x, i, j)``."""
    phi = excitation_function(g)
    out = set()
    for x, fx in phi.items():
        hot = [i for i in range((x ^ fx).bit_length()) if (x ^ fx) >> i & 1]
        for i in hot:
            for j in hot:
                if i == j or (i not in g.non_inputs and j not in g.non_inputs):
                    continue
                y = x ^ (1 << j)
                if not (phi.get(y, y) ^ y) >> i & 1:
                    out.add((x, i, j))
    return out
