"""Property-controlled random specification generator.

Emits semi-modular-with-input-choice state graphs whose paper
properties are *chosen*, not discovered: each knob of
:class:`SpecKnobs` selects one side of a dividing line from the paper —
CSC (Definition 1), distributivity (Definition 4), single traversal
(Definition 9) — and the construction below guarantees the requested
side, which the real classifiers (:mod:`repro.sg.properties`,
:mod:`repro.sg.distributivity`, :mod:`repro.sg.regions`) then confirm
on every sample.  A sample whose classifier labels disagree with its
knobs raises :class:`GenerationError` — the generator never silently
mislabels a spec, because the labels are the differential harness's
ground truth.

Construction: a random **cycle of episodes** over pairwise-disjoint
signal sets.  Every episode starts and ends in an all-signals-zero
boundary state and keeps at least one of its own signals high in every
interior state, so interiors never collide across episodes and the
whole cycle is consistent and semi-modular by composition.  The motifs:

* ``hs`` — a sequential handshake ``x+ k+ x- k-`` (input x, output k);
* ``fork`` — inputs rise concurrently, an output acknowledges, inputs
  fall concurrently (distributive concurrency, singleton triggers);
* ``choice`` — an input choice ``r1+|r2+ → g+ → ri- → g-`` rejoining
  before the grant falls (Definition 2's input-choice allowance); the
  grant is OR-caused by the competing requests, so the boundary state
  is detonant w.r.t. it — a *non-distributive* motif;
* ``orfork`` — the OR-causality element: an output rises once *any* of
  ``k ≥ 2`` inputs is up, so the boundary state is detonant w.r.t. it
  (Definition 3) — the other non-distributive construction;
* ``outfirst`` — an output-led episode ``c+ … c-``: its boundary
  excites a non-input, so two distinct boundary states (all coded
  zero) carry different excited non-input sets — a CSC violation by
  construction.

Multi-traversal specs are produced by a final product transform with a
free-running input (the device of the paper's Figure 7(b)): crossing
every state with a toggling clock preserves consistency,
semi-modularity, CSC and distributivity status, while making every
trigger region at least two states wide.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from ..sg.distributivity import detonant_states, is_distributive
from ..sg.graph import StateGraph, Transition
from ..sg.properties import (
    check_consistency,
    is_semimodular_with_input_choices,
    satisfies_csc,
    usc_violations,
)
from ..sg.regions import is_single_traversal

__all__ = [
    "GenerationError",
    "SpecKnobs",
    "SpecLabels",
    "GeneratedSpec",
    "classify",
    "generate_spec",
    "knob_combinations",
    "derive_seed",
]


class GenerationError(RuntimeError):
    """A generated sample's classifier labels contradict its knobs."""


@dataclass(frozen=True)
class SpecKnobs:
    """The requested properties of one generated specification.

    ``signals`` is a budget, not an exact count — motifs are packed
    into it (and it is raised to the minimum the requested properties
    need, e.g. a non-distributive spec needs the 4-signal ``orfork``).
    """

    signals: int = 8
    csc: bool = True
    distributive: bool = True
    single_traversal: bool = True

    def short(self) -> str:
        """Compact tag used in spec names: e.g. ``cds`` / ``nom``."""
        return (
            ("c" if self.csc else "n")
            + ("d" if self.distributive else "o")
            + ("s" if self.single_traversal else "m")
        )

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SpecLabels:
    """Ground-truth classifier labels of one sample."""

    states: int
    signals: int
    inputs: int
    consistent: bool
    csc: bool
    usc: bool
    semimodular: bool
    distributive: bool
    detonant_count: int
    single_traversal: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class GeneratedSpec:
    """One labeled sample: the SG plus its provenance and labels."""

    name: str
    seed: int
    knobs: SpecKnobs
    sg: StateGraph
    labels: SpecLabels


def classify(sg: StateGraph) -> SpecLabels:
    """Run the real property classifiers over an SG."""
    detonant = sum(len(detonant_states(sg, a)) for a in sg.non_inputs)
    return SpecLabels(
        states=sg.num_states,
        signals=sg.num_signals,
        inputs=len(sg.inputs),
        consistent=not check_consistency(sg),
        csc=satisfies_csc(sg),
        usc=not usc_violations(sg),
        semimodular=is_semimodular_with_input_choices(sg),
        distributive=is_distributive(sg),
        detonant_count=detonant,
        single_traversal=is_single_traversal(sg),
    )


# ----------------------------------------------------------------------
# episode motifs
# ----------------------------------------------------------------------
# Each motif emits arcs from an entry boundary state to an exit boundary
# state (both all-zero), over signal indices allocated to it alone.  The
# `tag` disambiguates interior state ids across episodes.


def _ep_hs(sg: StateGraph, entry, exit_, tag: int, x: int, k: int) -> None:
    """x+ k+ x- k-  (input x, output k)."""
    bx, bk = 1 << x, 1 << k
    s1 = sg.add_state((tag, 1), bx)
    s2 = sg.add_state((tag, 2), bx | bk)
    s3 = sg.add_state((tag, 3), bk)
    sg.add_arc(entry, Transition(x, 1), s1)
    sg.add_arc(s1, Transition(k, 1), s2)
    sg.add_arc(s2, Transition(x, -1), s3)
    sg.add_arc(s3, Transition(k, -1), exit_)


def _ep_outfirst(
    sg: StateGraph, entry, exit_, tag: int, c: int, x: int | None
) -> None:
    """c+ [x+] c- [x-]  (output-led: the boundary excites non-input c)."""
    bc = 1 << c
    if x is None:
        s1 = sg.add_state((tag, 1), bc)
        sg.add_arc(entry, Transition(c, 1), s1)
        sg.add_arc(s1, Transition(c, -1), exit_)
        return
    bx = 1 << x
    s1 = sg.add_state((tag, 1), bc)
    s2 = sg.add_state((tag, 2), bc | bx)
    s3 = sg.add_state((tag, 3), bx)
    sg.add_arc(entry, Transition(c, 1), s1)
    sg.add_arc(s1, Transition(x, 1), s2)
    sg.add_arc(s2, Transition(c, -1), s3)
    sg.add_arc(s3, Transition(x, -1), exit_)


def _mask(xs: tuple[int, ...]) -> int:
    m = 0
    for x in xs:
        m |= 1 << x
    return m


def _ep_fork(sg: StateGraph, entry, exit_, tag: int, xs: tuple[int, ...], k: int) -> None:
    """Inputs rise concurrently, k acknowledges, inputs fall, k resets."""
    bk = 1 << k
    full = frozenset(xs)

    def rise(sub: frozenset) -> object:
        return entry if not sub else sg.add_state((tag, "r", sub), _mask(tuple(sub)))

    def fall(sub: frozenset) -> object:
        return sg.add_state((tag, "f", sub), _mask(tuple(sub)) | bk)

    subsets = [frozenset(s) for s in _powerset(xs)]
    for sub in subsets:
        rise(sub)
    for sub in subsets:
        fall(sub)
    for sub in subsets:
        for x in xs:
            if x not in sub:
                sg.add_arc(rise(sub), Transition(x, 1), rise(sub | {x}))
        for x in sub:
            sg.add_arc(fall(sub), Transition(x, -1), fall(sub - {x}))
    sg.add_arc(rise(full), Transition(k, 1), fall(full))
    sg.add_arc(fall(frozenset()), Transition(k, -1), exit_)


def _ep_choice(sg: StateGraph, entry, exit_, tag: int, rs: tuple[int, ...], g: int) -> None:
    """Input choice: ri+ g+ ri- …merge… g-  (Definition 2 allowance).

    The grant is excited in *every* ``+ri`` successor of the entry
    boundary while stable in the boundary itself, so the boundary is a
    detonant state w.r.t. ``g`` (OR-causality through the choice) —
    this motif is non-distributive, like ``orfork``.
    """
    bg = 1 << g
    merge = sg.add_state((tag, "m"), bg)
    for r in rs:
        br = 1 << r
        s1 = sg.add_state((tag, "c", r), br)
        s2 = sg.add_state((tag, "d", r), br | bg)
        sg.add_arc(entry, Transition(r, 1), s1)
        sg.add_arc(s1, Transition(g, 1), s2)
        sg.add_arc(s2, Transition(r, -1), merge)
    sg.add_arc(merge, Transition(g, -1), exit_)


def _ep_orfork(
    sg: StateGraph, entry, exit_, tag: int, xs: tuple[int, ...], c: int, d: int
) -> None:
    """OR-causality: c rises once *any* input is up; d phases the reset.

    The entry boundary is detonant w.r.t. ``c`` (stable there, excited
    in every +xi successor) — Definition 3's OR-causality witness.  All
    trigger regions stay singletons, so non-distributivity is obtained
    without giving up single traversal.
    """
    bc, bd = 1 << c, 1 << d
    full = frozenset(xs)
    subsets = [frozenset(s) for s in _powerset(xs)]

    def up(sub: frozenset, cv: int) -> object:
        if not sub and not cv:
            return entry
        return sg.add_state((tag, "u", sub, cv), _mask(tuple(sub)) | (bc if cv else 0))

    def down(sub: frozenset) -> object:
        return sg.add_state((tag, "w", sub), _mask(tuple(sub)) | bc | bd)

    for sub in subsets:
        up(sub, 0)
        if sub:
            up(sub, 1)
    for sub in subsets:
        down(sub)
    tail = sg.add_state((tag, "t"), bd)
    for sub in subsets:
        for x in xs:
            if x not in sub:
                sg.add_arc(up(sub, 0), Transition(x, 1), up(sub | {x}, 0))
                if sub:
                    sg.add_arc(up(sub, 1), Transition(x, 1), up(sub | {x}, 1))
        if sub:
            sg.add_arc(up(sub, 0), Transition(c, 1), up(sub, 1))
        for x in sub:
            sg.add_arc(down(sub), Transition(x, -1), down(sub - {x}))
    sg.add_arc(up(full, 1), Transition(d, 1), down(full))
    sg.add_arc(down(frozenset()), Transition(c, -1), tail)
    sg.add_arc(tail, Transition(d, -1), exit_)


def _powerset(xs: tuple[int, ...]):
    out = [()]
    for x in xs:
        out.extend(s + (x,) for s in list(out))
    return out


# ----------------------------------------------------------------------
# cycle assembly
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Plan:
    motif: str
    n_inputs: int
    n_outputs: int

    @property
    def cost(self) -> int:
        return self.n_inputs + self.n_outputs


def _emit(plan: _Plan, sg: StateGraph, entry, exit_, tag: int, ins, outs) -> None:
    if plan.motif == "hs":
        _ep_hs(sg, entry, exit_, tag, ins[0], outs[0])
    elif plan.motif == "outfirst":
        _ep_outfirst(sg, entry, exit_, tag, outs[0], ins[0] if ins else None)
    elif plan.motif == "fork":
        _ep_fork(sg, entry, exit_, tag, tuple(ins), outs[0])
    elif plan.motif == "choice":
        _ep_choice(sg, entry, exit_, tag, tuple(ins), outs[0])
    elif plan.motif == "orfork":
        _ep_orfork(sg, entry, exit_, tag, tuple(ins), outs[0], outs[1])
    else:  # pragma: no cover - plan construction is closed
        raise GenerationError(f"unknown motif {plan.motif!r}")


def _with_free_running_input(sg: StateGraph) -> StateGraph:
    """Product with a toggling input ``clk`` — the Figure 7(b) device.

    Preserves consistency, semi-modularity, CSC and distributivity
    status; makes every trigger region of every non-input at least two
    states wide (the clock toggle never leaves an excitation region),
    i.e. the result is multi-traversal.
    """
    idx = sg.num_signals
    bclk = 1 << idx
    out = StateGraph(
        list(sg.signals) + ["clk"],
        [sg.signals[i] for i in sorted(sg.inputs)] + ["clk"],
    )
    for s in sg.states():
        out.add_state((s, 0), sg.code(s))
        out.add_state((s, 1), sg.code(s) | bclk)
    assert sg.initial is not None
    out.set_initial((sg.initial, 0))
    for s in sg.states():
        for t, dst in sg.successors(s):
            out.add_arc((s, 0), t, (dst, 0))
            out.add_arc((s, 1), t, (dst, 1))
        out.add_arc((s, 0), Transition(idx, 1), (s, 1))
        out.add_arc((s, 1), Transition(idx, -1), (s, 0))
    return out


def _make_plans(rng: random.Random, knobs: SpecKnobs, budget: int) -> list[_Plan]:
    plans: list[_Plan] = []
    if not knobs.distributive:
        # mandatory OR-causality: `choice` (cost 3) or `orfork` (cost 4+)
        if budget >= 4 and rng.random() < 0.5:
            k = 3 if budget >= 9 and rng.random() < 0.4 else 2
            plans.append(_Plan("orfork", k, 2))
        else:
            plans.append(_Plan("choice", 2, 1))
    if not knobs.csc:
        plans.append(_Plan("outfirst", rng.choice((0, 1)), 1))
    spent = sum(p.cost for p in plans)
    # fill the remaining budget; choice/orfork are detonant (OR-causal)
    # so they may only appear when non-distributivity was requested
    pool = ["hs", "hs", "fork"]
    if not knobs.csc:
        pool.append("outfirst")
    if not knobs.distributive:
        pool.extend(["choice", "orfork"])
    while budget - spent >= 2:
        motif = rng.choice(pool)
        if motif == "hs":
            plan = _Plan("hs", 1, 1)
        elif motif == "outfirst":
            plan = _Plan("outfirst", rng.choice((0, 1)), 1)
        else:
            n_outs = 2 if motif == "orfork" else 1
            width = min(3, budget - spent - n_outs)
            if width < 2:
                plan = _Plan("hs", 1, 1)
            else:
                k = rng.randint(2, width)
                plan = _Plan(motif, k, n_outs)
        if plan.cost > budget - spent:
            break
        plans.append(plan)
        spent += plan.cost
        if len(plans) >= 2 and rng.random() < 0.25:
            break
    # a CSC violation needs two all-zero boundaries with different
    # excited non-input sets — i.e. at least two episodes
    if not knobs.csc and len(plans) < 2:
        plans.append(_Plan("outfirst", 0, 1))
    if not plans:  # pragma: no cover - budget floor prevents this
        plans.append(_Plan("hs", 1, 1))
    rng.shuffle(plans)
    return plans


def _min_budget(knobs: SpecKnobs) -> int:
    need = 2  # at least one handshake
    if not knobs.distributive:
        need = 3  # the input-choice motif is the cheapest detonant one
    if not knobs.csc:
        need += 1
    return need


def derive_seed(seed: int, index: int) -> int:
    """Per-spec seed of campaign spec ``index`` (stable, collision-free)."""
    return (seed * 1_000_003 + index) & 0x7FFFFFFF


def generate_spec(seed: int, knobs: SpecKnobs | None = None) -> GeneratedSpec:
    """Generate one labeled sample (deterministic in ``(seed, knobs)``)."""
    knobs = knobs or SpecKnobs()
    rng = random.Random(f"{seed}/{knobs.short()}/{knobs.signals}")
    budget = max(knobs.signals, _min_budget(knobs))
    if not knobs.single_traversal:
        budget = max(budget - 1, _min_budget(knobs))  # reserve the clock signal
    plans = _make_plans(rng, knobs, budget)

    signals: list[str] = []
    inputs: list[str] = []
    alloc: list[tuple[list[int], list[int]]] = []
    for plan in plans:
        ins, outs = [], []
        for _ in range(plan.n_inputs):
            ins.append(len(signals))
            inputs.append(f"x{len(signals)}")
            signals.append(f"x{len(signals)}")
        for _ in range(plan.n_outputs):
            outs.append(len(signals))
            signals.append(f"y{len(signals)}")
        alloc.append((ins, outs))

    sg = StateGraph(signals, inputs)
    n_ep = len(plans)
    for i in range(n_ep):
        sg.add_state(("b", i), 0)
    sg.set_initial(("b", 0))
    for i, plan in enumerate(plans):
        ins, outs = alloc[i]
        _emit(plan, sg, ("b", i), ("b", (i + 1) % n_ep), i, ins, outs)

    if not knobs.single_traversal:
        sg = _with_free_running_input(sg)

    labels = classify(sg)
    want = {
        "consistent": True,
        "semimodular": True,
        "csc": knobs.csc,
        "distributive": knobs.distributive,
        "single_traversal": knobs.single_traversal,
    }
    got = {k: getattr(labels, k) for k in want}
    if got != want:
        bad = {k: (want[k], got[k]) for k in want if want[k] != got[k]}
        raise GenerationError(
            f"sample (seed={seed}, knobs={knobs.short()}) label mismatch "
            f"(want, got): {bad}"
        )
    name = f"fuzz_s{seed}_{knobs.short()}"
    return GeneratedSpec(name=name, seed=seed, knobs=knobs, sg=sg, labels=labels)


def knob_combinations(
    signals: int = 8,
    csc: str = "both",
    distributive: str = "both",
    traversal: str = "both",
) -> list[SpecKnobs]:
    """The knob sweep of a campaign, from per-axis mode selectors.

    Each selector is ``"both"`` or one of its sides (``"on"``/``"off"``
    for csc and distributivity, ``"single"``/``"multi"`` for
    traversal).  A campaign cycles through the cartesian product.
    """

    def sides(mode: str, on: str, off: str, axis: str) -> list[bool]:
        if mode == "both":
            return [True, False]
        if mode == on:
            return [True]
        if mode == off:
            return [False]
        raise ValueError(f"bad {axis} mode {mode!r} (expected both/{on}/{off})")

    return [
        SpecKnobs(signals=signals, csc=c, distributive=d, single_traversal=t)
        for c in sides(csc, "on", "off", "csc")
        for d in sides(distributive, "on", "off", "distributive")
        for t in sides(traversal, "single", "multi", "traversal")
    ]
