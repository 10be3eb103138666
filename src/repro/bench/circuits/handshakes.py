"""Reusable STG pattern generators for benchmark reconstruction.

The original benchmark files of Table 2 (from [5, 1] plus IMEC
industrial designs) are not distributed with the paper, so every
circuit is *reconstructed* from the composable handshake patterns that
the originals are known to consist of (see DESIGN.md §3).  All
generators produce live, safe, consistent STGs; the test-suite
verifies CSC and semi-modularity of every elaborated benchmark.

Patterns:

* :func:`ring` — a sequencer: transitions fire in one fixed cyclic
  order (two phases per signal);
* :func:`fork_join` — a master forks to N concurrent slaves and joins;
* :func:`muller_pipeline` — the classic Muller C-element pipeline of N
  stages (state count grows quickly with N, used for the big rows);
* :func:`choice_server` — an input choice between alternative request
  lines served by a shared acknowledge;
* :func:`converter_2phase_4phase` — a protocol converter skeleton.
"""

from __future__ import annotations

from ...stg.petrinet import Stg, StgTransition

__all__ = [
    "ring",
    "fork_join",
    "muller_pipeline",
    "choice_server",
    "converter_2phase_4phase",
]


def _t(sig: str, plus: bool, inst: int = 0) -> StgTransition:
    return StgTransition(sig, 1 if plus else -1, inst)


def ring(signals: list[str], inputs: list[str]) -> Stg:
    """Sequencer: ``s1+ → s2+ → … → sk+ → s1- → … → sk- → s1+``.

    2·k states; every trigger region is a singleton.
    """
    outputs = [s for s in signals if s not in inputs]
    stg = Stg(inputs, outputs, name="ring")
    seq = [_t(s, True) for s in signals] + [_t(s, False) for s in signals]
    for i, t in enumerate(seq):
        stg.connect(t, seq[(i + 1) % len(seq)])
    stg.mark_between(seq[-1], seq[0])
    return stg


def fork_join(
    master: str,
    slaves: list[str],
    name: str = "forkjoin",
) -> Stg:
    """The input master forks to concurrent slaves, joins, and cycles.

    ``m+ → (s1+ ‖ … ‖ sn+) → m- → (s1- ‖ … ‖ sn-) → m+``.
    State count ≈ 2·2ⁿ.
    """
    outputs = [s for s in slaves if s != master]
    stg = Stg([master], outputs, name=name)
    mp, mm = _t(master, True), _t(master, False)
    for s in slaves:
        sp, sm = _t(s, True), _t(s, False)
        stg.connect(mp, sp)
        stg.connect(sp, mm)
        stg.connect(mm, sm)
        stg.connect(sm, mp)
        stg.mark_between(sm, mp)
    return stg


def muller_pipeline(n: int, name: str = "pipe") -> Stg:
    """The classic N-stage Muller pipeline control.

    Stage ``i`` drives ``c_i``; ``c_i+`` requires ``c_{i-1}+`` (data
    arrived) and ``c_{i+1}-`` (successor empty); boundary stages talk
    to the environment through ``req``/``ack``.  The token capacity of
    the ring gives state counts that grow roughly as the Fibonacci-like
    sequence of allowed occupancy patterns — the standard way to get
    large, well-behaved SGs.
    """
    sigs = [f"c{i}" for i in range(n)]
    stg = Stg(["req"], sigs + ["ack"], name=name)

    chain = ["req"] + sigs
    # forward propagation: x_{i}+ -> x_{i+1}+ ; x_i- -> x_{i+1}-
    for i in range(len(chain) - 1):
        a, b = chain[i], chain[i + 1]
        stg.connect(_t(a, True), _t(b, True))
        stg.connect(_t(a, False), _t(b, False))
    # backward acknowledgement: x_{i+1}+ -> x_i- ; x_{i+1}- -> x_i+
    for i in range(len(chain) - 1):
        a, b = chain[i], chain[i + 1]
        stg.connect(_t(b, True), _t(a, False))
        p = stg.connect(_t(b, False), _t(a, True))
        stg.mark(p)  # every stage starts empty
    last = chain[-1]
    stg.connect(_t(last, True), _t("ack", True))
    stg.connect(_t(last, False), _t("ack", False))
    stg.connect(_t("ack", True), _t(last, False))
    p = stg.connect(_t("ack", False), _t(last, True))
    stg.mark(p)
    return stg


def choice_server(requests: list[str], grants: list[str]) -> Stg:
    """Input choice: the environment raises exactly one request; the
    controller answers with the matching grant, four-phase.

    ``ri+ → gi+ → ri- → gi- → (free choice again)``.  The free choice
    place is shared by all ``ri+``.
    """
    if len(requests) != len(grants):
        raise ValueError("need one grant per request")
    stg = Stg(requests, grants, name="choice")
    free = "p_free"
    stg.add_place(free)
    for r, g in zip(requests, grants):
        stg.arc_pt(free, _t(r, True))
        stg.connect(_t(r, True), _t(g, True))
        stg.connect(_t(g, True), _t(r, False))
        stg.connect(_t(r, False), _t(g, False))
        stg.arc_tp(_t(g, False), free)
    stg.mark(free)
    return stg


def converter_2phase_4phase() -> Stg:
    """Protocol converter: two-phase side (a) to four-phase side (r/k).

    Shaped after the ``converta``-style interface adapters: input ``a``
    alternates; each ``a`` event produces a full four-phase cycle on
    the output pair ``r``/``k`` with an internal state signal ``x``
    remembering the phase.
    """
    stg = Stg(["a"], ["r", "x"], name="conv")
    # a+ -> r+ -> x+ -> r- -> a- -> r+/1 ... a two-phase to four-phase
    stg.connect(_t("a", True), _t("r", True))
    stg.connect(_t("r", True), _t("x", True))
    stg.connect(_t("x", True), _t("r", False))
    stg.connect(_t("r", False), _t("a", False))
    stg.connect(_t("a", False), _t("r", True, 1))
    stg.connect(_t("r", True, 1), _t("x", False))
    stg.connect(_t("x", False), _t("r", False, 1))
    p = stg.connect(_t("r", False, 1), _t("a", True))
    stg.mark(p)
    return stg


def phased_cycle(
    phases: list[list[tuple[str, bool]]],
    inputs: list[str],
    name: str = "phased",
) -> Stg:
    """A cyclic behaviour of fork/join phases.

    ``phases[i]`` is a list of ``(signal, rising)`` events that fire
    concurrently; all of phase ``i`` must complete before any event of
    phase ``i+1`` (full join), and the last phase re-enables the first.
    State count ≈ Σ 2^|phase|.  This is the workhorse for reconstructing
    the mid-size benchmark controllers.
    """
    signals: list[str] = []
    for ph in phases:
        for s, _ in ph:
            if s not in signals:
                signals.append(s)
    outputs = [s for s in signals if s not in inputs]
    stg = Stg(inputs, outputs, name=name)
    k = len(phases)
    for i, ph in enumerate(phases):
        nxt = phases[(i + 1) % k]
        for s, rising in ph:
            for s2, rising2 in nxt:
                p = stg.connect(_t(s, rising), _t(s2, rising2))
                if i == k - 1:
                    stg.mark(p)
    return stg


def parallel_stgs(parts: list[Stg], name: str = "par") -> Stg:
    """Independent parallel composition (state counts multiply).

    Signals must be disjoint between the parts.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    internal: list[str] = []
    for p in parts:
        inputs.extend(p.input_signals)
        outputs.extend(p.output_signals)
        internal.extend(p.internal_signals)
    stg = Stg(inputs, outputs, internal, name=name)
    for p in parts:
        for t in p.transitions:
            stg.add_transition(t)
        for place in p.places():
            stg.add_place(place)
            for t in p.place_pre[place]:
                stg.arc_tp(t, place)
            for t in p.place_post[place]:
                stg.arc_pt(place, t)
        for place in p.initial_marking:
            stg.mark(place)
        for s, v in p.initial_values.items():
            stg.set_initial_value(s, v)
    return stg
