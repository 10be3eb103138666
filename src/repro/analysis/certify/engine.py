"""Symbolic discharge of the hazard-freeness proof obligations.

The engine turns the paper's externally-hazard-free argument into five
obligation families, each discharged purely symbolically against the
synthesized SOP covers and the lowered architecture — no simulation:

``HZ001`` (Theorem 1)
    Every trigger region of every excitation region is covered by a
    *single* cube of the corresponding cover column.  Witness: the
    covering cube (or the uncovered states).
``HZ002`` (static-1 / required cubes)
    Every ON-set transition cube of every set/reset function is covered
    by its cover column — no required excitation can drop out
    mid-transition.  Discharged by cofactor tautology
    (:func:`~repro.logic.tautology.covers_cube`).  Witness: the covered
    cube (or the uncovered residue from the sharp product).
``HZ003`` (static-0)
    No product of a cover column intersects that function's OFF-set —
    the plane cannot excite in the opposite phase.  Witness: the
    product (or the intersecting OFF cube).
``HZ004`` (Equation (1))
    The per-signal trespass inequality, re-derived from the
    architecture's plane timings as an explicit per-path inequality
    instantiation; when the bound is positive, the netlist must carry
    the matching ``del_{kind}_{sig}`` delay line.  Witness: every term
    of the inequality.
``HZ005`` (Theorem 2 ω-margin)
    The closed-form pulse-width bound: a legitimate trigger pulse is
    held by acknowledgement for at least the flip-flop response τ
    (derated by the designed delay spread), so it commits the master
    latch iff ``ω < τ·(1−spread)``.  ``ω ≥ τ`` refutes (the filter
    cannot separate glitches from triggers); a non-positive derated
    margin is ``unknown`` — the static bound cannot decide and the
    Monte-Carlo histogram must.

Soundness over completeness: every discharge is wrapped so an engine
failure yields ``unknown``, never ``proved``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ...core.delays import DelayRequirement
from ...logic.complement import cube_sharp
from ...logic.cover import Cover
from ...logic.tautology import covers_cube
from ...netlist.gates import GateType
from ...netlist.library import DEFAULT_LIBRARY, Library
from ...obs.metrics import get_metrics
from ...obs.trace import trace_span
from ...sg.graph import render_state
from ...sg.regions import Region
from ...sim.mhs import MhsParams
from .obligations import PROVED, REFUTED, UNKNOWN, Certificate, Obligation

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ...core.sop_derivation import SopSpec
    from ...core.synthesizer import NShotCircuit

__all__ = [
    "trigger_obligations",
    "coverage_obligations",
    "disjointness_obligations",
    "delay_obligations",
    "omega_obligations",
    "certify_cover",
    "certify_circuit",
]

#: witness-size cap: long cube lists are truncated to keep certificates
#: readable; the count always records what was dropped
_WITNESS_CUBES = 4

_TOL = 1e-9


def _states(region: Region) -> list[str]:
    return sorted(map(render_state, region.states))


def _guarded(
    fn: Callable[[], Iterable[Obligation]],
    rule: str,
    signal: str,
    kind: str,
) -> list[Obligation]:
    """Discharge one family; a crash becomes ``unknown``, never silence.

    The soundness contract is one-directional: the engine may fail to
    decide, but it must never *claim* a proof it did not finish.
    """
    try:
        return list(fn())
    except Exception as exc:  # noqa: BLE001 - verdict, not crash
        return [
            Obligation(
                rule=rule,
                signal=signal,
                kind=kind,
                subject="obligation family discharge",
                verdict=UNKNOWN,
                witness={"error": f"{type(exc).__name__}: {exc}"},
                detail="engine failure during discharge; falling back to simulation",
            )
        ]


# ----------------------------------------------------------------------
# HZ001 — Theorem 1 trigger-region containment
# ----------------------------------------------------------------------
def trigger_obligations(spec: "SopSpec", cover: Cover) -> list[Obligation]:
    """One obligation per trigger region: covered by a single cube."""
    sg = spec.sg
    out: list[Obligation] = []
    for signal in sg.non_inputs:
        sig_name = sg.signals[signal]
        for kind in ("set", "reset"):
            o = spec.output_index(signal, kind)
            bit = 1 << o
            col = [c for c in cover.cubes if c.outputs & bit]
            direction = 1 if kind == "set" else -1
            sr = spec.regions[signal]
            for er, trs in zip(sr.excitation, sr.triggers):
                if er.direction != direction:
                    continue
                for tr in trs:
                    witness = {
                        "region": tr.label(sg),
                        "states": _states(tr)[:_WITNESS_CUBES],
                    }
                    codes = tr.codes()
                    cube = next(
                        (c for c in col if all(map(c.contains_minterm, codes))),
                        None,
                    )
                    verdict, detail = PROVED, ""
                    if cube is not None:
                        witness["cube"] = cube.input_string()
                    else:
                        witness["uncovered_states"] = sorted(
                            render_state(s)
                            for s in tr.states
                            if not any(c.contains_minterm(sg.code(s)) for c in col)
                        )[:_WITNESS_CUBES]
                        verdict = REFUTED
                        detail = (
                            "no single cube of the column covers the "
                            "region; the trigger pulse may fragment"
                        )
                    out.append(
                        Obligation(
                            rule="HZ001",
                            signal=sig_name,
                            kind=kind,
                            subject=f"trigger region {tr.label(sg)} held by one cube",
                            verdict=verdict,
                            witness=witness,
                            detail=detail,
                        )
                    )
    return out


# ----------------------------------------------------------------------
# HZ002 — static-1 / required-cube coverage
# ----------------------------------------------------------------------
def coverage_obligations(spec: "SopSpec", cover: Cover) -> list[Obligation]:
    """One obligation per ON-set transition cube: held by the column."""
    sg = spec.sg
    out: list[Obligation] = []
    for o in range(spec.num_outputs):
        signal, kind = spec.output_function(o)
        sig_name = sg.signals[signal]
        col = cover.projection(o)
        for cube in spec.on.projection(o).cubes:
            if cube.is_empty():
                continue
            subject = f"ON cube {cube.input_string()} covered by column"
            if covers_cube(col, cube):
                out.append(
                    Obligation(
                        rule="HZ002",
                        signal=sig_name,
                        kind=kind,
                        subject=subject,
                        verdict=PROVED,
                        witness={
                            "cube": cube.input_string(),
                            "column_products": len(col),
                        },
                    )
                )
            else:
                residue = cube_sharp(cube, col)
                out.append(
                    Obligation(
                        rule="HZ002",
                        signal=sig_name,
                        kind=kind,
                        subject=subject,
                        verdict=REFUTED,
                        witness={
                            "cube": cube.input_string(),
                            "uncovered": [
                                r.input_string()
                                for r in residue.cubes[:_WITNESS_CUBES]
                            ],
                            "uncovered_count": len(residue),
                        },
                        detail=(
                            "an excited minterm is outside every product; "
                            "the plane output can drop mid-transition "
                            "(static-1 hazard)"
                        ),
                    )
                )
    return out


# ----------------------------------------------------------------------
# HZ003 — static-0 / OFF-set disjointness
# ----------------------------------------------------------------------
def disjointness_obligations(
    spec: "SopSpec", cover: Cover
) -> list[Obligation]:
    """One obligation per cover product: disjoint from the OFF-set."""
    sg = spec.sg
    out: list[Obligation] = []
    for o in range(spec.num_outputs):
        signal, kind = spec.output_function(o)
        sig_name = sg.signals[signal]
        col = cover.projection(o)
        off = spec.off.projection(o)
        for product in col.cubes:
            if product.is_empty():
                continue
            subject = (
                f"product {product.input_string()} disjoint from OFF-set"
            )
            clash = next(
                (r for r in off.cubes if product.intersects(r)), None
            )
            if clash is None:
                out.append(
                    Obligation(
                        rule="HZ003",
                        signal=sig_name,
                        kind=kind,
                        subject=subject,
                        verdict=PROVED,
                        witness={
                            "product": product.input_string(),
                            "off_cubes": len(off),
                        },
                    )
                )
            else:
                overlap = product.intersect(clash)
                out.append(
                    Obligation(
                        rule="HZ003",
                        signal=sig_name,
                        kind=kind,
                        subject=subject,
                        verdict=REFUTED,
                        witness={
                            "product": product.input_string(),
                            "off_cube": clash.input_string(),
                            "overlap": (
                                overlap.input_string()
                                if overlap is not None
                                else ""
                            ),
                        },
                        detail=(
                            "the product excites inside the OFF-set; the "
                            "plane can fire in the opposite phase "
                            "(static-0 hazard)"
                        ),
                    )
                )
    return out


# ----------------------------------------------------------------------
# HZ004 — Equation (1) per-path delay inequalities
# ----------------------------------------------------------------------
def delay_obligations(
    circuit: "NShotCircuit",
    *,
    library: Library = DEFAULT_LIBRARY,
) -> list[Obligation]:
    """Re-derive Equation (1) per signal and check the implementation.

    The inequality is instantiated from the architecture's plane
    timings (not trusted from the synthesizer's own records); when the
    bound is positive, the netlist must carry ``del_set_…`` and
    ``del_reset_…`` delay lines of at least the required value.
    """
    sg = circuit.sg
    arch = circuit.architecture
    spread = circuit.designed_spread
    tau = _design_tau(circuit)
    delay_gates = {
        g.name: g for g in circuit.netlist.gates if g.type is GateType.DELAY
    }
    out: list[Obligation] = []
    for a in sg.non_inputs:
        sig_name = sg.signals[a]
        set_t = arch.set_timing[a]
        reset_t = arch.reset_timing[a]
        req = DelayRequirement(
            signal_name=sig_name,
            t_set0_w=set_t.worst(library, spread),
            t_res1_f=reset_t.best(library, spread),
            t_res0_w=reset_t.worst(library, spread),
            t_set1_f=set_t.best(library, spread),
            t_mhs_minus=tau,
            t_mhs_plus=tau,
        )
        terms = {
            "t_set0_w": req.t_set0_w,
            "t_res1_f": req.t_res1_f,
            "t_res0_w": req.t_res0_w,
            "t_set1_f": req.t_set1_f,
            "t_mhs": tau,
            "spread": spread,
            "bound": req.bound,
        }
        subject = f"Equation (1): {req.describe()}"
        if not req.compensation_required:
            out.append(
                Obligation(
                    rule="HZ004",
                    signal=sig_name,
                    kind="",
                    subject=subject,
                    verdict=PROVED,
                    witness=dict(terms, compensation_required=False),
                )
            )
            continue
        # compensation required: both enable rails must carry a delay
        # line of at least the bound
        lines = {}
        deficient = []
        for kind in ("set", "reset"):
            gate = delay_gates.get(f"del_{kind}_{sig_name}")
            have = gate.delay if gate is not None and gate.delay else 0.0
            lines[f"del_{kind}"] = have
            if have + _TOL < req.t_del:
                deficient.append(kind)
        if not deficient:
            out.append(
                Obligation(
                    rule="HZ004",
                    signal=sig_name,
                    kind="",
                    subject=subject,
                    verdict=PROVED,
                    witness=dict(
                        terms,
                        compensation_required=True,
                        t_del=req.t_del,
                        **lines,
                    ),
                )
            )
        else:
            out.append(
                Obligation(
                    rule="HZ004",
                    signal=sig_name,
                    kind="",
                    subject=subject,
                    verdict=REFUTED,
                    witness=dict(
                        terms,
                        compensation_required=True,
                        t_del=req.t_del,
                        missing=deficient,
                        **lines,
                    ),
                    detail=(
                        "the trespass bound is positive but the enable "
                        "rail's delay line is missing or shorter than "
                        "required"
                    ),
                )
            )
    return out


# ----------------------------------------------------------------------
# HZ005 — Theorem 2 ω-margin closed form
# ----------------------------------------------------------------------
def omega_obligations(circuit: "NShotCircuit") -> list[Obligation]:
    """The closed-form pulse-width bound, one obligation per signal.

    A legitimate trigger pulse is held by the acknowledgement loop
    until the output fires — at least the flip-flop response τ, derated
    by the designed relative delay spread.  ``ω < τ·(1−spread)`` proves
    the commit; ``ω ≥ τ`` refutes the whole filtering scheme; anything
    between is ``unknown`` (only a measured histogram can decide).
    """
    params = MhsParams()
    w, t = params.omega, params.tau
    spread = circuit.designed_spread
    held = t * (1.0 - spread)
    margin = held - w
    sg = circuit.sg
    out: list[Obligation] = []
    for a in sg.non_inputs:
        sig_name = sg.signals[a]
        subject = (
            f"ω-margin: ω={w:.2f} < τ·(1−spread)={held:.2f}"
        )
        witness = {
            "omega": w,
            "tau": t,
            "spread": spread,
            "held": held,
            "margin": margin,
        }
        if w >= t - _TOL:
            verdict, detail = REFUTED, (
                "ω ≥ τ: the MHS filter cannot separate glitch pulses "
                "from legitimate triggers (Theorem 2 precondition)"
            )
        elif margin > _TOL:
            verdict, detail = PROVED, ""
        else:
            verdict, detail = UNKNOWN, (
                "derated hold time does not clear ω statically; the "
                "measured pulse-width histogram must decide"
            )
        out.append(
            Obligation(
                rule="HZ005",
                signal=sig_name,
                kind="",
                subject=subject,
                verdict=verdict,
                witness=witness,
                detail=detail,
            )
        )
    return out


def _design_tau(circuit: "NShotCircuit") -> float:
    """The Equation-(1) τ the circuit was synthesized with, recovered
    from its recorded requirements (default when none exist)."""
    for req in circuit.delay_requirements.values():
        return req.t_mhs_minus
    return 1.2


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def certify_cover(spec: "SopSpec", cover: Cover) -> list[Obligation]:
    """The cover-level families (HZ001–HZ003) over one spec + cover."""
    out: list[Obligation] = []
    out.extend(_guarded(lambda: trigger_obligations(spec, cover), "HZ001", "", ""))
    out.extend(_guarded(lambda: coverage_obligations(spec, cover), "HZ002", "", ""))
    out.extend(
        _guarded(lambda: disjointness_obligations(spec, cover), "HZ003", "", "")
    )
    return out


def certify_circuit(
    circuit: "NShotCircuit",
    *,
    library: Library = DEFAULT_LIBRARY,
    name: str | None = None,
) -> Certificate:
    """Discharge every obligation family over one synthesized circuit.

    Returns the :class:`Certificate`; ``fully_proved`` on the result is
    the static verdict that licenses skipping Monte-Carlo verification.
    """
    cert = Certificate(
        name=name or circuit.netlist.name,
        method=circuit.method,
        spread=circuit.designed_spread,
        mhs_tau=_design_tau(circuit),
    )
    with trace_span("certify", circuit=cert.name) as sp:
        cert.obligations.extend(certify_cover(circuit.spec, circuit.cover))
        cert.obligations.extend(
            _guarded(
                lambda: delay_obligations(circuit, library=library),
                "HZ004",
                "",
                "",
            )
        )
        cert.obligations.extend(
            _guarded(lambda: omega_obligations(circuit), "HZ005", "", "")
        )
        counts = cert.counts
        sp.set(
            obligations=len(cert.obligations),
            proved=counts[PROVED],
            refuted=counts[REFUTED],
            unknown=counts[UNKNOWN],
        )
    metrics = get_metrics()
    metrics.counter("certify.runs").add(1)
    metrics.counter("certify.obligations").add(len(cert.obligations))
    metrics.counter("certify.refuted").add(cert.counts[REFUTED])
    return cert
