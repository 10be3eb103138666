"""Netlist-level structural rules and the static Equation-(1) audit.

These run in the ``NETLIST`` scope, over either a netlist synthesized
on demand from the context's SG (the ``repro lint`` flow) or a
pre-built netlist handed to the context directly (post-hoc audits,
tests).

* **NL001** — combinational loops outside the sanctioned feedback:
  every feedback path of the N-SHOT architecture (plane → MHS
  flip-flop → enable rail → plane) crosses a sequential cell or an
  explicit ``cut`` buffer, so any purely combinational cycle is a
  wiring bug that would also break the delay model.
* **NL002/NL003** — dangling-net audit: undriven gate inputs and
  primary outputs (errors), driven nets nobody reads (warnings).
* **NL004/NL005** — MHS wiring and acknowledgement-scheme shape: the
  flip-flop must be dual-rail with exactly ``[set, reset]`` inputs and
  a 0/1 ``init``; each plane's ack gate must be gated by the correct
  enable rail (``qn`` for set, ``q`` for reset), possibly through the
  Equation-(1) delay line.
* **NL006** — fanout audit beyond :data:`FANOUT_LIMIT`.
* **DL001** — Equation (1) evaluated at the context's delay spread:
  a positive bound means the architecture needs the local delay line.
"""

from __future__ import annotations

from typing import Iterator

from ..netlist.gates import Gate, GateType
from ..netlist.netlist import Netlist
from .context import LintContext
from .diagnostics import Diagnostic, Severity
from .registry import RuleMeta, Scope, rule

__all__: list[str] = []

#: NL006's bound on the gate inputs one net may drive
FANOUT_LIMIT = 32


def _is_path_break(g: Gate) -> bool:
    """True for cells that legitimately break combinational paths."""
    return g.is_sequential or bool(g.attrs.get("cut"))


@rule(
    "NL001",
    title="Combinational loop",
    severity=Severity.ERROR,
    scope=Scope.NETLIST,
    paper="Figure 3 (all feedback crosses the MHS flip-flop)",
)
def check_combinational_loops(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """A cycle of combinational gates with no sequential cell or cut
    buffer on it — outside the sanctioned MHS/ack feedback."""
    nl = ctx.require_netlist()
    # DFS over combinational gates; an edge runs from the driver of a
    # gate's input net to the gate itself.
    color: dict[int, int] = {}  # gate index -> 0 visiting / 1 done
    index = {id(g): i for i, g in enumerate(nl.gates)}
    reported: set[frozenset[str]] = set()

    def comb_preds(g: Gate) -> list[Gate]:
        out = []
        for p in g.inputs:
            drv = nl.driver(p.net)
            if drv is not None and not _is_path_break(drv):
                out.append(drv)
        return out

    stack_names: list[str] = []

    def visit(g: Gate) -> Iterator[frozenset[str]]:
        i = index[id(g)]
        if color.get(i) == 1:
            return
        if color.get(i) == 0:
            cycle = frozenset(stack_names[stack_names.index(g.name) :])
            yield cycle
            return
        color[i] = 0
        stack_names.append(g.name)
        for pred in comb_preds(g):
            yield from visit(pred)
        stack_names.pop()
        color[i] = 1

    for g in nl.gates:
        if _is_path_break(g):
            continue
        for cycle in visit(g):
            if cycle in reported:
                continue
            reported.add(cycle)
            yield meta.diagnostic(
                f"combinational cycle through gates "
                f"{{{', '.join(sorted(cycle))}}} with no sequential cell "
                f"or cut buffer on the path",
                ctx.location("gate", sorted(cycle)[0]),
                hint=(
                    "feedback must cross the MHS flip-flop (or carry an "
                    "explicit cut attribute, like baseline output buffers)"
                ),
                gates=tuple(sorted(cycle)),
            )


@rule(
    "NL002",
    title="Undriven net",
    severity=Severity.ERROR,
    scope=Scope.NETLIST,
)
def check_undriven_nets(ctx: LintContext, meta: RuleMeta) -> Iterator[Diagnostic]:
    """A gate input or primary output with no driver."""
    nl = ctx.require_netlist()
    driven = set(nl.primary_inputs)
    driven.update(n for g in nl.gates for n in (g.output, g.output_n) if n)
    seen: set[str] = set()
    for g in nl.gates:
        for p in g.inputs:
            if p.net not in driven and p.net not in seen:
                seen.add(p.net)
                yield meta.diagnostic(
                    f"net {p.net!r} read by gate {g.name} has no driver",
                    ctx.location("net", p.net),
                    net=p.net,
                )
    for po in nl.primary_outputs:
        if po not in driven and po not in seen:
            seen.add(po)
            yield meta.diagnostic(
                f"primary output {po!r} has no driver",
                ctx.location("net", po),
                net=po,
            )


@rule(
    "NL003",
    title="Dangling net",
    severity=Severity.WARNING,
    scope=Scope.NETLIST,
)
def check_dangling_nets(ctx: LintContext, meta: RuleMeta) -> Iterator[Diagnostic]:
    """A driven net that no gate reads and that is not a primary
    output: dead logic left behind by an incomplete edit."""
    nl = ctx.require_netlist()
    read = {p.net for g in nl.gates for p in g.inputs}
    read.update(nl.primary_outputs)
    for g in nl.gates:
        for net in (g.output, g.output_n):
            if net and net not in read:
                yield meta.diagnostic(
                    f"net {net!r} driven by gate {g.name} is never read",
                    ctx.location("net", net),
                    hint="remove the gate or connect its output",
                    net=net,
                )


@rule(
    "NL004",
    title="Malformed MHS flip-flop wiring",
    severity=Severity.ERROR,
    scope=Scope.NETLIST,
    paper="Figure 5 (MHS flip-flop)",
)
def check_mhs_shape(ctx: LintContext, meta: RuleMeta) -> Iterator[Diagnostic]:
    """An MHSFF cell without the ``[set, reset]`` input pair, the dual
    ``q``/``qn`` rails, or a binary ``init`` attribute."""
    nl = ctx.require_netlist()
    for g in nl.gates:
        if g.type is not GateType.MHSFF:
            continue
        loc = ctx.location("gate", g.name)
        if len(g.inputs) != 2:
            yield meta.diagnostic(
                f"MHS flip-flop {g.name} has {len(g.inputs)} inputs "
                f"(needs exactly [set, reset])",
                loc,
                gate=g.name,
            )
        if not g.output or not g.output_n:
            yield meta.diagnostic(
                f"MHS flip-flop {g.name} is not dual-rail "
                f"(q={g.output!r}, qn={g.output_n!r})",
                loc,
                gate=g.name,
            )
        elif g.output == g.output_n:
            yield meta.diagnostic(
                f"MHS flip-flop {g.name} drives the same net on both rails",
                loc,
                gate=g.name,
            )
        if g.attrs.get("init") not in (0, 1):
            yield meta.diagnostic(
                f"MHS flip-flop {g.name} has no binary init attribute "
                f"(got {g.attrs.get('init')!r})",
                loc,
                hint="analyze_initialization assigns the SG initial value",
                gate=g.name,
            )


def _enable_sources(nl: Netlist, net: str) -> set[str]:
    """Nets feeding ``net`` directly or through DELAY/BUF cells."""
    out = {net}
    drv = nl.driver(net)
    while drv is not None and drv.type in (GateType.DELAY, GateType.BUF):
        if not drv.inputs:
            break
        net = drv.inputs[0].net
        out.add(net)
        drv = nl.driver(net)
    return out


@rule(
    "NL005",
    title="Acknowledgement scheme shape",
    severity=Severity.ERROR,
    scope=Scope.NETLIST,
    paper="Section IV-C (acknowledgement scheme)",
)
def check_ack_scheme(ctx: LintContext, meta: RuleMeta) -> Iterator[Diagnostic]:
    """The set (reset) plane of an MHS flip-flop must be gated by the
    ``qn`` (``q``) enable rail, possibly through a delay line —
    otherwise pulses can trespass into the opposite operation phase."""
    nl = ctx.require_netlist()
    for g in nl.gates:
        if g.type is not GateType.MHSFF or len(g.inputs) != 2:
            continue
        rails = {"set": g.output_n, "reset": g.output}
        for pin, kind in zip(g.inputs, ("set", "reset")):
            drv = nl.driver(pin.net)
            if drv is None:
                continue  # NL002's problem
            if drv.type is GateType.CONST:
                continue  # constant-0 plane never excites: no ack needed
            rail = rails[kind]
            ok = drv.type is GateType.AND and any(
                rail in _enable_sources(nl, p.net) for p in drv.inputs
            )
            if not ok:
                yield meta.diagnostic(
                    f"{kind} input of {g.name} is driven by {drv.name} "
                    f"({drv.type.value}) without the {kind}-enable rail "
                    f"{rail!r} on the gate",
                    ctx.location("gate", g.name),
                    hint=(
                        "the plane output must pass through an AND gated "
                        "by the opposite-rail enable (Figure 3)"
                    ),
                    gate=g.name,
                    kind=kind,
                )


@rule(
    "NL006",
    title="Excessive fanout",
    severity=Severity.WARNING,
    scope=Scope.NETLIST,
)
def check_fanout(ctx: LintContext, meta: RuleMeta) -> Iterator[Diagnostic]:
    """A net fanning out to more than :data:`FANOUT_LIMIT` gates —
    the equal-gate-delay model underlying Equation (1) stops being
    credible under heavy loading."""
    nl = ctx.require_netlist()
    readers: dict[str, int] = {}
    for g in nl.gates:
        for p in g.inputs:
            readers[p.net] = readers.get(p.net, 0) + 1
    for net, count in sorted(readers.items()):
        if count > FANOUT_LIMIT:
            yield meta.diagnostic(
                f"net {net!r} fans out to {count} gate inputs "
                f"(limit {FANOUT_LIMIT})",
                ctx.location("net", net),
                hint="buffer the net",
                net=net,
                fanout=count,
            )


@rule(
    "DL001",
    title="Delay compensation required",
    severity=Severity.WARNING,
    scope=Scope.NETLIST,
    paper="Equation (1), Section IV-C",
)
def check_delay_requirement(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """Equation (1) evaluated at the configured gate-delay spread is
    positive for a signal: the architecture must insert the parallel
    local delay line (the paper reports this never fired on its
    benchmarks at the nominal bound)."""
    if ctx.sg is None or ctx.has_own_netlist:
        return  # needs the synthesized plane timings
    circuit = ctx.require_circuit()
    for req in circuit.delay_requirements.values():
        if req.compensation_required:
            yield meta.diagnostic(
                f"Equation (1) positive at spread ±{ctx.spread:.0%}: "
                + req.describe(),
                ctx.location("signal", req.signal_name),
                hint=(
                    "the delay line sits off the critical path (Figure 3); "
                    "re-check the library spread assumption if unexpected"
                ),
                requirement=req,
            )
