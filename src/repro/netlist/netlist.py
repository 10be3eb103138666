"""Gate-level netlist container with area/delay reporting.

A :class:`Netlist` is a set of :class:`~repro.netlist.gates.Gate`
instances connected by named nets, plus primary input/output
declarations.  It provides:

* structural queries (driver of a net, fanout),
* area accounting against a :class:`~repro.netlist.library.Library`,
* critical-path delay — the longest register-to-register /
  input-to-output path counting each traversed cell's delay, with
  sequential cells (MHS flip-flop, C-element, RS latch) terminating
  and sourcing paths.  This reproduces the paper's "delay" column:
  levels × 1.2 ns along the worst path through the SOP planes into the
  storage element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .gates import Gate, GateType
from .library import DEFAULT_LIBRARY, Library

__all__ = ["Netlist", "NetlistError", "NetlistStats"]


class NetlistError(ValueError):
    """Raised on structural problems (multiple drivers, dangling nets)."""


@dataclass
class NetlistStats:
    """Summary produced by :meth:`Netlist.stats`."""

    area: float
    delay: float
    num_gates: int
    num_literals: int
    num_sequential: int

    def row(self) -> str:
        return f"{self.area:.0f}/{self.delay:.1f}"


class Netlist:
    """A named collection of gates with primary I/O."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.gates: list[Gate] = []
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []
        self._driver: dict[str, Gate] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def fresh_net(self, prefix: str = "n") -> str:
        """Allocate a fresh unique net name."""
        self._counter += 1
        return f"{prefix}{self._counter}"

    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self._driver:
            raise NetlistError(f"net {net!r} already driven")
        if net not in self.primary_inputs:
            self.primary_inputs.append(net)
        return net

    def add_output(self, net: str) -> str:
        """Declare a primary output net (must be driven eventually)."""
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)
        return net

    def add(self, gate: Gate) -> Gate:
        """Insert a gate, enforcing single drivers."""
        for out in filter(None, (gate.output, gate.output_n)):
            if out in self._driver:
                raise NetlistError(f"net {out!r} has multiple drivers")
            if out in self.primary_inputs:
                raise NetlistError(f"gate drives primary input {out!r}")
            self._driver[out] = gate
        self.gates.append(gate)
        return gate

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def driver(self, net: str) -> Gate | None:
        """The gate driving a net (None for primary inputs)."""
        return self._driver.get(net)

    def nets(self) -> set[str]:
        """All net names appearing in the netlist."""
        out = set(self.primary_inputs) | set(self.primary_outputs)
        for g in self.gates:
            out.update(p.net for p in g.inputs)
            if g.output:
                out.add(g.output)
            if g.output_n:
                out.add(g.output_n)
        return out

    def fanout(self, net: str) -> list[Gate]:
        """Gates reading a net."""
        return [g for g in self.gates if any(p.net == net for p in g.inputs)]

    def validate(self) -> list[str]:
        """Structural lint: undriven nets, dangling outputs."""
        problems = []
        driven = set(self.primary_inputs) | set(self._driver)
        for g in self.gates:
            for p in g.inputs:
                if p.net not in driven:
                    problems.append(f"gate {g.name}: input net {p.net!r} undriven")
        for po in self.primary_outputs:
            if po not in driven:
                problems.append(f"primary output {po!r} undriven")
        return problems

    def sequential_gates(self) -> list[Gate]:
        return [g for g in self.gates if g.is_sequential]

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def area(self, library: Library = DEFAULT_LIBRARY) -> float:
        """Total cell area."""
        return sum(library.gate_area(g) for g in self.gates)

    def num_literals(self) -> int:
        """Total input pins of AND/OR gates (SOP literal count proxy)."""
        return sum(
            len(g.inputs)
            for g in self.gates
            if g.type in (GateType.AND, GateType.OR)
        )

    def critical_path(self, library: Library = DEFAULT_LIBRARY) -> float:
        """Longest path delay in ns.

        Paths start at primary inputs and at sequential-cell outputs,
        and end at primary outputs and sequential-cell inputs; a
        sequential cell's own delay is charged once at the path end
        (the response of the storage element, τ in Figure 4).
        Combinational cycles (there are none in the architectures
        built here; feedback always crosses a sequential cell) raise
        :class:`NetlistError`.
        """
        memo: dict[str, float] = {}
        visiting: set[str] = set()

        def arrival(net: str) -> float:
            """Latest arrival time at a net."""
            if net in memo:
                return memo[net]
            g = self._driver.get(net)
            if g is None:
                memo[net] = 0.0  # primary input
                return 0.0
            if g.is_sequential or g.attrs.get("cut"):
                # sequential outputs (and explicit feedback cuts, e.g. the
                # output buffer of a combinational-feedback baseline)
                # source a new path
                memo[net] = 0.0
                return 0.0
            if net in visiting:
                raise NetlistError(f"combinational cycle through net {net!r}")
            visiting.add(net)
            ins = [arrival(p.net) for p in g.inputs] or [0.0]
            val = max(ins) + library.gate_delay(g)
            visiting.discard(net)
            memo[net] = val
            return val

        worst = 0.0
        for g in self.gates:
            if g.is_sequential or g.attrs.get("cut"):
                ins = [arrival(p.net) for p in g.inputs] or [0.0]
                worst = max(worst, max(ins) + library.gate_delay(g))
        for po in self.primary_outputs:
            worst = max(worst, arrival(po))
        return worst

    def critical_path_trace(self) -> list[tuple[str, float]]:
        """The worst path as (gate name, arrival at its output) pairs.

        Follows the same path rules as :meth:`critical_path`; the list
        runs from the path's first gate to its endpoint (the sequential
        cell or primary output that closes it).  Useful for explaining
        a Table 2 delay cell: e.g. ``and → or → ack → mhs``.
        """
        library = DEFAULT_LIBRARY
        memo: dict[str, tuple[float, list[tuple[str, float]]]] = {}

        def arrival(net: str) -> tuple[float, list[tuple[str, float]]]:
            if net in memo:
                return memo[net]
            g = self._driver.get(net)
            if g is None or g.is_sequential or g.attrs.get("cut"):
                memo[net] = (0.0, [])
                return memo[net]
            best = (0.0, [])
            for p in g.inputs:
                cand = arrival(p.net)
                if cand[0] >= best[0]:
                    best = cand
            t = best[0] + library.gate_delay(g)
            memo[net] = (t, best[1] + [(g.name, t)])
            return memo[net]

        worst: tuple[float, list[tuple[str, float]]] = (0.0, [])
        for g in self.gates:
            if g.is_sequential or g.attrs.get("cut"):
                for p in g.inputs:
                    t0, path = arrival(p.net)
                    t = t0 + library.gate_delay(g)
                    if t > worst[0]:
                        worst = (t, path + [(g.name, t)])
        for po in self.primary_outputs:
            t, path = arrival(po)
            if t > worst[0]:
                worst = (t, path)
        return worst[1]

    def stats(self, library: Library = DEFAULT_LIBRARY) -> NetlistStats:
        """Area/delay/count summary (the Table 2 row for this circuit)."""
        return NetlistStats(
            area=self.area(library),
            delay=self.critical_path(library),
            num_gates=len(self.gates),
            num_literals=self.num_literals(),
            num_sequential=len(self.sequential_gates()),
        )

    # ------------------------------------------------------------------
    # formatting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"netlist {self.name}: {len(self.gates)} gates",
            f"  inputs:  {', '.join(self.primary_inputs)}",
            f"  outputs: {', '.join(self.primary_outputs)}",
        ]
        lines.extend("  " + g.describe() for g in self.gates)
        return "\n".join(lines)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Netlist({self.name!r}, {len(self.gates)} gates)"
