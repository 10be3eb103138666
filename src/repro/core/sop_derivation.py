"""Deriving set/reset SOP specifications from SG regions.

Implements the five-step procedure of Section IV-A.  For a non-input
signal ``a``:

* **Set function**: ON-set ``F = ∪ ER(+a_i)``, don't-care set
  ``D = ∪ QR(+a_i) ∪ unreachable codes``, OFF-set
  ``R = ∪ ER(-a_i) ∪ ∪ QR(-a_i)``.
* **Reset function**: the mirror image.

The correspondence with the MHS flip-flop's operation modes is the
paper's Table 1, reproduced by :func:`region_mode_table`.

All set and reset functions of all non-input signals are packed into a
single multi-output cover, so the minimizer may share product terms
between them ("including the sharing of product terms (AND-gates)
between different functions").  One function's (F, D, R) is the
projection of the three covers on its output
(``spec.on.projection(o)`` and so on), cube for cube.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..logic import Cover
from ..obs import trace_span
from ..sg.encoding import bits_to_covers, unreachable_cover
from ..sg.graph import StateGraph
from ..sg.regions import SignalRegions, signal_regions

__all__ = [
    "SopSpec",
    "derive_sop_spec",
    "region_mode_table",
    "ModeRow",
]


@dataclass
class SopSpec:
    """The complete multi-output minimization problem of an SG.

    Output order: ``set(a0), reset(a0), set(a1), reset(a1), …`` over
    the non-input signals in index order; one function's (F, D, R) is
    the projection of ``on``, ``dc`` and ``off`` on its output.
    ``regions`` keeps the per-signal region decomposition, computed on
    ``sg``, for later trigger-cube checks and initialization analysis;
    a pickle holds ``sg`` once, with the regions as bitsets over it.
    """

    sg: StateGraph
    on: Cover
    dc: Cover
    off: Cover
    regions: dict[int, SignalRegions] = field(default_factory=dict)

    @property
    def num_outputs(self) -> int:
        return 2 * len(self.sg.non_inputs)

    def output_index(self, signal: int, kind: str) -> int:
        """Column of one function in the multi-output cover."""
        pos = self.sg.non_inputs.index(signal)
        return 2 * pos + (0 if kind == "set" else 1)

    def output_function(self, index: int) -> tuple[int, str]:
        """The ``(signal, kind)`` of one column of the multi-output cover."""
        return self.sg.non_inputs[index // 2], ("set", "reset")[index % 2]

    def output_name(self, index: int) -> str:
        signal, kind = self.output_function(index)
        return f"{kind}_{self.sg.signals[signal]}"


def derive_sop_spec(
    sg: StateGraph, regions: dict[int, SignalRegions] | None = None
) -> SopSpec:
    """Build the multi-output (F, D, R) problem for a whole SG.

    Follows Section IV-A exactly; the unreachable binary codes join
    every function's don't-care set (step 3).  ``regions`` may supply
    the per-signal region analyses of ``sg``, computed by the caller outside
    this function's ``sop-derivation`` span (the pipeline's
    ``sop-derivation`` stage does); by default they are read from
    ``sg``'s memo.
    """
    non_inputs = sg.non_inputs
    m = 2 * len(non_inputs)
    n = sg.num_signals
    on = Cover.empty(n, m)
    dc = Cover.empty(n, m)
    off = Cover.empty(n, m)
    spec = SopSpec(sg, on, dc, off)

    with trace_span("sop-derivation", signals=len(non_inputs), outputs=m) as _sp:
        if regions is None:
            regions = {a: signal_regions(sg, a) for a in non_inputs}
        spec.regions = regions
        unreachable = unreachable_cover(sg)
        _derive_functions(sg, spec, unreachable)
        _sp.set(on_cubes=len(on), dc_cubes=len(dc), off_cubes=len(off))
    return spec


def _derive_functions(
    sg: StateGraph,
    spec: SopSpec,
    unreachable: Cover,
) -> None:
    on, dc, off = spec.on, spec.dc, spec.off
    # per signal and kind, the (F, D, R) state bitsets
    triples = []
    for signal in sg.non_inputs:
        sr = spec.regions[signal]
        up_er = sr.union_bits("ER", 1)
        up_qr = sr.union_bits("QR", 1)
        dn_er = sr.union_bits("ER", -1)
        dn_qr = sr.union_bits("QR", -1)
        triples.append((signal, "set", up_er, up_qr, dn_er | dn_qr))
        triples.append((signal, "reset", dn_er, dn_qr, up_er | up_qr))
    covers = iter(bits_to_covers(sg, [bits for t in triples for bits in t[2:]]))
    for signal, kind, *_bits in triples:
        o = spec.output_index(signal, kind)
        bit = 1 << o
        f_cover, d_cover, r_cover = next(covers), next(covers), next(covers)
        for c in f_cover.cubes:
            on.add(c.with_outputs(bit))
        for c in d_cover.cubes:
            dc.add(c.with_outputs(bit))
        for c in unreachable.cubes:
            dc.add(c.with_outputs(bit))
        for c in r_cover.cubes:
            off.add(c.with_outputs(bit))


@dataclass(frozen=True)
class ModeRow:
    """One row of the paper's Table 1 for a concrete state."""

    state: object
    region: str  # "ER(+a)", "QR(+a)", "ER(-a)", "QR(-a)", "unreachable"
    set_value: str  # "0", "1" or "*"
    reset_value: str
    mode: str  # "+a", "a = 1", "-a", "a = 0", "memory"


def region_mode_table(sg: StateGraph, signal: int) -> list[ModeRow]:
    """Reproduce Table 1: region ↔ SET/RESET levels ↔ MHS mode.

    Enumerates every reachable state of the SG, classifies it into the
    signal's region structure and emits the specified SET/RESET values
    and the flip-flop operation mode.
    """
    name = sg.signals[signal]
    sr = signal_regions(sg, signal)
    view = sg.dense()
    up_er, up_qr, dn_er, dn_qr = (
        view.flags(sr.union_bits(kind, direction))
        for kind, direction in (("ER", 1), ("QR", 1), ("ER", -1), ("QR", -1))
    )
    rows: list[ModeRow] = []
    for i, s in enumerate(view.ids):
        if up_er[i]:
            rows.append(ModeRow(s, f"ER(+{name})", "1", "0", f"+{name}"))
        elif up_qr[i]:
            rows.append(ModeRow(s, f"QR(+{name})", "*", "0", f"{name} = 1"))
        elif dn_er[i]:
            rows.append(ModeRow(s, f"ER(-{name})", "0", "1", f"-{name}"))
        elif dn_qr[i]:
            rows.append(ModeRow(s, f"QR(-{name})", "0", "*", f"{name} = 0"))
        else:
            rows.append(ModeRow(s, "unreachable", "*", "*", "memory"))
    return rows
