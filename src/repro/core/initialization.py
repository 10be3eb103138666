"""MHS flip-flop initialization analysis — Section IV-F.

For each non-input signal ``a`` with initial state ``s0``:

* ``s0 ∈ ER(+a) ∪ QR(+a)`` → the flip-flop must start (or will
  immediately drive itself) at 1; an explicit reset term is needed
  only when ``s0 ∈ QR(+a)`` **and** the set function evaluates to 0 at
  ``s0`` (the don't-care was resolved to 0, so nothing would restore
  the value after power-up);
* symmetric for the reset side;
* otherwise the flip-flop initializes automatically through the
  normal set/reset planes.

The analysis yields, per signal, the initial value and whether an
explicit initialization input ("reset product term at one output of
the master RS latch") is required.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic import Cover
from .sop_derivation import SopSpec

__all__ = ["InitDecision", "analyze_initialization"]


@dataclass(frozen=True)
class InitDecision:
    """Initialization verdict for one non-input signal."""

    signal: int
    name: str
    initial_value: int
    region: str  # which region s0 lies in, for diagnostics
    explicit_reset_required: bool
    reason: str

    def describe(self) -> str:
        need = "explicit init required" if self.explicit_reset_required else "auto"
        return f"{self.name}: init={self.initial_value} (s0 in {self.region}; {need} — {self.reason})"


def analyze_initialization(spec: SopSpec, cover: Cover) -> dict[int, InitDecision]:
    """Classify every non-input signal per Section IV-F.

    ``cover`` is the final minimized multi-output cover (the analysis
    must look at the *implemented* set/reset functions, since don't
    cares may have been resolved either way).
    """
    sg = spec.sg
    s0, code0 = sg.initial_number, sg.initial_code
    out: dict[int, InitDecision] = {}
    for a in sg.non_inputs:
        name = sg.signals[a]
        sr = spec.regions[a]
        init_val = code0 >> a & 1
        set_o = spec.output_index(a, "set")
        reset_o = spec.output_index(a, "reset")
        set_val = int(cover.contains_minterm(code0, set_o))
        reset_val = int(cover.contains_minterm(code0, reset_o))

        up_er, dn_er, up_qr, dn_qr = (
            sr.union_bits(kind, direction) >> s0 & 1
            for kind, direction in (("ER", 1), ("ER", -1), ("QR", 1), ("QR", -1))
        )
        if up_er:
            region, required, why = "ER(+a)", False, "set plane drives 1 at power-up"
        elif dn_er:
            region, required, why = "ER(-a)", False, "reset plane drives 0 at power-up"
        elif up_qr:
            region = "QR(+a)"
            required = set_val == 0
            why = (
                "set(s0)=0: nothing restores q=1"
                if required
                else "set(s0)=1 restores q=1 automatically"
            )
        elif dn_qr:
            region = "QR(-a)"
            required = reset_val == 0
            why = (
                "reset(s0)=0: nothing restores q=0"
                if required
                else "reset(s0)=1 restores q=0 automatically"
            )
        else:
            # signal never transitions from s0's side; hold its value
            region, required = "none", True
            why = "signal has no regions containing s0; hold by explicit init"
        out[a] = InitDecision(a, name, init_val, region, required, why)
    return out
