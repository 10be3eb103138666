"""Gate types and netlist cells.

The implementation targets the gate repertoire of the paper's
architecture (Section IV-A):

* ``AND`` gates *with input inversion bubbles* — the paper assumes
  AND-gates with input inversions are available as basic gates
  (footnote 2), so an input literal ``x'`` costs no separate inverter;
* ``OR`` gates for the SOP second level;
* the ``MHSFF`` storage element (master RS latch + hazard filter +
  slave RS latch, Figure 5) modelled as one cell with dual-rail
  outputs ``q``/``qn`` and ``enable-set``/``enable-reset`` gating built
  into the surrounding acknowledgement scheme;
* ``CEL`` (C-element) and ``RSLATCH`` for the baseline architectures;
* ``DELAY`` for matched delay lines (the local compensation of
  Figure 3 and the hazard-masking delays of the SIS/Lavagno baseline);
* ``INV``/``BUF`` utility cells.

A :class:`Gate` drives exactly one output net from a list of input
pins; each pin is ``(net, inverted)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["GateType", "Pin", "Gate"]


class GateType(str, Enum):
    """Cell kinds available to the flows."""

    AND = "and"        # AND with optional per-input inversions
    OR = "or"          # OR (also with optional inversions)
    INV = "inv"
    BUF = "buf"
    DELAY = "delay"    # matched delay line; `delay` attribute in ns
    CEL = "cel"        # Muller C-element (baseline architectures)
    RSLATCH = "rs"     # set/reset latch (baseline architectures)
    MHSFF = "mhsff"    # the paper's MHS flip-flop (behavioural cell)
    QFLOP = "qflop"    # Q-flop synchronizer (Rosenberger et al. [9])
    INPUT = "input"    # primary input pseudo-cell
    CONST = "const"    # constant driver (value attribute)


@dataclass(frozen=True, slots=True)
class Pin:
    """An input connection: a net name plus an inversion bubble flag."""

    net: str
    inverted: bool = False

    def __str__(self) -> str:
        return ("~" if self.inverted else "") + self.net


@dataclass
class Gate:
    """One netlist cell instance.

    Attributes
    ----------
    name:
        Unique instance name.
    type:
        The :class:`GateType`.
    inputs:
        Ordered input pins.  For ``MHSFF`` the convention is
        ``[set, reset]``; for ``RSLATCH`` likewise; for ``CEL`` all
        inputs are symmetric.
    output:
        The driven net.  ``MHSFF`` and ``RSLATCH`` additionally drive
        ``output_n`` (the dual rail).
    delay:
        Nominal propagation delay in ns (library default when None).
    attrs:
        Free-form attributes (e.g. ``{"value": 1}`` for CONST,
        ``{"init": 0}`` for sequential cells).
    """

    name: str
    type: GateType
    inputs: list[Pin] = field(default_factory=list)
    output: str = ""
    output_n: str | None = None
    delay: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def is_sequential(self) -> bool:
        return self.type in (
            GateType.MHSFF,
            GateType.CEL,
            GateType.RSLATCH,
            GateType.QFLOP,
        )

    def describe(self) -> str:
        ins = ", ".join(str(p) for p in self.inputs)
        extra = f" / {self.output_n}" if self.output_n else ""
        return f"{self.name}: {self.type.value}({ins}) -> {self.output}{extra}"
