"""PLA text format I/O (Berkeley ESPRESSO ``.pla`` dialect).

Supports the subset of the format needed here: ``.i``, ``.o``, ``.ilb``,
``.ob``, ``.p``, ``.type fr``, product-term rows with ``0/1/-`` input
parts and ``0/1/-~`` output parts, and ``.e``.  The ON/DC/OFF split of
an ``fr``-type PLA maps exactly onto the (F, D, R) triples the
region-derivation procedure produces, so this module doubles as the
interchange format between the synthesis flow and external tools or
test fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cover import Cover
from .cube import Cube

__all__ = ["Pla", "parse_pla", "write_pla"]


@dataclass
class Pla:
    """A parsed PLA: ON/DC/OFF covers plus port names."""

    num_inputs: int
    num_outputs: int
    on: Cover = field(default=None)  # type: ignore[assignment]
    dc: Cover = field(default=None)  # type: ignore[assignment]
    off: Cover = field(default=None)  # type: ignore[assignment]
    input_names: list[str] = field(default_factory=list)
    output_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.on is None:
            self.on = Cover.empty(self.num_inputs, self.num_outputs)
        if self.dc is None:
            self.dc = Cover.empty(self.num_inputs, self.num_outputs)
        if self.off is None:
            self.off = Cover.empty(self.num_inputs, self.num_outputs)
        if not self.input_names:
            self.input_names = [f"x{i}" for i in range(self.num_inputs)]
        if not self.output_names:
            self.output_names = [f"f{i}" for i in range(self.num_outputs)]


def parse_pla(text: str) -> Pla:
    """Parse PLA text into ON/DC/OFF covers.

    Output-part characters: ``1`` (or ``4``) ON, ``0`` OFF-by-default
    (ignored for the row), ``-``/``2`` don't care, ``~`` not specified.
    Rows therefore contribute, per output, to the cover named by the
    character — exactly the ``fr``/``fd`` semantics of ESPRESSO.
    """
    num_inputs = num_outputs = None
    input_names: list[str] = []
    output_names: list[str] = []
    rows: list[tuple[str, str]] = []
    pla_type = "fd"
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            if key == ".i":
                num_inputs = int(parts[1])
            elif key == ".o":
                num_outputs = int(parts[1])
            elif key == ".ilb":
                input_names = parts[1:]
            elif key == ".ob":
                output_names = parts[1:]
            elif key == ".type":
                pla_type = parts[1]
            elif key in (".p", ".e", ".end"):
                continue
            continue
        parts = line.split()
        if len(parts) == 2:
            rows.append((parts[0], parts[1]))
        elif len(parts) == 1 and num_inputs is not None:
            rows.append((parts[0][:num_inputs], parts[0][num_inputs:]))
    if num_inputs is None or num_outputs is None:
        raise ValueError("PLA text missing .i/.o declarations")

    pla = Pla(num_inputs, num_outputs, input_names=input_names, output_names=output_names)
    for inp, outp in rows:
        on_bits = dc_bits = off_bits = 0
        for o, ch in enumerate(outp):
            if ch in "14":
                on_bits |= 1 << o
            elif ch in "-2":
                dc_bits |= 1 << o
            elif ch == "0":
                if pla_type in ("fr", "f"):
                    off_bits |= 1 << o
        if on_bits:
            pla.on.add(Cube.from_string(inp, on_bits))
        if dc_bits:
            pla.dc.add(Cube.from_string(inp, dc_bits))
        if off_bits:
            pla.off.add(Cube.from_string(inp, off_bits))
    return pla


def write_pla(
    on: Cover,
    input_names: list[str] | None = None,
    output_names: list[str] | None = None,
) -> str:
    """Serialize an ON-set cover as ``fd``-type PLA text."""
    n, m = on.num_inputs, on.num_outputs
    lines = [f".i {n}", f".o {m}"]
    if input_names:
        lines.append(".ilb " + " ".join(input_names))
    if output_names:
        lines.append(".ob " + " ".join(output_names))
    lines.append(".type fd")
    body = [f"{c.input_string()} {c.output_string(m)}" for c in on.cubes]
    lines.append(f".p {len(body)}")
    lines.extend(body)
    lines.append(".e")
    return "\n".join(lines) + "\n"
