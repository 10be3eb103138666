"""Positional-cube representation for multi-output two-level logic.

A *cube* is a product term over ``n`` binary input variables together
with a multi-output part.  We use the classical positional-cube
notation of ESPRESSO [Rudell 89]:

* each input variable occupies a 2-bit field inside a single Python
  integer bitmask (``inputs``):

  ====== ================== =========================
  field  literal             meaning
  ====== ================== =========================
  ``01``  ``x'``             variable must be 0
  ``10``  ``x``              variable must be 1
  ``11``  (absent)           don't care / full
  ``00``  (empty)            contradictory — empty cube
  ====== ================== =========================

* the output part (``outputs``) has one bit per output function;
  bit ``o`` set means the product term feeds output ``o``.

This encoding makes the core cube operations cheap bit twiddles:

* containment      — ``a ⊆ b`` iff ``a & b == a`` field-wise,
* intersection     — bitwise AND (empty if any input field becomes
  ``00`` or the output part becomes ``0``),
* supercube        — bitwise OR.

All cubes are immutable; operations return new cubes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Cube",
    "full_input_mask",
    "input_field",
    "minterm_mask",
    "spread_bits",
    "LIT_ZERO",
    "LIT_ONE",
    "LIT_DC",
    "LIT_EMPTY",
]

#: 2-bit field values for one input variable.
LIT_ZERO = 0b01   # literal x' : variable fixed to 0
LIT_ONE = 0b10    # literal x  : variable fixed to 1
LIT_DC = 0b11     # don't care : variable absent from the product
LIT_EMPTY = 0b00  # contradiction : empty cube

_FIELD_CHARS = {LIT_EMPTY: "#", LIT_ZERO: "0", LIT_ONE: "1", LIT_DC: "-"}


def full_input_mask(num_inputs: int) -> int:
    """Bitmask with every input field set to don't-care (``11``)."""
    return (1 << (2 * num_inputs)) - 1


def input_field(mask: int, var: int) -> int:
    """Extract the 2-bit field of variable ``var`` from ``mask``."""
    return (mask >> (2 * var)) & 0b11


def spread_bits(bits: int) -> int:
    """Move bit ``i`` of ``bits`` to bit ``2i``, the low bit of variable
    ``i``'s field (the binary digits read as base-4 digits)."""
    return int(format(bits, "b"), 4)


def minterm_mask(minterm: int, num_inputs: int) -> int:
    """Positional mask of a minterm: field ``10`` where bit ``i`` of
    ``minterm`` is 1 and ``01`` where it is 0."""
    full = (1 << num_inputs) - 1
    return spread_bits(minterm & full) << 1 | spread_bits(~minterm & full)


@dataclass(frozen=True, slots=True)
class Cube:
    """An immutable product term with a multi-output part.

    Attributes
    ----------
    num_inputs:
        Number of binary input variables.
    inputs:
        Positional bitmask, 2 bits per variable (see module docstring).
    outputs:
        Output-part bitmask, one bit per output function.  For
        single-output covers this is simply ``1``.
    """

    num_inputs: int
    inputs: int
    outputs: int = 1

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def full(num_inputs: int, outputs: int = 1) -> "Cube":
        """The universal cube (tautology product) over ``num_inputs``."""
        return Cube(num_inputs, full_input_mask(num_inputs), outputs)

    @staticmethod
    def from_minterm(minterm: int, num_inputs: int) -> "Cube":
        """Build the single-output cube of a minterm given as an integer.

        Bit ``i`` of ``minterm`` is the value of variable ``i``.
        """
        return Cube(num_inputs, minterm_mask(minterm, num_inputs))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def literal(self, var: int) -> int:
        """The 2-bit field of input variable ``var``."""
        return input_field(self.inputs, var)

    def is_empty(self) -> bool:
        """True when the cube denotes no minterm/output pair at all."""
        if self.outputs == 0:
            return True
        m = self.inputs
        for _ in range(self.num_inputs):
            if m & 0b11 == LIT_EMPTY:
                return True
            m >>= 2
        return False

    def is_full_inputs(self) -> bool:
        """True when every input variable is don't care."""
        return self.inputs == full_input_mask(self.num_inputs)

    def num_literals(self) -> int:
        """Number of input literals (variables not don't care)."""
        count = 0
        m = self.inputs
        for _ in range(self.num_inputs):
            if m & 0b11 in (LIT_ZERO, LIT_ONE):
                count += 1
            m >>= 2
        return count

    def fixed_vars(self) -> list[int]:
        """Indices of input variables bound to a value in this cube."""
        out = []
        m = self.inputs
        for var in range(self.num_inputs):
            if m & 0b11 in (LIT_ZERO, LIT_ONE):
                out.append(var)
            m >>= 2
        return out

    def free_vars(self) -> list[int]:
        """Indices of input variables that are don't care."""
        out = []
        m = self.inputs
        for var in range(self.num_inputs):
            if m & 0b11 == LIT_DC:
                out.append(var)
            m >>= 2
        return out

    def output_list(self) -> list[int]:
        """Indices of outputs this cube feeds."""
        out = []
        o, i = self.outputs, 0
        while o:
            if o & 1:
                out.append(i)
            o >>= 1
            i += 1
        return out

    def size(self) -> int:
        """Number of minterms covered in the input space (per output)."""
        return 1 << len(self.free_vars())

    # ------------------------------------------------------------------
    # relations
    # ------------------------------------------------------------------
    def contains(self, other: "Cube") -> bool:
        """True when this cube covers ``other`` entirely (inputs and outputs)."""
        return (
            (other.inputs & self.inputs) == other.inputs
            and (other.outputs & self.outputs) == other.outputs
        )

    def contains_minterm(self, minterm: int) -> bool:
        """True when the cube covers the integer-encoded minterm."""
        m = self.inputs
        for var in range(self.num_inputs):
            bit = (minterm >> var) & 1
            field = m & 0b11
            if not (field >> bit) & 1:
                return False
            m >>= 2
        return True

    def intersect(self, other: "Cube") -> "Cube | None":
        """Cube intersection; ``None`` when the cubes are disjoint."""
        inputs = self.inputs & other.inputs
        outputs = self.outputs & other.outputs
        c = Cube(self.num_inputs, inputs, outputs)
        return None if c.is_empty() else c

    def intersects(self, other: "Cube") -> bool:
        """True when the cubes share at least one minterm/output pair."""
        if not (self.outputs & other.outputs):
            return False
        m = self.inputs & other.inputs
        for _ in range(self.num_inputs):
            if m & 0b11 == LIT_EMPTY:
                return False
            m >>= 2
        return True

    def distance(self, other: "Cube") -> int:
        """Number of input variables in which the cubes conflict.

        Distance 0 means the input parts intersect; distance 1 enables
        consensus.
        """
        m = self.inputs & other.inputs
        d = 0
        for _ in range(self.num_inputs):
            if m & 0b11 == LIT_EMPTY:
                d += 1
            m >>= 2
        return d

    # ------------------------------------------------------------------
    # construction of derived cubes
    # ------------------------------------------------------------------
    def supercube(self, other: "Cube") -> "Cube":
        """Smallest cube containing both operands."""
        return Cube(
            self.num_inputs, self.inputs | other.inputs, self.outputs | other.outputs
        )

    def with_literal(self, var: int, field: int) -> "Cube":
        """Return a copy with variable ``var`` set to the given 2-bit field."""
        shift = 2 * var
        cleared = self.inputs & ~(0b11 << shift)
        return Cube(self.num_inputs, cleared | (field << shift), self.outputs)

    def raise_var(self, var: int) -> "Cube":
        """Return a copy with variable ``var`` raised to don't care."""
        return self.with_literal(var, LIT_DC)

    def with_outputs(self, outputs: int) -> "Cube":
        """Return a copy with the given output part."""
        return Cube(self.num_inputs, self.inputs, outputs)

    def consensus(self, other: "Cube") -> "Cube | None":
        """Consensus (resolvent) of two cubes, ``None`` when undefined.

        Defined for input distance exactly 1 (classic single-variable
        consensus) with overlapping output parts, or distance 0 where it
        degenerates to the intersection-like merge used by iterated
        consensus prime generation.
        """
        outputs = self.outputs & other.outputs
        if not outputs:
            return None
        d = self.distance(other)
        if d > 1:
            return None
        if d == 0:
            c = Cube(self.num_inputs, self.inputs & other.inputs, outputs)
            return None if c.is_empty() else c
        # distance 1: raise the single conflicting variable
        merged = self.inputs & other.inputs
        result = 0
        sm, om, mm = self.inputs, other.inputs, merged
        for var in range(self.num_inputs):
            if mm & 0b11 == LIT_EMPTY:
                field = LIT_DC
            else:
                field = (sm & 0b11) & (om & 0b11)
            result |= field << (2 * var)
            sm >>= 2
            om >>= 2
            mm >>= 2
        c = Cube(self.num_inputs, result, outputs)
        return None if c.is_empty() else c

    def minterms(self) -> Iterator[int]:
        """Yield the integer-encoded input minterms covered by the cube."""
        free = self.free_vars()
        base = 0
        m = self.inputs
        for var in range(self.num_inputs):
            if m & 0b11 == LIT_ONE:
                base |= 1 << var
            m >>= 2
        for combo in range(1 << len(free)):
            mt = base
            for i, var in enumerate(free):
                if (combo >> i) & 1:
                    mt |= 1 << var
            yield mt

    # ------------------------------------------------------------------
    # formatting
    # ------------------------------------------------------------------
    def input_string(self) -> str:
        """ESPRESSO-style input-part string, e.g. ``"1-0"``."""
        chars = []
        m = self.inputs
        for _ in range(self.num_inputs):
            chars.append(_FIELD_CHARS[m & 0b11])
            m >>= 2
        return "".join(chars)

    def output_string(self, num_outputs: int) -> str:
        """ESPRESSO-style output-part string, e.g. ``"101"``."""
        return "".join(
            "1" if (self.outputs >> o) & 1 else "0" for o in range(num_outputs)
        )

    def to_expression(self, names: Sequence[str] | None = None) -> str:
        """Human-readable product term such as ``"a b' c"``.

        The universal cube renders as ``"1"``.
        """
        if names is None:
            names = [f"x{i}" for i in range(self.num_inputs)]
        parts = []
        m = self.inputs
        for var in range(self.num_inputs):
            field = m & 0b11
            if field == LIT_ONE:
                parts.append(names[var])
            elif field == LIT_ZERO:
                parts.append(names[var] + "'")
            elif field == LIT_EMPTY:
                return "0"
            m >>= 2
        return " ".join(parts) if parts else "1"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.input_string()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cube({self.input_string()!r}, outputs={bin(self.outputs)})"


def supercube_of(cubes: Iterable[Cube]) -> Cube | None:
    """Smallest cube containing all the given cubes; ``None`` if empty."""
    result: Cube | None = None
    for c in cubes:
        result = c if result is None else result.supercube(c)
    return result
