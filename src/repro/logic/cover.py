"""Covers: sets of cubes representing multi-output two-level logic.

A :class:`Cover` is an ordered collection of :class:`~repro.logic.cube.Cube`
objects sharing the same number of input variables and output
functions.  It provides the set-algebraic operations that the
minimization algorithms (tautology, complement, ESPRESSO loop, exact
covering) are built on, and the one reading of a cube as a 2ⁿ-bit code
bitmap (:func:`cube_codes`) that the ESPRESSO loop, ``verify_cover``
and the code space of :mod:`repro.sg.codespace` share.

Multi-output semantics follow ESPRESSO: a cube with output part
``outputs`` asserts its product term for every output whose bit is
set.  A cover *covers* a (cube, output) pair when the projection of the
cover onto that output covers the cube's input part.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Iterator, Sequence

from ..obs import get_metrics
from .cube import LIT_DC, LIT_ONE, LIT_ZERO, Cube, supercube_of

__all__ = ["Cover", "compact_minterm_cover"]

#: the widest cover whose code space is enumerated: beyond it a 2ⁿ-bit
#: set of codes costs more than the cubes or states it stands for
MAX_CODE_SIGNALS = 16


@dataclass
class Cover:
    """An ordered set of cubes over a common input/output signature."""

    num_inputs: int
    num_outputs: int = 1
    cubes: list[Cube] = field(default_factory=list)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty(num_inputs: int, num_outputs: int = 1) -> "Cover":
        """The empty cover (constant 0 for every output)."""
        return Cover(num_inputs, num_outputs, [])

    @staticmethod
    def universe(num_inputs: int, num_outputs: int = 1) -> "Cover":
        """The tautology cover (constant 1 for every output)."""
        all_out = (1 << num_outputs) - 1
        return Cover(num_inputs, num_outputs, [Cube.full(num_inputs, all_out)])

    @staticmethod
    def from_minterms(minterms: Iterable[int], num_inputs: int) -> "Cover":
        """Build a single-output cover of single-minterm cubes."""
        return Cover(num_inputs, 1, [Cube.from_minterm(m, num_inputs) for m in minterms])

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __getitem__(self, i: int) -> Cube:
        return self.cubes[i]

    def copy(self) -> "Cover":
        """Shallow copy (cubes are immutable, so this is sufficient)."""
        return Cover(self.num_inputs, self.num_outputs, list(self.cubes))

    def add(self, cube: Cube) -> None:
        """Append a cube to the cover."""
        self.cubes.append(cube)

    def is_empty(self) -> bool:
        """True when the cover contains no non-empty cube."""
        return all(c.is_empty() for c in self.cubes)

    # ------------------------------------------------------------------
    # cost metrics
    # ------------------------------------------------------------------
    def num_literals(self) -> int:
        """Total number of input literals over all cubes."""
        return sum(c.num_literals() for c in self.cubes)

    def cost(self) -> tuple[int, int]:
        """Minimization cost: (number of cubes, number of literals)."""
        return (len(self.cubes), self.num_literals())

    # ------------------------------------------------------------------
    # projections and simple rewrites
    # ------------------------------------------------------------------
    def projection(self, output: int) -> "Cover":
        """Single-output projection: cubes feeding ``output``."""
        bit = 1 << output
        cubes = [c.with_outputs(1) for c in self.cubes if c.outputs & bit]
        return Cover(self.num_inputs, 1, cubes)

    def restrict_outputs(self, mask: int) -> "Cover":
        """Keep only the output-part bits in ``mask``; drop empty cubes."""
        cubes = []
        for c in self.cubes:
            o = c.outputs & mask
            if o:
                cubes.append(c.with_outputs(o))
        return Cover(self.num_inputs, self.num_outputs, cubes)

    def drop_empty(self) -> "Cover":
        """Remove empty cubes."""
        return Cover(
            self.num_inputs, self.num_outputs, [c for c in self.cubes if not c.is_empty()]
        )

    def single_cube_containment(self) -> "Cover":
        """Remove cubes contained in another single cube of the cover.

        This is the cheap ``sccc`` cleanup pass of ESPRESSO, not the
        full irredundant computation.
        """
        get_metrics().counter("cover.cube_ops").add(len(self.cubes))
        kept: list[Cube] = []
        # Sort by decreasing size so that big cubes absorb small ones.
        order = sorted(self.cubes, key=lambda c: (-len(c.free_vars()), -c.outputs.bit_count()))
        for c in order:
            if c.is_empty():
                continue
            container = None
            for k in kept:
                if k.contains(c):
                    container = k
                    break
            if container is None:
                # c may still be partially absorbed on the output part
                kept.append(c)
        return Cover(self.num_inputs, self.num_outputs, kept)

    # ------------------------------------------------------------------
    # semantic queries
    # ------------------------------------------------------------------
    def contains_minterm(self, minterm: int, output: int = 0) -> bool:
        """True when some cube feeding ``output`` covers the minterm."""
        bit = 1 << output
        return any(
            (c.outputs & bit) and c.contains_minterm(minterm) for c in self.cubes
        )

    def intersects_cube(self, cube: Cube) -> bool:
        """True when any cube of the cover intersects ``cube``."""
        return any(c.intersects(cube) for c in self.cubes)

    def supercube(self) -> Cube | None:
        """Smallest cube containing the whole cover (``None`` if empty)."""
        return supercube_of(self.cubes)

    def minterms(self, output: int = 0) -> set[int]:
        """Explicit minterm set of one output (exponential; small covers)."""
        bit = 1 << output
        out: set[int] = set()
        for c in self.cubes:
            if c.outputs & bit:
                out.update(c.minterms())
        return out

    # ------------------------------------------------------------------
    # formatting
    # ------------------------------------------------------------------
    def to_strings(self) -> list[str]:
        """ESPRESSO-style rows (input part, space, output part)."""
        return [
            f"{c.input_string()} {c.output_string(self.num_outputs)}" for c in self.cubes
        ]

    def to_expression(self, names: Sequence[str] | None = None) -> str:
        """Human-readable SOP expression for the first output."""
        terms = [c.to_expression(names) for c in self.cubes if c.outputs & 1]
        if not terms:
            return "0"
        return " + ".join(terms)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "\n".join(self.to_strings())


def compact_minterm_cover(minterms: set[int], num_inputs: int) -> Cover:
    """Build a compact (not minimal) single-output cube cover of a
    minterm set.

    Recursive Shannon construction: a sub-space entirely inside the set
    becomes one cube; otherwise split on the next variable (MSB first,
    which aligns with how state codes cluster) and merge the halves as
    they return: a cube both halves hold gets the variable raised, the
    others its literal.  That is a Quine–McCluskey merge of twin cubes
    done where it applies, since no cube of one sub-space is the twin
    of a cube of another, and it repairs patterns misaligned with the
    recursion order (e.g. parity-like sets aligned on low-order
    variables).  Exact and fast — used to keep region covers small
    before minimization when state graphs have thousands of states.
    The sub-spaces are slices of the sorted minterms, halved by
    bisection; :func:`repro.sg.codespace.bitmap_cover` splits a bitmap
    instead.
    """
    ms = sorted(set(minterms))
    masks = sorted(_split_sorted(ms, 0, len(ms), num_inputs, 0)) if ms else []
    return Cover(num_inputs, 1, [Cube(num_inputs, m, 1) for m in masks])


def cube_codes(inputs: int, n: int) -> int:
    """The codes in a cube's input part, as a bitset over the ``2**n``
    codes (bit ``x`` = code ``x``): built one variable at a time,
    doubling the set where the variable is free and shifting it where
    the variable is 1."""
    bits = 1
    for v in range(n):
        field = inputs >> (2 * v) & LIT_DC
        if field == LIT_DC:
            bits |= bits << (1 << v)
        elif field == LIT_ONE:
            bits <<= 1 << v
        elif field != LIT_ZERO:
            return 0  # an empty cube
    return bits


def output_codes(cubes: Iterable[Cube], n: int) -> defaultdict[int, int]:
    """Per output, the codes (:func:`cube_codes`) of the cubes feeding
    it, reading each distinct input part once."""
    feeds: defaultdict[int, int] = defaultdict(int)  # input part -> outputs fed
    for c in cubes:
        feeds[c.inputs] |= c.outputs
    out: defaultdict[int, int] = defaultdict(int)
    for inputs, outputs in feeds.items():
        bits = cube_codes(inputs, n)
        while outputs:
            low = outputs & -outputs
            out[low.bit_length() - 1] |= bits
            outputs ^= low
    return out


@cache
def code_halves(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per variable ``v``, the bitsets of the ``n``-bit codes with bit
    ``v`` clear and with it set."""
    size = 1 << n
    full = (1 << size) - 1
    ones = []
    for v in range(n):
        block = ((1 << (1 << v)) - 1) << (1 << v)
        ones.append(full // ((1 << (2 << v)) - 1) * block)
    return tuple(full & ~o for o in ones), tuple(ones)


def merge_halves(lo: frozenset[int], hi: frozenset[int], var: int) -> frozenset[int]:
    """The cubes of a sub-space from those of its halves where ``var``
    is 0 (``lo``) and 1 (``hi``)."""
    shift = 2 * var
    both = lo & hi
    return frozenset(
        [m | LIT_DC << shift for m in both]
        + [m | LIT_ZERO << shift for m in lo - both]
        + [m | LIT_ONE << shift for m in hi - both]
    )


def _split_sorted(ms: list[int], lo: int, hi: int, k: int, base: int) -> frozenset[int]:
    """The cubes of the minterms ``ms[lo:hi]`` (nonempty), which agree
    with ``base`` on every variable from ``k`` up."""
    if hi - lo == 1 << k:
        return frozenset(((1 << 2 * k) - 1,))
    top = base | 1 << (k - 1)
    mid = bisect_left(ms, top, lo, hi)
    low = _split_sorted(ms, lo, mid, k - 1, base) if lo < mid else frozenset()
    high = _split_sorted(ms, mid, hi, k - 1, top) if mid < hi else frozenset()
    return merge_halves(low, high, k - 1)
