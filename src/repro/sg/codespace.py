"""The code space of a state graph whose states each have their own code.

Vlad (PAPERS.md: arXiv cs/0110062, cs/0110060) reads an asynchronous
automaton as a map Φ: {0,1}ⁿ → {0,1}ⁿ on code vectors.  When every
state of a graph has its own code and every arc flips its own signal's
bit the right way, the graph *is* that map.  A set of states is then a
2ⁿ-bit integer indexed by code (bit ``c`` = the state coded ``c``),
and the arcs of signal ``b`` leaving a set are a shift by 2^b of the
set's ``b``-excited part.  :class:`CodeSpace` holds such a graph's
per-signal excitation bitmaps, so whole-graph questions become a few
big-integer operations per signal instead of a loop over the states:

* the region bitsets of :func:`repro.sg.regions.signal_regions`
  (sinks, the backward sweep and the QR union, as bitmap floods);
* the set/reset covers of :func:`repro.sg.encoding.bits_to_covers`,
  by a Shannon split of a code bitmap;
* the emptiness test in front of
  :func:`repro.sg.properties.semimodularity_violations`.

:func:`code_space` decides once per graph whether it qualifies: codes
unique (:func:`unique_codes`), at most :data:`MAX_CODE_SIGNALS` signals,
and codes that agree with the arcs (:func:`arcs_agree`).  Graphs that
do not qualify keep the per-state paths.  Each verdict is memoized on the
graph's :class:`~repro.sg.graph.SpecAnalysis`, so a graph whose codes
are edited behind its back must be edited before it is first analysed.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, repeat
from operator import and_, invert, itemgetter, or_, xor
from typing import Callable, Iterable, Sequence

from ..logic.cover import MAX_CODE_SIGNALS, code_halves, merge_halves
from .graph import DenseGraph, StateGraph, bit_flags
from .regions import _DIGITS, _columns

__all__ = [
    "MAX_CODE_SIGNALS",
    "CodeSpace",
    "arcs_agree",
    "bitmap_cover",
    "code_bitmap",
    "code_space",
    "unique_codes",
]

def unique_codes(sg: StateGraph) -> bool:
    """True when no two states share a binary code (memoized on ``sg``)."""
    memo = sg.analysis()
    if memo.unique_codes is None:
        codes = sg.dense().codes
        memo.unique_codes = len(set(codes)) == len(codes)
    return memo.unique_codes


def arcs_agree(sg: StateGraph) -> bool:
    """True when every arc flips exactly its own signal's bit, from 0
    for a rising and from 1 for a falling transition: the consistent
    state assignment of Section III-A (memoized on ``sg``)."""
    memo = sg.analysis()
    if memo.arcs_agree is None:
        view = sg.dense()
        codes, nxt, n = view.codes, view.nxt, view.num_signals
        ok = (
            not any(map(and_, view.up, codes))
            and not any(map(and_, view.down, map(invert, codes)))
            # one arc per (state, signal), so ``nxt`` holds every arc
            and len(nxt) - nxt.count(-1) == len(view.arc_src)
        )
        # per arc of ``a``, the code of its end against its start's code
        # with the bit of ``a`` flipped
        for a, starts in enumerate(excited_columns(view, list(range(n))) if ok else ()):
            flags = bit_flags(starts)
            ends = list(compress(nxt[a::n], flags))
            flipped = tuple(map(xor, compress(codes, flags), repeat(1 << a)))
            if ends and _pick(ends)(codes) != flipped:
                ok = False
                break
        memo.arcs_agree = ok
    return memo.arcs_agree


def code_space(sg: StateGraph) -> "CodeSpace | None":
    """The :class:`CodeSpace` of ``sg``, or None when its codes are
    shared, wider than :data:`MAX_CODE_SIGNALS` or disagree with its
    arcs (memoized on ``sg``)."""
    memo = sg.analysis()
    if memo.code_space is None:
        ok = 0 < sg.num_states and sg.num_signals <= MAX_CODE_SIGNALS
        memo.code_space = ok and unique_codes(sg) and arcs_agree(sg) and CodeSpace(sg.dense())
    return memo.code_space or None


def code_bitmap(codes: Iterable[int], n: int) -> int:
    """The bitmap (bit ``c`` = code ``c``) of some codes of ``n`` bits."""
    flags = bytearray(1 << n)
    for c in codes:
        flags[c] = 1
    return int(flags.translate(_DIGITS[0])[::-1], 2)


def _pick(indices: list[int]) -> Callable[[Sequence], tuple]:
    """A function taking a sequence ``f`` to the tuple of ``f[i]`` for
    ``i`` in ``indices`` (at least one)."""
    if len(indices) == 1:
        (i,) = indices
        return lambda f: (f[i],)
    return itemgetter(*indices)


def _renumber(bitsets: list[int], width: int, move: Callable[[bytes], bytes]) -> list[int]:
    """Bitsets over one numbering (``width`` positions) as bitsets over
    another, where ``move`` takes one byte per old position to one byte
    per new position.  Eight bitsets share each move: bitset ``j`` of a
    group is bit ``j`` of a byte."""
    out = []
    for k in range(0, len(bitsets), 8):
        group = bitsets[k : k + 8]
        packed = 0
        for j, bits in enumerate(group):
            packed |= int.from_bytes(bit_flags(bits), "little") << j
        moved = move(packed.to_bytes(width, "little"))
        out += [int(moved.translate(_DIGITS[j])[::-1], 2) for j in range(len(group))]
    return out


def excited_columns(view: DenseGraph, signals: list[int]) -> list[int]:
    """Per signal, the bitset of the state numbers where it is excited."""
    n = view.num_signals
    return list(map(or_, _columns(view.up, n, signals), _columns(view.down, n, signals)))


def bitmap_cover(bitmap: int, num_inputs: int, memo: dict | None = None) -> list[int]:
    """The input masks, sorted, of
    :func:`~repro.logic.cover.compact_minterm_cover`'s cubes
    for the minterms set in ``bitmap`` (bit ``m`` = minterm ``m``).

    The same split, on the bitmap itself: the half of a sub-space where
    the top variable is 0 is its low bits, the other its high bits.
    ``memo`` maps (variables, sub-bitmap) to that sub-space's cubes;
    pass one dict to several calls to share it.
    """
    if memo is None:
        memo = {}
    full = [(1 << (1 << k)) - 1 for k in range(num_inputs + 1)]
    return sorted(_split_bitmap(bitmap, num_inputs, full, memo)) if bitmap else []


def _split_bitmap(y: int, k: int, full: list[int], memo: dict) -> frozenset[int]:
    """The cubes of the nonzero bitmap ``y`` over variables 0..k-1 (see
    :func:`bitmap_cover`); ``full[k]`` is the bitmap of all 2^k codes."""
    if y == full[k]:
        return frozenset(((1 << 2 * k) - 1,))
    got = memo.get((k, y))
    if got is None:
        low, high = y & full[k - 1], y >> (1 << (k - 1))
        lo = _split_bitmap(low, k - 1, full, memo) if low else frozenset()
        hi = _split_bitmap(high, k - 1, full, memo) if high else frozenset()
        got = memo[k, y] = merge_halves(lo, hi, k - 1)
    return got


class CodeSpace:
    """A graph with one state per code, read in code space.

    Attributes
    ----------
    n:
        Number of signals (code bits).
    used:
        The bitmap of the codes of the graph's states.
    excited:
        Per signal, the bitmap of the codes of its states where that
        signal is excited (in either direction: the code fixes which).
    """

    __slots__ = (
        "n", "used", "excited", "_zeros", "_ones", "_rise", "_fall",
        "_risen", "_fallen", "_codes",
    )

    def __init__(self, view: DenseGraph) -> None:
        n = self.n = view.num_signals
        codes = self._codes = view.codes
        # per code, the excited signals of its state and bit n for "used"
        rows = [0] * (1 << n)
        hot = map(or_, map(or_, view.up, view.down), repeat(1 << n))
        deque(map(rows.__setitem__, codes, hot), maxlen=0)
        *self.excited, self.used = _columns(rows, n + 1, range(n + 1))
        zeros, ones = self._zeros, self._ones = code_halves(n)
        # the codes where each signal rises / falls, and the codes those arcs enter
        self._rise = [x & z for x, z in zip(self.excited, zeros)]
        self._fall = [x & o for x, o in zip(self.excited, ones)]
        self._risen = [r << (1 << b) for b, r in enumerate(self._rise)]
        self._fallen = [f >> (1 << b) for b, f in enumerate(self._fall)]

    def flip(self, b: int, y: int) -> int:
        """The codes of ``y`` with bit ``b`` flipped."""
        shift = 1 << b
        return (y & self._ones[b]) >> shift | (y & self._zeros[b]) << shift

    def pre(self, b: int, y: int) -> int:
        """The codes whose arc of signal ``b`` enters ``y``."""
        shift = 1 << b
        return (y & self._risen[b]) >> shift | (y & self._fallen[b]) << shift

    def post(self, b: int, y: int) -> int:
        """The codes the arcs of signal ``b`` leaving ``y`` enter."""
        shift = 1 << b
        return (y & self._rise[b]) << shift | (y & self._fall[b]) >> shift

    def region_columns(self, view: DenseGraph, signals: list[int]) -> dict[int, tuple[int, ...]]:
        """The bitsets :func:`repro.sg.regions._mask_columns` gives, per
        signal (its ones, ER membership, sinks, the backward sweep and
        the QR union), computed here and renumbered to states at once."""
        out = []
        for a in signals:
            x = self.excited[a]
            quiet = self.used & ~x
            held = 0  # the ER codes with an arc of another signal staying in the ER
            for b in range(self.n):
                if b != a:
                    held |= self.pre(b, x)
            sink = x & ~held
            reach = self.flood(sink, x, self.pre, a)
            # the ER exits of ``a`` where it is stable, then onward while it stays so
            qr = self.flood(self.flip(a, x) & quiet, quiet, self.post, a)
            out += (sink, reach, qr)
        out = iter(self.to_states(out))
        return {
            a: (code, x, next(out), next(out), next(out))
            for a, code, x in zip(
                signals, _columns(view.codes, self.n, signals), excited_columns(view, signals)
            )
        }

    def to_states(self, bitmaps: list[int]) -> list[int]:
        """Code bitmaps as bitsets over the graph's state numbers."""
        pick = _pick(self._codes)
        return _renumber(bitmaps, 1 << self.n, lambda flags: bytes(pick(flags)))

    def to_codes(self, bitsets: list[int]) -> list[int]:
        """Bitsets over the graph's state numbers as code bitmaps."""
        codes = self._codes
        # the state of each code; a code no state has reads the zero byte
        # appended past the last state
        slot = [len(codes)] * (1 << self.n)
        deque(map(slot.__setitem__, codes, range(len(codes))), maxlen=0)
        pick = _pick(slot)
        return _renumber(bitsets, len(codes) + 1, lambda flags: bytes(pick(flags)))

    def semimodular(self, non_inputs: Iterable[int]) -> bool:
        """Definition 2 as an emptiness test: no code where a non-input
        ``a`` and another signal ``b`` are both excited and firing one
        disables the other.  With one state per code the two
        interleavings of ``a`` and ``b`` end in one code, so one state:
        a disabled transition is the only way to fail."""
        excited = self.excited
        for a in non_inputs:
            xa = excited[a]
            for b, xb in enumerate(excited):
                both = xa & xb
                if b != a and both & ~(self.flip(b, xa) & self.flip(a, xb)):
                    return False
        return True

    def flood(self, start: int, within: int, step: Callable[[int, int], int], skip: int) -> int:
        """The least superset of ``start`` closed under ``step`` by every
        signal but ``skip``, kept inside ``within``.  Each sweep steps by
        one signal after another from all that is reached so far, and
        the next sweep takes the signals in the reverse order, so a path
        needs a sweep only where its signals turn back in that order."""
        total = start
        signals = [b for b in range(self.n) if b != skip]
        while True:
            before = total
            for b in signals:
                total |= step(b, total) & within
            if total == before:
                return total
            signals.reverse()
