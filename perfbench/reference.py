"""Independent output checks.

Nothing here runs repro's elaboration, synthesis or PLA code.  The
state space of an STG comes from a plain breadth-first token game over
``Stg.pre``/``Stg.post``/``Stg.initial_marking``; an SG input is read
arc by arc.  PLA text is parsed and evaluated by the functions below
against the excitation semantics of the set/reset functions:

* ``a`` excited up: set = 1 and reset = 0;
* ``a`` excited down: reset = 1 and set = 0;
* ``a`` stable at 1: reset = 0;
* ``a`` stable at 0: set = 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class ReferenceSG:
    """The reachable states of a spec as (code, excitation) pairs.

    ``states[k] = (code, {signal index: +1 or -1})``, where the dict
    holds the excited non-input signals of state ``k`` and bit ``i`` of
    ``code`` is the value of ``signals[i]``.
    """

    signals: list[str]
    inputs: frozenset[str]
    states: list[tuple[int, dict[int, int]]]

    @property
    def num_states(self) -> int:
        return len(self.states)


def stg_reference(stg) -> ReferenceSG:
    """Token game over an STG, tracking (marking, flipped signals) pairs.

    A signal's initial value follows from any firing of it: a rising
    transition fires from 0, so its initial value equals the number of
    earlier flips modulo 2.  Conflicting evidence means the STG has no
    consistent coding.
    """
    signals = list(stg.signals)
    index = {s: i for i, s in enumerate(signals)}
    moves = [
        (frozenset(stg.pre[t]), frozenset(stg.post[t]), index[t.signal], t.direction)
        for t in stg.transitions
    ]
    start = (frozenset(stg.initial_marking), 0)
    seen = {start}
    queue = deque([start])
    explored: list[tuple[int, list[tuple[int, int]]]] = []
    implied: dict[int, set[int]] = {
        index[s]: {v} for s, v in stg.initial_values.items()
    }
    while queue:
        marking, flips = queue.popleft()
        enabled = []
        for pre, post, sig, direction in moves:
            if pre <= marking:
                enabled.append((sig, direction))
                parity = (flips >> sig) & 1
                implied.setdefault(sig, set()).add(
                    parity if direction == 1 else 1 - parity
                )
                nxt = ((marking - pre) | post, flips ^ (1 << sig))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        explored.append((flips, enabled))
    initial = 0
    for sig, values in implied.items():
        if len(values) > 1:
            raise ValueError(
                f"{stg.name}: signal {signals[sig]} has no consistent initial value"
            )
        if values == {1}:
            initial |= 1 << sig
    inputs = frozenset(stg.input_signals)
    return ReferenceSG(
        signals,
        inputs,
        [
            (
                initial ^ flips,
                {sig: d for sig, d in enabled if signals[sig] not in inputs},
            )
            for flips, enabled in explored
        ],
    )


def sg_reference(sg) -> ReferenceSG:
    """The states of an SG input reachable from its initial state."""
    seen = {sg.initial}
    queue = deque([sg.initial])
    states = []
    while queue:
        s = queue.popleft()
        excited = {}
        for t, d in sg.successors(s):
            if t.signal not in sg.inputs:
                excited[t.signal] = t.direction
            if d not in seen:
                seen.add(d)
                queue.append(d)
        states.append((sg.code(s), excited))
    return ReferenceSG(
        list(sg.signals),
        frozenset(sg.signals[i] for i in sg.inputs),
        states,
    )


def spec_reference(spec) -> ReferenceSG:
    """Reference state space of one :class:`specs.Spec`."""
    return stg_reference(spec.obj) if spec.kind == "stg" else sg_reference(spec.obj)


@dataclass
class Pla:
    inputs: list[str]
    outputs: list[str]
    rows: list[tuple[str, str]]


def parse_pla(text: str) -> Pla:
    """Parse ``fd``-type PLA text; raise ``ValueError`` on malformed text."""
    ni = no = declared_rows = None
    inputs: list[str] = []
    outputs: list[str] = []
    rows: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == ".i":
            ni = int(parts[1])
        elif key == ".o":
            no = int(parts[1])
        elif key == ".ilb":
            inputs = parts[1:]
        elif key == ".ob":
            outputs = parts[1:]
        elif key == ".p":
            declared_rows = int(parts[1])
        elif key.startswith("."):
            continue
        elif len(parts) == 2:
            rows.append((parts[0], parts[1]))
        else:
            raise ValueError(f"bad PLA row {line!r}")
    if ni is None or no is None:
        raise ValueError("PLA text lacks .i/.o")
    if len(inputs) != ni or len(outputs) != no:
        raise ValueError("PLA .ilb/.ob do not match .i/.o")
    if declared_rows is not None and declared_rows != len(rows):
        raise ValueError(f"PLA declares {declared_rows} rows but has {len(rows)}")
    for inp, out in rows:
        if len(inp) != ni or len(out) != no:
            raise ValueError(f"PLA row {inp} {out} does not match .i/.o")
    return Pla(inputs, outputs, rows)


def pla_violations(text: str, ref: ReferenceSG, limit: int = 3) -> list[str]:
    """Problems found evaluating the PLA on every reference state."""
    try:
        pla = parse_pla(text)
    except ValueError as e:
        return [f"malformed PLA: {e}"]
    index = {s: i for i, s in enumerate(ref.signals)}
    if sorted(pla.inputs) != sorted(ref.signals):
        return [f"PLA inputs {pla.inputs} are not the spec's signals {ref.signals}"]
    column = {name: o for o, name in enumerate(pla.outputs)}
    non_inputs = [i for i, s in enumerate(ref.signals) if s not in ref.inputs]
    try:
        cols = {
            a: (column[f"set_{ref.signals[a]}"], column[f"reset_{ref.signals[a]}"])
            for a in non_inputs
        }
    except KeyError as e:
        return [f"PLA lacks output column {e.args[0]}"]
    rows = []
    for inp, out in pla.rows:
        care = value = 0
        for name, ch in zip(pla.inputs, inp):
            bit = 1 << index[name]
            if ch == "1":
                care |= bit
                value |= bit
            elif ch == "0":
                care |= bit
            elif ch not in "-2x":
                return [f"bad PLA input character {ch!r}"]
        mask = sum(1 << o for o, ch in enumerate(out) if ch in "14")
        rows.append((care, value, mask))
    problems: list[str] = []
    violations = 0
    for code, excited in ref.states:
        on = 0
        for care, value, mask in rows:
            if code & care == value:
                on |= mask
        for a in non_inputs:
            s_col, r_col = cols[a]
            set_on = (on >> s_col) & 1
            reset_on = (on >> r_col) & 1
            direction = excited.get(a)
            if direction == 1:
                ok = set_on and not reset_on
            elif direction == -1:
                ok = reset_on and not set_on
            elif (code >> a) & 1:
                ok = not reset_on
            else:
                ok = not set_on
            if not ok:
                violations += 1
                if len(problems) < limit:
                    problems.append(
                        f"code {code:0{len(ref.signals)}b}: {ref.signals[a]} "
                        f"excitation {direction} but set={set_on} reset={reset_on}"
                    )
    if violations > limit:
        problems.append(f"... {violations} violations in all")
    return problems


def job_problems(outcome: dict, ref: ReferenceSG, expected_states: int | None) -> list[str]:
    """Every reason to count one job as failed; empty when it passed.

    ``outcome`` carries ``error`` (None when the job ran), ``states``
    (the program's SG state count), ``pla`` (PLA text) and ``proved``
    (``Certificate.fully_proved``, or None where the job certifies
    nothing, as the CLI's ``synth`` does).
    """
    if outcome.get("error"):
        return [outcome["error"]]
    problems = []
    if expected_states is not None and ref.num_states != expected_states:
        problems.append(
            f"token game found {ref.num_states} states, closed form says {expected_states}"
        )
    if outcome["states"] != ref.num_states:
        problems.append(
            f"program reports {outcome['states']} states, token game {ref.num_states}"
        )
    if outcome.get("proved") is False:
        problems.append("certificate not fully proved")
    problems += pla_violations(outcome["pla"], ref)
    return problems


class Checker:
    """Checks every job of one workload and counts the failures."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._refs: dict[str, tuple[ReferenceSG, int | None]] = {}

    def check(self, outcome: dict) -> bool:
        """Check one job's outcome; True when it passed."""
        if not self._refs:
            from specs import workload_specs

            for spec in workload_specs(self.workload):
                self._refs[spec.name] = (spec_reference(spec), spec.expected_states)
        ref, expected = self._refs[outcome["name"]]
        problems = job_problems(outcome, ref, expected)
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{outcome['name']}: {p}" for p in problems]
        return not problems

    def fail(self, message: str) -> None:
        """Count one job that failed a check made elsewhere."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)
