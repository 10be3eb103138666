"""The ``.sg`` state-graph text format.

Table 2's note ``(4)`` ("Input file in SG format") refers to benchmark
circuits distributed directly as state graphs rather than STGs — the
format this module reads and writes.  It is the petrify-style dialect::

    .model tsbmsi
    .inputs a b
    .outputs c
    .state graph
    s0 a+ s1
    s1 b+ s2
    s2 c+ s3
    ...
    .marking {s0}
    .end

State binary codes are not stored in the file; they are recovered by
propagating transitions from the initial state, with each signal's
initial value inferred from its first transition polarity (a signal
whose first transition anywhere along the flow is ``x+`` starts at 0)
— the same rule the STG elaborator uses.  An optional ``.coding``
section can pin codes explicitly for graphs where inference is
ambiguous.
"""

from __future__ import annotations

from .graph import SGError, StateGraph, Transition

__all__ = ["parse_sg", "write_sg"]


def _parse_label(text: str) -> tuple[str, int]:
    body, _, _ = text.partition("/")
    if body.endswith("+"):
        return body[:-1], 1
    if body.endswith("-"):
        return body[:-1], -1
    raise SGError(f"bad transition label {text!r}")


def parse_sg(text: str) -> StateGraph:
    """Parse ``.sg`` text into a :class:`StateGraph`."""
    inputs: list[str] = []
    outputs: list[str] = []
    internal: list[str] = []
    arcs: list[tuple[str, str, str]] = []
    codings: dict[str, str] = {}
    initial: str | None = None
    in_graph = False

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            if key in (".model", ".name"):
                in_graph = False
            elif key == ".inputs":
                inputs.extend(parts[1:])
                in_graph = False
            elif key == ".outputs":
                outputs.extend(parts[1:])
                in_graph = False
            elif key == ".internal":
                internal.extend(parts[1:])
                in_graph = False
            elif key == ".state":
                in_graph = True  # ".state graph"
            elif key == ".coding":
                # ".coding s0 0010"
                codings[parts[1]] = parts[2]
                in_graph = False
            elif key == ".marking":
                body = line[len(".marking"):].strip().strip("{} \t")
                initial = body.split()[0] if body else None
                in_graph = False
            elif key == ".end":
                in_graph = False
            else:
                raise SGError(f"unknown directive {key!r}")
            continue
        if in_graph:
            parts = line.split()
            if len(parts) != 3:
                raise SGError(f"bad arc line {line!r} (need: src label dst)")
            arcs.append((parts[0], parts[1], parts[2]))

    signals = inputs + outputs + internal
    if not signals:
        raise SGError(".sg file declares no signals")
    if initial is None:
        if not arcs:
            raise SGError(".sg file has no arcs")
        initial = arcs[0][0]
    index = {s: i for i, s in enumerate(signals)}

    adj: dict[str, list[tuple[str, int, str]]] = {}
    for src, label, dst in arcs:
        sig, d = _parse_label(label)
        if sig not in index:
            raise SGError(f"arc uses undeclared signal {sig!r}")
        adj.setdefault(src, []).append((sig, d, dst))
        adj.setdefault(dst, [])

    # infer each signal's initial value from first transition polarity
    values: dict[str, int] = {}
    for name, bits in codings.items():
        if name == initial:
            for s, ch in zip(signals, bits):
                values[s] = int(ch)
    first: dict[str, set[int]] = {s: set() for s in signals}
    seen: set[tuple[str, frozenset]] = set()
    stack: list[tuple[str, frozenset]] = [(initial, frozenset())]
    while stack:
        state, done = stack.pop()
        if (state, done) in seen:
            continue
        seen.add((state, done))
        if len(seen) > 500000:
            raise SGError("initial-value inference exceeded budget")
        for sig, d, dst in adj.get(state, []):
            if sig not in done:
                first[sig].add(d)
            stack.append((dst, done | {sig}))
    for s in signals:
        if s in values:
            continue
        pol = first[s]
        if pol == {1}:
            values[s] = 0
        elif pol == {-1}:
            values[s] = 1
        elif not pol:
            values[s] = 0
        else:
            raise SGError(
                f"signal {s!r} has mixed first-transition polarity; "
                "add a .coding line for the initial state"
            )

    sg = StateGraph(signals, inputs)
    init_code = 0
    for s, v in values.items():
        init_code |= v << index[s]
    sg.add_state(initial, init_code)
    sg.set_initial(initial)

    # propagate codes by BFS; verify consistency on convergence
    code: dict[str, int] = {initial: init_code}
    work = [initial]
    while work:
        state = work.pop()
        for sig, d, dst in adj.get(state, []):
            bit = 1 << index[sig]
            cur = code[state]
            if d == 1 and cur & bit:
                raise SGError(f"+{sig} from state {state!r} where {sig}=1")
            if d == -1 and not cur & bit:
                raise SGError(f"-{sig} from state {state!r} where {sig}=0")
            new = cur ^ bit
            if dst in code:
                if code[dst] != new:
                    raise SGError(
                        f"state {dst!r} reached with inconsistent codes "
                        f"{code[dst]:b} vs {new:b}"
                    )
            else:
                code[dst] = new
                sg.add_state(dst, new)
                work.append(dst)
            sg.add_arc(state, Transition(index[sig], d), dst)
    # verify explicit codings, if any
    for name, bits in codings.items():
        if name not in code:
            continue
        want = 0
        for s, ch in zip(signals, bits):
            want |= int(ch) << index[s]
        if code[name] != want:
            raise SGError(f".coding of {name!r} contradicts propagation")
    return sg


def write_sg(sg: StateGraph, name: str = "sg") -> str:
    """Serialize a state graph as ``.sg`` text (with a .coding anchor)."""
    lines = [f".model {name}"]
    if sg.input_names:
        lines.append(".inputs " + " ".join(sg.input_names))
    if sg.non_input_names:
        lines.append(".outputs " + " ".join(sg.non_input_names))
    lines.append(".state graph")
    ids = {s: f"s{i}" for i, s in enumerate(sg.states())}
    for s in sg.states():
        for t, d in sg.successors(s):
            label = sg.signals[t.signal] + ("+" if t.rising else "-")
            lines.append(f"{ids[s]} {label} {ids[d]}")
    assert sg.initial is not None
    bits = "".join(str(sg.value(sg.initial, i)) for i in range(sg.num_signals))
    lines.append(f".coding {ids[sg.initial]} {bits}")
    lines.append(f".marking {{{ids[sg.initial]}}}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
