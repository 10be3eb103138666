"""VCD (Value Change Dump) export of simulation traces.

Lets the reproduction's waveforms — the internal pulse streams and the
clean flip-flop outputs of Figure 3/6 — be inspected in any standard
waveform viewer (GTKWave etc.).  Times are written in picoseconds
(1 ns simulation unit × 1000) so sub-gate-delay pulses stay visible.
"""

from __future__ import annotations

from typing import Sequence

from .waveform import TraceSet

__all__ = ["write_vcd"]

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Short VCD identifier code for the index-th variable."""
    if index == 0:
        return _ID_CHARS[0]
    out = []
    while index:
        index, rem = divmod(index, len(_ID_CHARS))
        out.append(_ID_CHARS[rem])
    return "".join(out)


def write_vcd(
    traces: TraceSet,
    nets: Sequence[str] | None = None,
) -> str:
    """Serialize selected nets' waveforms as VCD text, in module
    ``circuit`` with simulation time (ns) written in ps."""
    names = list(nets) if nets is not None else sorted(traces.nets())
    ids = {n: _identifier(i) for i, n in enumerate(names)}

    lines = [
        "$date reproduction run $end",
        "$version repro (DAC'95 N-SHOT reproduction) $end",
        "$timescale 1ps $end",
        "$scope module circuit $end",
    ]
    for n in names:
        safe = n.replace(" ", "_")
        lines.append(f"$var wire 1 {ids[n]} {safe} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    # initial values
    lines.append("$dumpvars")
    events: list[tuple[int, str, int]] = []
    for n in names:
        wave = traces.get(n)
        if wave is None or not wave.changes:
            lines.append(f"0{ids[n]}")
            continue
        lines.append(f"{wave.changes[0][1]}{ids[n]}")
        for t, v in wave.changes[1:]:
            events.append((int(round(t * 1000.0)), n, v))
    lines.append("$end")

    events.sort(key=lambda e: e[0])
    current: int | None = None
    for t, n, v in events:
        if t != current:
            lines.append(f"#{t}")
            current = t
        lines.append(f"{v}{ids[n]}")
    return "\n".join(lines) + "\n"
