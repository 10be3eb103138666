"""PLA text output (Berkeley ESPRESSO ``.pla`` dialect).

:func:`write_pla` serializes a cover as an ``fd``-type PLA: ``.i``,
``.o``, ``.ilb``, ``.ob``, ``.type``, ``.p``, product-term rows and
``.e`` — what ``repro synth --pla`` writes for external tools.
"""

from __future__ import annotations

from .cover import Cover

__all__ = ["write_pla"]


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
