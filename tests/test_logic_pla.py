"""Tests for PLA text output, read back by a reader of the format.

``src/`` only writes PLA text (``repro synth --pla``); the reader below
exists to check it, so it lives with the tests.
"""

from dataclasses import dataclass, field

import pytest

from repro.logic import Cover, write_pla
from tests.cover_reference import cube_from_string, from_rows


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
            pla.on.add(cube_from_string(inp, on_bits))
        if dc_bits:
            pla.dc.add(cube_from_string(inp, dc_bits))
        if off_bits:
            pla.off.add(cube_from_string(inp, off_bits))
    return pla


SAMPLE = """
# a 2-input, 2-output example
.i 2
.o 2
.ilb a b
.ob f g
.type fr
.p 3
11 10
0- 01
10 0~
.e
"""


class TestParse:
    def test_header(self):
        pla = parse_pla(SAMPLE)
        assert pla.num_inputs == 2 and pla.num_outputs == 2
        assert pla.input_names == ["a", "b"]
        assert pla.output_names == ["f", "g"]

    def test_on_set(self):
        pla = parse_pla(SAMPLE)
        assert pla.on.contains_minterm(0b11, output=0)
        assert pla.on.contains_minterm(0b00, output=1)
        assert pla.on.contains_minterm(0b10, output=1)

    def test_fr_off_semantics(self):
        pla = parse_pla(SAMPLE)
        # row "11 10": g gets an explicit OFF point at 11
        assert pla.off.contains_minterm(0b11, output=1)
        # row "10 0~": '~' leaves f unspecified, '0' puts it in OFF
        assert pla.off.contains_minterm(0b01, output=0)

    def test_missing_declarations(self):
        with pytest.raises(ValueError):
            parse_pla("11 1\n")

    def test_fd_type_zero_not_off(self):
        text = ".i 1\n.o 1\n.type fd\n1 1\n0 0\n.e\n"
        pla = parse_pla(text)
        assert len(pla.off) == 0

    def test_concatenated_row(self):
        text = ".i 2\n.o 1\n111\n.e\n"
        pla = parse_pla(text)
        assert pla.on.contains_minterm(0b11)


class TestWrite:
    def test_roundtrip(self):
        on = Cover.empty(3, 2)
        on.add(cube_from_string("1-0", 0b01))
        on.add(cube_from_string("01-", 0b10))
        text = write_pla(on, input_names=list("xyz"), output_names=["p", "q"])
        back = parse_pla(text)
        assert back.on.contains_minterm(0b001, 0)
        assert back.on.contains_minterm(0b110, 1)
        assert back.dc.is_empty()
        assert back.input_names == ["x", "y", "z"]

    def test_row_count_matches(self):
        on = from_rows(["1-", "01"])
        text = write_pla(on)
        assert ".p 2" in text
