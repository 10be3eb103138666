"""Tests for PLA text I/O."""

import pytest

from repro.logic import Cover, Cube, parse_pla, write_pla
from tests.cover_reference import from_rows


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
        on.add(Cube.from_string("1-0", 0b01))
        on.add(Cube.from_string("01-", 0b10))
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
