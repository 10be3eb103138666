"""Tests for the .sg state-graph file format."""

import pytest

from repro.bench.circuits import figure1_csc_sg, figure7b_sg
from repro.sg import SGError, parse_sg, validate_for_synthesis, write_sg

HANDSHAKE_SG = """
.model hs
.inputs r
.outputs y
.state graph
s0 r+ s1
s1 y+ s2
s2 r- s3
s3 y- s0
.marking {s0}
.end
"""


class TestParse:
    def test_basic(self):
        sg = parse_sg(HANDSHAKE_SG)
        assert sg.num_states == 4
        assert sg.signals == ["r", "y"]
        assert sg.code(sg.initial) == 0
        assert validate_for_synthesis(sg).ok

    def test_inferred_initial_values(self):
        # a falling-first signal starts at 1
        text = HANDSHAKE_SG.replace("r+ s1", "r- s1").replace(
            "r- s3", "r+ s3"
        )
        sg = parse_sg(text)
        assert sg.value(sg.initial, sg.signal_index("r")) == 1

    def test_explicit_coding(self):
        text = HANDSHAKE_SG.replace(
            ".marking", ".coding s0 00\n.marking"
        )
        sg = parse_sg(text)
        assert sg.code(sg.initial) == 0

    def test_coding_contradiction_detected(self):
        text = HANDSHAKE_SG.replace(
            ".marking", ".coding s2 00\n.marking"
        )
        with pytest.raises(SGError):
            parse_sg(text)

    def test_inconsistent_cycle_detected(self):
        text = """
        .model bad
        .inputs a
        .outputs y
        .state graph
        s0 a+ s1
        s1 y+ s2
        s2 a+ s0
        .marking {s0}
        .end
        """
        with pytest.raises(SGError):
            parse_sg(text)

    def test_bad_label(self):
        with pytest.raises(SGError):
            parse_sg(HANDSHAKE_SG.replace("r+ s1", "r* s1"))

    def test_missing_signals(self):
        with pytest.raises(SGError):
            parse_sg(".model x\n.state graph\ns0 a+ s1\n.end\n")

    def test_undeclared_signal(self):
        with pytest.raises(SGError):
            parse_sg(HANDSHAKE_SG.replace("y+ s2", "z+ s2"))


class TestRoundtrip:
    @pytest.mark.parametrize(
        "maker", [figure1_csc_sg, figure7b_sg], ids=["orelem", "fig7b"]
    )
    def test_roundtrip_preserves_structure(self, maker):
        sg = maker()
        back = parse_sg(write_sg(sg, "rt"))
        assert back.num_states == sg.num_states
        assert back.signals == sg.signals
        assert validate_for_synthesis(back).ok
        # same set of state codes and transition labels
        assert {sg.code(s) for s in sg.states()} == {
            back.code(s) for s in back.states()
        }

    def test_roundtrip_synthesis_equivalent(self, celem_sg):
        from repro.core import synthesize

        back = parse_sg(write_sg(celem_sg, "celem"))
        a = synthesize(celem_sg).stats()
        b = synthesize(back).stats()
        assert (a.area, a.delay) == (b.area, b.delay)


CELEM_G = """
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
"""


class TestSpecDigest:
    """The content-addressed pipeline's root key: cosmetic edits keep
    the digest, semantic edits change it."""

    def digest(self, text):
        from repro.pipeline import spec_digest

        return spec_digest(text)

    # -- cosmetic invariance -----------------------------------------
    def test_comments_and_blank_lines_ignored(self):
        noisy = CELEM_G.replace(
            ".graph", "# a comment\n\n.graph  # trailing comment"
        )
        assert self.digest(noisy) == self.digest(CELEM_G)

    def test_whitespace_runs_ignored(self):
        spaced = CELEM_G.replace("a+ c+", "   a+\t \tc+   ")
        assert self.digest(spaced) == self.digest(CELEM_G)

    def test_declaration_name_order_ignored(self):
        swapped = CELEM_G.replace(".inputs a b", ".inputs b a")
        assert self.digest(swapped) == self.digest(CELEM_G)

    def test_split_declarations_ignored(self):
        split = CELEM_G.replace(".inputs a b", ".inputs a\n.inputs b")
        assert self.digest(split) == self.digest(CELEM_G)

    def test_graph_line_order_ignored(self):
        reordered = CELEM_G.replace(
            "a+ c+\nb+ c+", "b+ c+\na+ c+"
        )
        assert self.digest(reordered) == self.digest(CELEM_G)

    def test_successor_grouping_ignored(self):
        # "c+ a- b-" is the same two arcs as "c+ a-" plus "c+ b-"
        ungrouped = CELEM_G.replace("c+ a- b-", "c+ a-\nc+ b-")
        assert self.digest(ungrouped) == self.digest(CELEM_G)

    def test_marking_token_order_ignored(self):
        swapped = CELEM_G.replace(
            "{ <c-,a+> <c-,b+> }", "{ <c-,b+>   <c-, a+> }"
        )
        assert self.digest(swapped) == self.digest(CELEM_G)

    def test_sg_dialect_arc_order_ignored_with_explicit_marking(self):
        reordered = HANDSHAKE_SG.replace(
            "s0 r+ s1\ns1 y+ s2", "s1 y+ s2\ns0 r+ s1"
        )
        assert self.digest(reordered) == self.digest(HANDSHAKE_SG)

    # -- semantic sensitivity ----------------------------------------
    def test_arc_change_changes_digest(self):
        assert self.digest(
            CELEM_G.replace("a- c-", "a- b-")
        ) != self.digest(CELEM_G)

    def test_polarity_change_changes_digest(self):
        assert self.digest(
            HANDSHAKE_SG.replace("s0 r+ s1", "s0 r- s1")
        ) != self.digest(HANDSHAKE_SG)

    def test_model_rename_changes_digest(self):
        # the name becomes the synthesized module's name
        assert self.digest(
            CELEM_G.replace(".model celem", ".model other")
        ) != self.digest(CELEM_G)

    def test_marking_change_changes_digest(self):
        assert self.digest(
            HANDSHAKE_SG.replace(".marking {s0}", ".marking {s2}")
        ) != self.digest(HANDSHAKE_SG)

    def test_signal_role_change_changes_digest(self):
        moved = CELEM_G.replace(".inputs a b", ".inputs a").replace(
            ".outputs c", ".outputs c b"
        )
        assert self.digest(moved) != self.digest(CELEM_G)

    def test_implicit_initial_state_is_frozen(self):
        # without a .marking, the first arc's source is the initial
        # state — reordering arcs then IS a semantic edit
        bare = HANDSHAKE_SG.replace(".marking {s0}\n", "")
        rotated = bare.replace(
            "s0 r+ s1\ns1 y+ s2", "s1 y+ s2\ns0 r+ s1"
        )
        assert self.digest(rotated) != self.digest(bare)

    def test_digest_is_sha256_hex(self):
        d = self.digest(CELEM_G)
        assert len(d) == 64 and set(d) <= set("0123456789abcdef")
