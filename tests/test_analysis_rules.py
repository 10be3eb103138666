"""Per-rule tests: a clean pass on the paper suite plus one seeded
violation per registered rule id.

Every rule in the default registry must be demonstrably triggerable —
the fixtures here are the proof — and must stay silent on the paper's
own benchmark circuits (the C-element being the canonical clean spec).
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    LintContext,
    rules_netlist,
    Severity,
    analyze,
    default_registry,
    run_rules,
)
from repro.bench import (
    DISTRIBUTIVE_BENCHMARKS,
    NONDISTRIBUTIVE_BENCHMARKS,
    sg_of,
)
from repro.bench.circuits import figure1_csc_sg, figure1_sg, figure7b_sg
from repro.core.sop_derivation import derive_sop_spec
from repro.logic import Cover, Cube
from repro.netlist.gates import Gate, GateType, Pin
from repro.netlist.netlist import Netlist
from repro.sg import SGBuilder

from tests.conftest import sabotage_code

ALL_RULE_IDS = [
    "SG001",
    "SG002",
    "SG003",
    "SG004",
    "SG005",
    "SG006",
    "TR001",
    "TR002",
    "TR003",
    "DL001",
    "NL001",
    "NL002",
    "NL003",
    "NL004",
    "NL005",
    "NL006",
    "HZ001",
    "HZ002",
    "HZ003",
    "HZ004",
    "HZ005",
]


class TestCatalog:
    def test_catalog_complete(self):
        assert default_registry().ids() == sorted(ALL_RULE_IDS)

    def test_at_least_ten_rules(self):
        assert len(default_registry().ids()) >= 10


class TestCleanPass:
    """The paper's circuits carry no violations."""

    def test_celem_totally_clean(self, celem_sg):
        result = analyze(celem_sg, name="celem")
        assert result.diagnostics == []
        assert result.rules_run == len(ALL_RULE_IDS)
        assert result.exit_code() == 0

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_rule_silent_on_celem(self, celem_sg, rule_id):
        result = analyze(celem_sg, name="celem", select={rule_id})
        assert result.by_rule().get(rule_id, []) == []

    def test_paper_suite_exits_clean(self):
        """Acceptance criterion: `repro lint` on every paper-suite
        circuit exits 0 (info-severity findings allowed)."""
        for name in (*DISTRIBUTIVE_BENCHMARKS, *NONDISTRIBUTIVE_BENCHMARKS):
            result = analyze(sg_of(name), name=name)
            assert result.exit_code() == 0, f"{name}: {result.summary()}"


# ----------------------------------------------------------------------
# seeded violations, one per rule
# ----------------------------------------------------------------------
class TestSgRules:
    def test_sg001_inconsistent_codes(self, celem_sg):
        s = next(iter(celem_sg.states()))
        sabotage_code(celem_sg, s, 0b111)
        result = analyze(celem_sg, name="bad", select={"SG001"})
        diags = result.by_rule()["SG001"]
        assert all(d.severity is Severity.ERROR for d in diags)
        assert result.exit_code() == 1

    def test_sg002_csc_conflict(self):
        result = analyze(figure1_sg(), name="figure1")
        diags = result.by_rule()["SG002"]
        assert len(diags) == 4  # the four Figure 1 conflicting pairs
        assert all("share code" in d.message for d in diags)
        assert result.exit_code() == 1
        # errors in the SG scope gate the deeper scopes
        assert result.scopes_skipped == ["cover", "netlist"]

    def test_sg003_usc_only(self):
        result = analyze(figure1_csc_sg(), name="figure1csc")
        diags = result.by_rule()["SG003"]
        assert len(diags) == 2
        assert all(d.severity is Severity.INFO for d in diags)
        # USC violations alone do not block synthesis
        assert result.exit_code() == 0
        assert "SG002" not in result.by_rule()

    def test_sg004_output_disabled(self):
        b = SGBuilder(["r1", "r2", "g"], ["r1", "r2"])
        b.arc("100", "+g", "101")  # +g excited, then +r2 disables it
        b.arc("100", "+r2", "110")
        b.arc("110", "-r1", "010")
        b.arc("010", "-r2", "000")
        b.arc("000", "+r1", "100")
        b.arc("101", "-g", "100")
        b.initial("100")
        result = analyze(b.build(), name="disabled", select={"SG004"})
        diags = result.by_rule()["SG004"]
        assert any("disabled by" in d.message for d in diags)
        assert result.exit_code() == 1

    def test_sg005_unreachable_states(self):
        b = SGBuilder(["r", "y"], ["r"])
        b.arc("00", "+r", "10")
        b.arc("10", "+y", "11")
        b.arc("11", "-r", "01")
        b.arc("01", "-y", "00")
        b.arc("11/z", "-r", "01")  # only exists as a source: unreachable
        b.initial("00")
        # b.sg skips build()'s restrict_to_reachable() pruning
        result = analyze(b.sg, name="dead", select={"SG005"})
        (diag,) = result.by_rule()["SG005"]
        assert diag.severity is Severity.WARNING
        assert "unreachable" in diag.message
        assert result.exit_code() == 0
        assert result.exit_code(strict=True) == 1

    def test_sg006_output_trapping(self):
        # the SG004 fixture also breaks Property 1: +r2 leaves ER(+g)
        b = SGBuilder(["r1", "r2", "g"], ["r1", "r2"])
        b.arc("100", "+g", "101")
        b.arc("100", "+r2", "110")
        b.arc("110", "-r1", "010")
        b.arc("010", "-r2", "000")
        b.arc("000", "+r1", "100")
        b.arc("101", "-g", "100")
        b.initial("100")
        result = analyze(b.build(), name="escape", select={"SG006"})
        diags = result.by_rule()["SG006"]
        assert any("without firing +g" in d.message for d in diags)


class TestTriggerRules:
    def _infeasible_sg(self):
        """The unsatisfiable-trigger SG of the core trigger tests: y's
        trigger region spans a (clk, d) Gray cycle."""
        b = SGBuilder(["r", "clk", "d", "y"], ["r", "clk", "d"])
        gray = ["00", "10", "11", "01"]

        def st(r, cd, y):
            return f"{r}{cd}{y}"

        for i, cd in enumerate(gray):
            nxt = gray[(i + 1) % 4]
            if cd[0] != nxt[0]:
                tr = ("+" if nxt[0] == "1" else "-") + "clk"
            else:
                tr = ("+" if nxt[1] == "1" else "-") + "d"
            b.arc(st(0, cd, 0), tr, st(0, nxt, 0))
            b.arc(st(1, cd, 0), tr, st(1, nxt, 0))
            b.arc(st(0, cd, 0), "+r", st(1, cd, 0))
            b.arc(st(1, cd, 0), "+y", st(1, cd, 1))
            b.arc(st(1, cd, 1), "-r", st(0, cd, 1))
            b.arc(st(0, cd, 1), "-y", st(0, cd, 0))
        b.initial(st(0, "00", 0))
        return b.build()

    def test_tr001_infeasible_trigger(self):
        sg = self._infeasible_sg()
        ctx = LintContext(sg, name="infeasible")
        # force infeasibility: an OFF cube inside supercube(TR(+y))
        spec = ctx.require_spec()
        y = sg.signal_index("y")
        so = spec.output_index(y, "set")
        bad_off = (
            Cube.full(sg.num_signals, 1 << so)
            .with_literal(sg.signal_index("r"), 0b10)
            .with_literal(y, 0b01)
            .with_literal(sg.signal_index("clk"), 0b01)
        )
        spec.off.add(bad_off)
        result = run_rules(ctx, select={"TR001"})
        diags = result.by_rule()["TR001"]
        assert any("no trigger cube exists" in d.message for d in diags)
        assert result.exit_code() == 1

    def test_tr002_not_single_traversal(self):
        result = analyze(figure7b_sg(), name="fig7b", select={"TR002"})
        diags = result.by_rule()["TR002"]
        assert any("not single-traversal" in d.message for d in diags)
        assert all(d.severity is Severity.INFO for d in diags)
        assert result.exit_code() == 0

    def test_tr003_fragmented_cover(self):
        sg = figure7b_sg()
        spec = derive_sop_spec(sg)
        r = sg.signal_index("r")
        clk = sg.signal_index("clk")
        y = sg.signal_index("y")
        so = spec.output_index(y, "set")
        ro = spec.output_index(y, "reset")
        n = sg.num_signals

        def cube(bits, out):
            c = Cube.full(n, 1 << out)
            for var, val in bits.items():
                c = c.with_literal(var, 0b10 if val else 0b01)
            return c

        fragmented = Cover(
            n,
            spec.num_outputs,
            [
                cube({r: 1, y: 0, clk: 0}, so),
                cube({r: 1, y: 0, clk: 1}, so),
                cube({r: 0, y: 1, clk: 0}, ro),
                cube({r: 0, y: 1, clk: 1}, ro),
            ],
        )
        ctx = LintContext(sg, name="fragmented", cover=fragmented)
        result = run_rules(ctx, select={"TR003"})
        diags = result.by_rule()["TR003"]
        assert any("covers" in d.message for d in diags)
        assert result.exit_code() == 0  # repairable: warning only


class TestNetlistRules:
    def test_dl001_compensation_at_high_spread(self, celem_sg):
        result = analyze(
            celem_sg, name="celem", spread=0.9, select={"DL001"}
        )
        diags = result.by_rule()["DL001"]
        assert any("Equation (1)" in d.message for d in diags)
        assert all(d.severity is Severity.WARNING for d in diags)

    def test_nl001_combinational_loop(self):
        nl = Netlist("loop")
        nl.add(Gate("g1", GateType.INV, [Pin("b")], output="a"))
        nl.add(Gate("g2", GateType.INV, [Pin("a")], output="b"))
        result = run_rules(LintContext(netlist=nl, name="loop"), select={"NL001"})
        (diag,) = result.by_rule()["NL001"]
        assert "combinational cycle" in diag.message
        assert result.exit_code() == 1

    def test_nl001_sequential_feedback_allowed(self):
        # the same cycle through an MHS flip-flop is the sanctioned shape
        nl = Netlist("ok")
        nl.add_input("x")
        nl.add(Gate("p", GateType.AND, [Pin("x"), Pin("qn")], output="s"))
        nl.add(
            Gate(
                "ff",
                GateType.MHSFF,
                [Pin("s"), Pin("r")],
                output="q",
                output_n="qn",
                attrs={"init": 0},
            )
        )
        nl.add(Gate("rp", GateType.AND, [Pin("x", True), Pin("q")], output="r"))
        nl.add_output("q")
        result = run_rules(LintContext(netlist=nl, name="ok"), select={"NL001"})
        assert result.by_rule().get("NL001", []) == []

    def test_nl002_undriven_net(self):
        nl = Netlist("undriven")
        nl.add(Gate("g", GateType.BUF, [Pin("ghost")], output="y"))
        nl.add_output("y")
        result = run_rules(LintContext(netlist=nl, name="undriven"), select={"NL002"})
        (diag,) = result.by_rule()["NL002"]
        assert "'ghost'" in diag.message
        assert result.exit_code() == 1

    def test_nl003_dangling_net(self):
        nl = Netlist("dangling")
        nl.add_input("x")
        nl.add(Gate("g", GateType.BUF, [Pin("x")], output="unused"))
        nl.add(Gate("h", GateType.BUF, [Pin("x")], output="y"))
        nl.add_output("y")
        result = run_rules(LintContext(netlist=nl, name="dangling"), select={"NL003"})
        (diag,) = result.by_rule()["NL003"]
        assert "'unused'" in diag.message
        assert result.exit_code() == 0  # warning

    def test_nl004_malformed_mhsff(self):
        nl = Netlist("badff")
        nl.add_input("s")
        ff = Gate(
            "ff",
            GateType.MHSFF,
            [Pin("s")],  # missing the reset pin; no init attribute either
            output="q",
            output_n="qn",
        )
        nl.add(ff)
        ff.output_n = "q"  # both rails on one net, behind add()'s check
        nl.add_output("q")
        result = run_rules(LintContext(netlist=nl, name="badff"), select={"NL004"})
        messages = [d.message for d in result.by_rule()["NL004"]]
        assert any("needs exactly [set, reset]" in m for m in messages)
        assert any("same net on both rails" in m for m in messages)
        assert any("no binary init" in m for m in messages)
        assert result.exit_code() == 1

    def test_nl005_wrong_enable_rail(self):
        nl = Netlist("badack")
        nl.add_input("x")
        # set plane gated by q instead of qn: pulses can trespass
        nl.add(Gate("sp", GateType.AND, [Pin("x"), Pin("q")], output="s"))
        nl.add(Gate("rp", GateType.AND, [Pin("x", True), Pin("q")], output="r"))
        nl.add(
            Gate(
                "ff",
                GateType.MHSFF,
                [Pin("s"), Pin("r")],
                output="q",
                output_n="qn",
                attrs={"init": 0},
            )
        )
        nl.add_output("q")
        result = run_rules(LintContext(netlist=nl, name="badack"), select={"NL005"})
        (diag,) = result.by_rule()["NL005"]
        assert "set input" in diag.message
        assert result.exit_code() == 1

    def test_nl006_excessive_fanout(self, monkeypatch):
        monkeypatch.setattr(rules_netlist, "FANOUT_LIMIT", 2)
        nl = Netlist("fanout")
        nl.add_input("x")
        for i in range(3):
            nl.add(Gate(f"g{i}", GateType.BUF, [Pin("x")], output=f"y{i}"))
            nl.add_output(f"y{i}")
        result = run_rules(LintContext(netlist=nl, name="fanout"), select={"NL006"})
        (diag,) = result.by_rule()["NL006"]
        assert "fans out to 3" in diag.message
        assert result.exit_code() == 0  # warning
