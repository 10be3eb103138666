"""The output check must count each sabotaged job as failed.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import pytest

from reference import Checker, job_problems, parse_pla, spec_reference
from run import drifted, tail
from specs import workload_specs
from worker import run_job

# distributive STGs, a trigger-enforced one, a non-distributive SG, a Muller pipeline
NAMES = ("chu133", "converta", "hybridf", "pmcm1", "muller4")


def _jobs():
    specs = {s.name: (w, s) for w in ("table2", "muller-scale") for s in workload_specs(w)}
    for name in NAMES:
        workload, spec = specs[name]
        yield workload, spec, run_job(spec, baselines=False)


JOBS = list(_jobs())


def _with_rows(pla: str, rows: list[str]) -> str:
    header = [l for l in pla.splitlines() if l.startswith(".") and not l.startswith((".p", ".e"))]
    return "\n".join(header + [f".p {len(rows)}"] + rows + [".e"]) + "\n"


def _rows(pla: str) -> list[str]:
    return [l for l in pla.splitlines() if not l.startswith(".")]


@pytest.fixture(params=JOBS, ids=[j[1].name for j in JOBS])
def job(request):
    workload, spec, outcome = request.param
    return workload, outcome, spec_reference(spec), spec.expected_states


def test_real_job_passes(job):
    _, outcome, ref, expected = job
    assert job_problems(outcome, ref, expected) == []


def test_every_dropped_row_fails(job):
    _, outcome, ref, expected = job
    rows = _rows(outcome["pla"])
    for i in range(len(rows)):
        sabotaged = dict(outcome, pla=_with_rows(outcome["pla"], rows[:i] + rows[i + 1:]))
        assert job_problems(sabotaged, ref, expected), f"dropping row {i} went unnoticed"


def test_dropped_row_without_fixing_count_fails(job):
    _, outcome, ref, expected = job
    lines = outcome["pla"].splitlines()
    first_row = next(i for i, l in enumerate(lines) if not l.startswith("."))
    sabotaged = dict(outcome, pla="\n".join(lines[:first_row] + lines[first_row + 1:]))
    assert any("declares" in p for p in job_problems(sabotaged, ref, expected))


def test_flipped_output_bits_fail(job):
    """Every 0→1 flip, and every 1→0 flip of a row that drives one
    output, breaks the excitation semantics.  (A 1→0 flip on a shared
    row can be harmless when another row covers the same states.)"""
    _, outcome, ref, expected = job
    rows = _rows(outcome["pla"])
    for i, row in enumerate(rows):
        inp, out = row.split()
        for k, ch in enumerate(out):
            if ch == "1" and out.count("1") > 1:
                continue
            flipped = out[:k] + ("0" if ch == "1" else "1") + out[k + 1:]
            sabotaged = rows[:i] + [f"{inp} {flipped}"] + rows[i + 1:]
            bad = dict(outcome, pla=_with_rows(outcome["pla"], sabotaged))
            assert job_problems(bad, ref, expected), f"row {i} bit {k} flip went unnoticed"


def test_wrong_state_count_fails(job):
    _, outcome, ref, expected = job
    assert job_problems(dict(outcome, states=outcome["states"] + 1), ref, expected)
    if expected is not None:
        assert job_problems(outcome, ref, expected + 1)


def test_unproved_certificate_and_crash_fail(job):
    _, outcome, ref, expected = job
    assert job_problems(dict(outcome, proved=False), ref, expected)
    assert job_problems({"name": outcome["name"], "error": "RuntimeError: boom"}, ref, expected)


def test_sabotaged_jobs_count_as_failed(job):
    workload, outcome, _, _ = job
    rows = _rows(outcome["pla"])
    checker = Checker(workload)
    assert checker.check(outcome)
    assert not checker.check(dict(outcome, pla=_with_rows(outcome["pla"], rows[1:])))
    assert not checker.check(dict(outcome, states=outcome["states"] - 1))
    checker.fail("decomposed flow differs")
    assert (checker.attempted, checker.failed) == (4, 3)


def test_parse_pla_rejects_malformed_text():
    for text in (".i 2\n.o 1\n10 1\n", ".i 2\n.o 1\n.ilb a b\n.ob f\n1 1\n", "10 1\n"):
        with pytest.raises(ValueError):
            parse_pla(text)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail(range(25)) == (14, 60.0)
    assert tail(range(9)) == (8, 100.0)


def test_decomposition_drift_is_detected(job):
    _, outcome, _, _ = job
    rows = _rows(outcome["pla"])
    assert not drifted(dict(outcome), outcome)
    assert drifted(dict(outcome, pla=_with_rows(outcome["pla"], rows[1:])), outcome)
    assert drifted(dict(outcome, area=outcome["area"] + 1), outcome)
    assert drifted(outcome, None)
