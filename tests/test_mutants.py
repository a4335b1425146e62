"""The mutant catalogue of `mutants.py`: every mutant changes what the tool
says about some program, and the kill matrix runs."""

import pytest

from ctlrepair import frontend as fe
from ctlrepair import repair as rp
from ctlrepair.datalog_engine import DatalogProgram

import mutants
import oracle_programs
from conftest import FIXTURES

_SOURCES = [path.read_text() for path in sorted(FIXTURES.glob("*.imp"))] + [
    oracle_programs.program(seed, ctl_text)
    for seed in range(oracle_programs.FIRST_SEED, oracle_programs.FIRST_SEED + 5)
    for ctl_text in (None, "AG(x <= 3)")
]


def _seen(source: str):
    """The verdict and the `dump-datalog` text of ``source``."""
    try:
        analysis = rp.analyze(source)
    except (fe.ImpSyntaxError, rp.PropertyMissing) as exc:
        return type(exc).__name__
    if analysis.unknown:
        return "unknown", analysis.unknown
    program = DatalogProgram(rules=list(analysis.rules), facts=list(analysis.enc.facts))
    return analysis.holds, program.dump()


@pytest.fixture(scope="module")
def unmutated():
    return [_seen(source) for source in _SOURCES]


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_mutant_changes_a_verdict_or_a_datalog_dump(mutant, unmutated):
    with mutant.apply():
        assert any(_seen(source) != seen for source, seen in zip(_SOURCES, unmutated))
    # and leaves nothing behind
    assert [_seen(source) for source in _SOURCES] == unmutated


def test_the_matrix_runs_on_a_handful_of_programs(capsys):
    assert mutants.main(["--programs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kill matrix on seeds 1000-1001 (x: the check's counts or flags moved)"
    assert lines[2].split() == ["mutant", *mutants.CHECKS, "fault"]
    rows = lines[3:-1]
    assert [row.split()[0] for row in rows] == [m.name for m in mutants.MUTANTS]
    for row in rows:
        assert set(row.split()[1 : 1 + len(mutants.CHECKS)]) <= {"x", "."}
    assert lines[-1].startswith("killed by no check: ")


def test_the_exact_oracle_under_af_of_a_comparison_sees_m4():
    # seed 1392 is decided exactly under AF(x >= 1); with AF's lasso blind
    # to x >= 1 on a cycle, the tool wrongly says Violated
    assert oracle_programs.check_ctl([1392], "AF(x >= 1)")[2] == {"Verified": [], "Violated": []}
    m4 = next(m for m in mutants.MUTANTS if m.name == "M4")
    with m4.apply():
        assert oracle_programs.check_ctl([1392], "AF(x >= 1)")[2] == {"Verified": [], "Violated": [1392]}
