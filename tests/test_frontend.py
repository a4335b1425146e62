import random

import pytest

from ctlrepair import frontend as fe
from ctlrepair import gwre as gw
from ctlrepair import pure_logic as pl

import oracle_programs
from conftest import FIXTURES

PARSEABLE = sorted(
    p.name for p in FIXTURES.glob("*.imp") if p.name != "bad_syntax.imp"
)


def test_property_annotation(fixture_text):
    assert fe.property_annotation(fixture_text("overview.imp")) == "AF(y=5)"
    assert fe.property_annotation(fixture_text("no_property.imp")) is None


def test_bad_syntax_raises(fixture_text):
    with pytest.raises(fe.ImpSyntaxError):
        fe.parse(fixture_text("bad_syntax.imp"))


def test_undeclared_variable_rejected():
    with pytest.raises(fe.ImpSyntaxError):
        fe.parse("void main() { x = 1; }")


def test_duplicate_procedure_or_missing_brace():
    with pytest.raises(fe.ImpSyntaxError):
        fe.parse("void main() { int x = 1; ")


def _summarized_joins(program: fe.Program) -> set[int]:
    return {s.join for s in gw.cfg_to_gwre(program).summaries}


def _assert_well_formed(program: fe.Program, source: str) -> None:
    for proc in program.procedures.values():
        assert isinstance(proc.nodes[proc.entry], fe.Start)
        for nid, succs in proc.trans.items():
            assert nid in proc.nodes
            for s in succs:
                assert s in proc.nodes
            # only an exit or a return ends a path; gwre's walk relies on it
            if not isinstance(proc.nodes[nid], (fe.ExitNode, fe.Return)):
                assert succs, f"{proc.name}: node {nid} has no successor"
        # every while loop whose body comes back records a body insertion
        # offset
        for join, offset in proc.loop_insert.items():
            assert isinstance(proc.nodes[join], fe.Join)
            assert 0 <= offset <= len(source)
    loops = {j for proc in program.procedures.values() for j in proc.loop_insert}
    try:
        assert loops == _summarized_joins(program)
    except gw.SummaryInconclusive:
        assert loops  # the summarizer stops at the loop it cannot summarize


@pytest.mark.parametrize("name", PARSEABLE)
def test_cfg_well_formed(name, fixture_text):
    source = fixture_text(name)
    _assert_well_formed(fe.build_cfg(fe.parse(source)), source)


def test_generated_cfgs_well_formed():
    for seed in range(1000, 1200):
        source = oracle_programs.program(seed)
        _assert_well_formed(fe.build_cfg(fe.parse(source)), source)


LOOPS = """void main() {
  int c = *;
  int n = *;
  while (c > 0) { return; }
  while (n > 0) { if (n > 5) { break; } n = n - 1; }
  while (n < 0) { while (c > 0) { c = c - 1; } n = n + 1; }
  return;
}
"""


def test_loop_insert_names_exactly_the_summarized_loops():
    program = fe.build_cfg(fe.parse(LOOPS))
    proc = program.procedures["main"]
    # the first while's body always returns, so it has no back edge
    (first_while,) = [
        n for n, node in proc.nodes.items()
        if isinstance(node, fe.Join) and proc.spans[n].start == LOOPS.index("while")
    ]
    assert first_while not in proc.loop_insert
    assert len(proc.loop_insert) == 3
    assert set(proc.loop_insert) == _summarized_joins(program)


def test_run_cfg_computes_store():
    src = """//@ ctl: AF(Exit(_))
void main(int n) {
  int total = 0;
  while (n > 0) {
    total = total + n;
    n = n - 1;
  }
  return;
}
"""
    program = fe.build_cfg(fe.parse(src))
    status, _, store = fe.run_cfg(program, "main", {"n": 4}, random.Random(0))
    assert status == "return"
    assert store["total"] == 10
    assert store["n"] == 0


def test_run_cfg_runs_compound_conditions_and_short_forms():
    src = """void main() {
  int x = 0;
  int y = 0;
  x += 2;
  while (!(x > 4)) x = (x + 1);
  if ((x > 0) && (y < 1)) { y = 7; }
  if (x) { x = 0; }
  return;
}
"""
    program = fe.build_cfg(fe.parse(src))
    assert fe.run_cfg(program, "main", {}, random.Random(0)) == ("return", 0, {"x": 0, "y": 7})


@pytest.mark.parametrize(
    "stmt, message",
    [
        ("x -= 1;", "expected '=' after 'x'"),
        ("if ((x > 0) > 1) { x = 1; }", "comparison of boolean expressions is not supported"),
    ],
)
def test_syntax_error_messages(stmt, message):
    with pytest.raises(fe.ImpSyntaxError, match=message):
        fe.parse(f"void main() {{ int x = 0; {stmt} return; }}")


@pytest.mark.parametrize(
    "program, message",
    [
        ("void main() { int x = 0 return; }", "line 1:25: expected ';', found 'return'"),
        ("void main() { int 5 = 0; return; }", "line 1:19: expected a id, found '5'"),
        (
            "void main() { int x = 0; if (* && x > 0) { x = 1; } return; }",
            "a `*` condition cannot be combined with && or ||",
        ),
        ("x = 1;", "line 1:1: expected a procedure, found 'x'"),
        ("void f() { return; }\nvoid f() { return; }", "duplicate procedure names"),
        # the leftmost undeclared variable, whatever the hash seed
        ("void main() { int x = 0; x = a + b + c + d; return; }", "use of undeclared variable 'a' in main"),
        ("void main() { int x = 0; if (p > q) { x = 1; } return; }", "use of undeclared variable 'p' in main"),
    ],
    ids=["missing-semicolon", "number-as-name", "nondet-in-conjunction", "top-level-statement",
         "duplicate-procedure", "undeclared-in-term", "undeclared-in-condition"],
)
def test_syntax_errors_exit_three(run_cli, tmp_path, program, message):
    path = tmp_path / "prog.imp"
    path.write_text(program + "\n")
    assert run_cli("verify", "--ctl", "AF(Exit(_))", path) == (3, "", f"error: {message}\n")


def test_pp_cond_brackets_disjuncts():
    x = pl.Var("x")
    inner = pl.And(pl.Bop(pl.GT, x, pl.Const(0)), pl.Bop(pl.LT, x, pl.Const(5)))
    cond = pl.Or(inner, pl.Bop(pl.EQ, x, pl.Const(2)))
    assert fe._pp_cond(cond) == "(x > 0 && x < 5) || (x == 2)"


def test_run_cfg_replays_exact_draws(fixture_text):
    program = fe.build_cfg(fe.parse(fixture_text("overview.imp")))
    result = fe.run_cfg(program, "main", {}, random.Random(5))
    assert result == ("end", 0, {"y": 5, "i": 0, "x": 3})


def test_run_cfg_watch_join_counts_iterations():
    src = """//@ ctl: AF(Exit(_))
void main(int n) {
  while (n > 0) {
    n = n - 1;
  }
  return;
}
"""
    program = fe.build_cfg(fe.parse(src))
    proc = program.procedures["main"]
    (join,) = [n for n, node in proc.nodes.items() if isinstance(node, fe.Join)]
    _, visits, _ = fe.run_cfg(program, "main", {"n": 7}, random.Random(0), watch_join=join)
    assert visits == 8  # 7 iterations plus the exiting guard check


def test_run_cfg_calls_and_return_value():
    src = """//@ ctl: AF(Exit(_))
int double(int v) {
  int r = v + v;
  return r;
}

void main(int a) {
  int b = double(a);
  return;
}
"""
    program = fe.build_cfg(fe.parse(src))
    status, _, store = fe.run_cfg(program, "main", {"a": 21}, random.Random(0))
    assert status == "return"
    assert store["b"] == 42


def test_run_cfg_callee_out_of_fuel_ends_the_run():
    # a diverging callee must not read as a returning one
    src = """int f(int a) { while (1) { } return a; }
void main() { int y = f(4); return; }
"""
    program = fe.build_cfg(fe.parse(src))
    status, _, _ = fe.run_cfg(program, "main", {}, random.Random(0), max_steps=200)
    assert status == "fuel"


@pytest.mark.parametrize("args", ["1", "1, 2, 3"])
def test_call_arity_must_match_the_procedure(args):
    src = f"int f(int a, int b) {{ return b; }}\nvoid main() {{ int y = f({args}); return; }}\n"
    with pytest.raises(fe.ImpSyntaxError, match="'f' takes 2 argument"):
        fe.parse(src)


def test_external_call_takes_any_number_of_arguments():
    fe.parse("void main() { int y = g(1, 2, 3); int z = g(); return; }")


def test_break_only_inside_a_loop():
    with pytest.raises(fe.ImpSyntaxError, match="outside a loop"):
        fe.parse("void main() { int x = 0; break; x = 1; return; }")
    with pytest.raises(fe.ImpSyntaxError, match="outside a loop"):
        fe.parse("int f(int a) { if (a > 0) { break; } return a; }")
    fe.parse("void main() { int x = 0; while (x < 3) { if (x > 1) { break; } x = x + 1; } return; }")


def test_spans_cover_statements(fixture_text):
    source = fixture_text("overview.imp")
    program = fe.build_cfg(fe.parse(source))
    proc = program.procedures["main"]
    for span in proc.spans.values():
        assert 0 <= span.start <= span.end <= len(source)
