import json
import pathlib
import random
import re

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
    return {s.join for s in gw.cfg_to_gwre(program, pl.Memo()).summaries}


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
    assert fe.run_cfg(program, "main", {}, random.Random(0)) == ("return", 22, {"x": 0, "y": 7})


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
        ("void main() { int x = 1 @ 2; return; }", "line 1:25: unexpected character '@'"),
        (
            "int f(int a) { int b = f(a); return b; }\nvoid main() { int y = f(1); return; }",
            "recursive call to 'f' is not supported",
        ),
        # code after a return gets no node but is still checked
        ("void main() { int x = 0; return; x = y; }", "use of undeclared variable 'y' in main"),
        # a duplicate procedure is reported before any scope problem
        ("void f() { x = 1; return; }\nvoid f() { return; }", "duplicate procedure names"),
        # arguments and parameters are separated by `,`, with none before `)`
        ("void main() { int x = f(1 2); return; }", "line 1:27: expected ',', found '2'"),
        ("void main() { int x = g(1,); return; }", "line 1:27: expected an expression, found ')'"),
        ("int f(int a int b) { return a; }", "line 1:13: expected ',', found 'int'"),
        ("int f(int a,) { return a; }", "line 1:13: expected 'int', found ')'"),
    ],
    ids=["missing-semicolon", "number-as-name", "nondet-in-conjunction", "top-level-statement",
         "duplicate-procedure", "undeclared-in-term", "undeclared-in-condition", "bad-character",
         "recursive-call", "undeclared-in-dead-code", "duplicate-before-undeclared",
         "argument-without-comma", "argument-trailing-comma", "parameter-without-comma",
         "parameter-trailing-comma"],
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


@pytest.mark.parametrize(
    "name, seed, max_steps, expected",
    [
        ("overview.imp", 5, 10_000, ("end", 10, {"y": 5, "i": 0, "x": 3})),
        # a call is one step of the caller, and the callee runs on fuel of
        # its own: counted against the caller's 10, the six steps of `pick`
        # would cut this run short
        ("calls.imp", 5, 10, ("end", 8, {"a": 0, "b": 0, "c": -7, "y": 0})),
        ("calls.imp", 5, 40, ("end", 8, {"a": 0, "b": 0, "c": -7, "y": 0})),
        ("calls.imp", 5, 10_000, ("end", 8, {"a": 0, "b": 0, "c": -7, "y": 0})),
        # seed 7 enters the loop, which calls `subtitles` on each round
        ("subtitle_loop.imp", 7, 10, ("fuel", 10, {"b": -6, "end": 2, "tmp": 5})),
        ("subtitle_loop.imp", 7, 40, ("return", 22, {"b": 3, "end": 2, "tmp": 5})),
        ("subtitle_loop.imp", 7, 10_000, ("return", 22, {"b": 3, "end": 2, "tmp": 5})),
    ],
    ids=["overview", "calls-10", "calls-40", "calls-10000", "subtitle_loop-10", "subtitle_loop-40",
         "subtitle_loop-10000"],
)
def test_run_cfg_replays_exact_draws(fixture_text, name, seed, max_steps, expected):
    program = fe.build_cfg(fe.parse(fixture_text(name)))
    assert fe.run_cfg(program, "main", {}, random.Random(seed), max_steps) == expected


def test_steps_count_loop_iterations():
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
    run = list(fe.steps(program, "main", {"n": 7}, random.Random(0)))
    assert sum(node_id == join for node_id, _ in run) == 8  # 7 iterations plus the exiting guard check
    # each step's store is kept as it was: n as each node leaves it
    assert [store["n"] for node_id, store in run if node_id == join] == [7, 6, 5, 4, 3, 2, 1, 0]


def test_running_off_the_end_is_not_an_exit_event(run_cli, tmp_path):
    # `Exit(_)` holds only at a `return`: a run that falls off the end of
    # `main` ends with "end", and AF(Exit(_)) is violated
    path = tmp_path / "prog.imp"
    path.write_text("void main() { int y = 0; }\n")
    program = fe.build_cfg(fe.parse(path.read_text()))
    assert fe.run_cfg(program, "main", {}, random.Random(0)) == ("end", 3, {"y": 0})
    assert run_cli("verify", "--ctl", "AF(Exit(_))", path) == (1, "Violated: AF(Exit(_))\n", "")


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


# ---------------------------------------------------------------------------
# A seeded corpus of program texts and what parse and build_cfg make of each
# ---------------------------------------------------------------------------

IMP_CORPUS = pathlib.Path(__file__).parent / "goldens" / "parse_imp.json"

# texts that reach what the fixtures and generated programs do not: bare
# bodies, `+=`, `!`, `*` and constant conditions, loops left only by
# `break` or `return`, and dead code
HANDWRITTEN = [
    """//@ ctl: AG(x >= 0)
void main() {
  int x;
  int y = 0;
  x += 3;
  if (!(x > 2)) y = 1; else if (x == 3) y = 2; else { y = 3; }
  while (x > 0) x = x - 1;
  while (*) { if (y) break; y = y - 1; }
  if (*) { x = -(y - 1); }
  if (0) { x = 1; }
  while (1) { if ((x > 0) || (y < 2 && x != y)) { return x; } x = x + y - (x - y); }
}
""",
    """int f(int a, int b) {
  while (a > b) { return a; }
  while (b > 0) { while (a > 0) { if (a == 2) { break; } a = a - 1; } b = b - 1; break; }
  return b - a;
}
void main() {
  int u = f(1, 2);
  int v = ext(u, u + 1, 3);
  int w = ext();
  if (u > v) { return; u = 1; } else { u = ext2(v); }
}
""",
    """void main() {
  int i = 0;
  while (i < 10) {
    i = i + 1;
    if (i == 5) { break; i = 7; while (i > 0) { i = i - 1; } }
    i = continue_here(i);
  }
}
""",
]

DEAD = "int dd = 0; if (dd > 0) {{ dd = 1; }} while (dd < 3) {{ {stmt} }} {extra}dd = {call}; "


def _mutants(rng: random.Random, text: str) -> list[tuple[str, str]]:
    """Named variants of ``text``, each with one edit: the parse errors,
    scope problems and dead code that ``parse`` must report or read."""

    def insert_at(positions: list[int], snippet: str) -> str:
        i = rng.choice(positions) if positions else len(text)
        return text[:i] + snippet + text[i:]

    after_semicolon = [m.end() for m in re.finditer(";", text)]
    after_brace = [m.end() for m in re.finditer("{", text)]
    after_return = [m.end() for m in re.finditer(r"\breturn[^;]*;", text)]
    first_body = [m.end() for m in re.finditer(r"(?:void|int) \w+\([^)]*\)\s*{", text)]
    out = [("as-is", text)]
    if after_semicolon:
        i = rng.choice(after_semicolon)
        out.append(("drop-semicolon", text[: i - 1] + text[i:]))
    out.append(("undeclared-assignment", insert_at(after_semicolon + after_brace, " zz = 1;")))
    out.append(("break-outside-loop", insert_at(first_body, " break;")))
    for name, stmt, extra, call in [
        ("dead-code", "break;", "", "g(dd, 1)"),
        ("dead-code-undeclared", "dd = qq;", "", "g(dd)"),
        ("dead-code-stray-break", "break;", "break; ", "g()"),
    ]:
        dead = DEAD.format(stmt=stmt, extra=extra, call=call)
        if after_return:
            out.append((name, insert_at(after_return, " " + dead)))
        else:
            end = text.rindex("}")
            out.append((name, text[:end] + "return; " + dead + text[end:]))
    for name, args in [("later-callee", "a"), ("later-callee-arity", "a, 1")]:
        head = f"int first(int a) {{ int r = later({args}); return r; }}\n"
        out.append((name, head + text + "int later(int a) { return a; }\n"))
    out.append(("second-main", text + "void main() { return; }\n"))
    i = rng.randrange(len(text))
    out.append(("bad-character", text[:i] + "@" + text[i:]))
    return out


def _imp_corpus() -> list[tuple[str, str]]:
    """(name, text) of every fixture, 40 generated programs and the
    handwritten texts, each as is and in every mutant; then 60 texts with
    two mutations applied in turn, so that problems compete."""
    rng = random.Random(30)
    bases = [(p.name, p.read_text()) for p in sorted(FIXTURES.glob("*.imp"))]
    bases += [(f"oracle-{seed}", oracle_programs.program(seed)) for seed in range(1000, 1040)]
    bases += [(f"handwritten-{i}", text) for i, text in enumerate(HANDWRITTEN)]
    corpus = []
    for name, text in bases:
        corpus += [(f"{name}/{kind}", mutant) for kind, mutant in _mutants(rng, text)]
    for _ in range(60):
        name, text = rng.choice(bases)
        kind1, once = rng.choice(_mutants(rng, text)[1:])
        kind2, twice = rng.choice(_mutants(rng, once)[1:])
        corpus.append((f"{name}/{kind1}+{kind2}", twice))
    return corpus


def _node_text(node) -> str:
    if isinstance(node, fe.Start):
        return "S"
    if isinstance(node, fe.ExitNode):
        return "E"
    if isinstance(node, fe.Join):
        return "J"
    if isinstance(node, fe.Prune):
        return f"[{node.pi}]" + ("*" if node.nondet else "")
    if isinstance(node, fe.Assign):
        return f"{node.x}={node.t}"
    if isinstance(node, fe.Call):
        return f"{node.r}={node.p}({','.join(map(str, node.args))})"
    if isinstance(node, fe.Return):
        return f"ret {node.x}"
    raise TypeError(node)


def _lowered(text: str) -> str:
    """The error message, or per procedure its parameters, each node with
    its successors, the spans and loop_insert, all in dict order."""
    try:
        program = fe.build_cfg(fe.parse(text))
    except fe.ImpSyntaxError as exc:
        return f"ImpSyntaxError: {exc}"
    procs = []
    for name, proc in program.procedures.items():
        assert list(proc.trans) == list(proc.nodes)
        nodes = " ".join(
            f"{nid}:{_node_text(node)}>{','.join(map(str, proc.trans[nid]))}"
            for nid, node in proc.nodes.items()
        )
        spans = " ".join(f"{nid}@{s.start}-{s.end}" for nid, s in proc.spans.items())
        loops = " ".join(f"{j}@{at}" for j, at in proc.loop_insert.items())
        procs.append(f"{name}({','.join(proc.params)}) {proc.entry} | {nodes} | {spans} | {loops}")
    return " || ".join(procs)


def test_parse_corpus_matches_golden():
    # every CFG and error message of the frontend over the corpus, pinned;
    # to accept an intended change, delete the golden and run the test twice
    record = [[name, _lowered(text)] for name, text in _imp_corpus()]
    if not IMP_CORPUS.exists():
        IMP_CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, record)) + "\n]\n")
        pytest.fail(f"wrote missing golden {IMP_CORPUS.name}; check it and rerun")
    expected = json.loads(IMP_CORPUS.read_text())
    assert [n for n, _ in record] == [n for n, _ in expected]
    differing = [(n, got, want) for (n, got), (_, want) in zip(record, expected) if got != want]
    assert not differing
