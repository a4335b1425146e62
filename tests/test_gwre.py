import logging
import random
import re

import pytest

from ctlrepair import frontend as fe
from ctlrepair import gwre as gw
from ctlrepair import pure_logic as pl

from conftest import break_loops, derivatives, effect_corpus, kif, verdict


def summarize(source: str, memo: pl.Memo | None = None) -> gw.GwreResult:
    return gw.cfg_to_gwre(fe.build_cfg(fe.parse(source)), pl.Memo() if memo is None else memo)


def test_overview_effect_dump(fixture_text):
    res = summarize(fixture_text("overview.imp"))
    assert str(res.phi) == (
        "(y=1)@1·(i=*)@2·(x=*)@3·"
        "([i>10]@4·(x=1)@5·([x!=y]@7·(y=5)@11 \\/ [x=y]@8·((x>=y)@12)^w)"
        " \\/ [i<=10]@6·([x!=y]@9·(y=5)@11 \\/ [x=y]@10·((x>=y)@12)^w))"
    )
    assert sorted(gw.states_of(res.phi)) == list(range(1, 13))
    assert res.entry_state == 1


def test_renumber_is_dense_and_preorder():
    res = summarize(
        """//@ ctl: AF(Exit(_))
void main(int x) {
  if (x > 0) { x = 1; } else { x = 2; }
  return;
}
"""
    )
    states = gw.states_of(res.phi)
    assert sorted(states) == list(range(1, len(states) + 1))


def test_linear_form_pairs_each_leading_segment_with_its_rest():
    a, b, c, d = (gw.Ev(s=i) for i in range(1, 5))
    # equal segments are one: alternatives that begin alike share a rest
    assert gw.linear_form(gw.or_(gw.seq(a, b), gw.seq(gw.Ev(s=1), c))) == (
        [(a, gw.or_(b, c))], False
    )
    # a nullable item lets the next one lead
    assert gw.linear_form(gw.seq(gw.or_(gw.EPS, a), b)) == ([(a, b), (b, gw.EPS)], False)
    # the rest after a sequence's first event is the slice of its items
    phi = gw.seq(a, b, c)
    [(head, rest)], nullable = gw.linear_form(phi)
    assert head is a and not nullable
    assert type(rest) is gw.Seq and rest.items == phi.items[1:]
    # an omega block is never left, but stays a leading segment
    omega = gw.Omega(gw.seq(a, d))
    assert gw.linear_form(omega) == ([(omega, gw.BOT)], False)
    assert gw.linear_form(gw.CONTINUE) == ([], True)
    with pytest.raises(ValueError):
        gw.Omega(gw.EPS)


def test_sequences_and_choices_are_flat():
    a, b, c, d = (gw.Ev(s=i) for i in range(1, 5))
    g = gw.Guard(pl.TRUE, 5)
    left = gw.seq(gw.seq(gw.seq(a, gw.or_(gw.or_(b, g), c)), gw.EPS), d)
    right = gw.seq(a, gw.seq(gw.or_(b, gw.or_(g, c)), gw.seq(gw.EPS, d)))
    assert left == right == gw.Seq((a, gw.OrRe((b, g, c)), d))
    assert str(left) == str(right) == "(T)@1·((T)@2 \\/ [T]@5 \\/ (T)@3)·(T)@4"
    assert gw.seq(a, gw.BOT, b) == gw.BOT
    assert gw.or_(gw.BOT, a, gw.BOT) == a
    assert gw.seq() == gw.EPS and gw.or_() == gw.BOT


def test_loop_branch_substitution_sequences_assignments():
    # x = x + 1; y = x; z = *: y reads the updated x, and the wildcard stays
    guard, moves = gw._loop_branch(
        [
            gw.Ev(s=1, assigns=(("x", pl.Add(pl.Var("x"), pl.Const(1))),)),
            gw.Ev(s=2, assigns=(("y", pl.Var("x")), ("z", pl.Wildcard()))),
        ]
    )
    assert guard == pl.TRUE
    assert list(moves) == ["x", "y", "z"]
    assert pl.eval_term(moves["y"], {"x": 5, "y": 0}) == 6
    assert moves["z"] == pl.Wildcard()


def test_pure_of_gwre_collects_guard_atoms(fixture_text):
    res = summarize(fixture_text("overview.imp"))
    pures = {str(p) for p in gw.pure_of_gwre(res.phi)}
    assert "i>10" in pures
    assert "x=y" in pures


def test_equal_guard_loop_summary(fixture_text):
    res = summarize(fixture_text("equal_guard.imp"))
    (summary,) = res.summaries
    assert str(summary.guard) == "x=y"
    assert isinstance(summary.phases[0].pi_t, pl.FalseP)
    assert str(summary.omega_condition) == "x=y"
    assert not summary.always_terminates


def test_multiphase_summaries(fixture_text):
    res1 = summarize(fixture_text("multiphase1.imp"))
    (s1,) = res1.summaries
    assert s1.always_terminates
    assert len(s1.phases) == 2
    assert isinstance(s1.omega_condition, pl.FalseP)

    res2 = summarize(fixture_text("multiphase2.imp"))
    (s2,) = res2.summaries
    assert s2.always_terminates
    assert len(s2.phases) == 3


def test_summary_invariants_on_every_fixture(fixtures_dir):
    checked = 0
    for path in sorted(fixtures_dir.glob("*.imp")):
        memo = pl.Memo()
        try:
            res = summarize(path.read_text(), memo)
        except (fe.ImpSyntaxError, gw.SummaryInconclusive):
            continue
        for s in res.summaries:
            assert s.always_terminates == isinstance(s.omega_condition, pl.FalseP), path.name
            if not s.always_terminates:
                assert pl.satisfiable(pl.mk_and(s.guard, s.omega_condition), memo), path.name
            # a T guard is also how a nondeterministic guard is kept
            if not isinstance(s.guard, pl.TrueP):
                assert s.phases, path.name
            checked += 1
    assert checked >= 10


# Loops whose summary once claimed behaviour that concrete runs do not have:
# no lower bound on the ranking function (A1-A3), a recurrent set that
# ignores the guard (B), a termination region that runs can leave (C), a
# leak that fires only after some clean iterations (D1, D2), and a leak on
# the first iteration from a store where the ranking function is below -1
# (D3: from n = -1 the loop breaks at once, then spins).
UNSOUND_SUMMARY_REPROS = {
    "A1": "while (n != 2) { n = n - 1; }",
    "A2": "while (n != y) { y = y - 2; }",
    "A3": "while (y < n) { if (y <= n) { n = n + 2; } else { y = 1; } }",
    "B": "if (x == 8) { y = 8; while (x == y) { y = 7; } }",
    "C": "if (y >= -1) { while (y != 1) { y = -2; } }",
    "D1": "if (n >= 5) { while (1) { if (n <= 2) { break; } n = n - 1; } while (1) { } }",
    "D2": (
        "if (n >= 5) { while (n > 0) { n = n - 1;"
        " if (n == 2) { y = 1; while (y > 0) { } } } }"
    ),
    "D3": "while (1) { if (n <= 0) { break; } n = n - 1; } if (n < 0) { while (1) { } }",
}


@pytest.mark.parametrize("name", sorted(UNSOUND_SUMMARY_REPROS))
def test_verdict_agrees_with_concrete_runs(name):
    source = (
        "//@ ctl: AF(Exit(_))\nvoid main() {\n  int y = *;\n  int n = *;\n  int x = *;\n"
        f"  {UNSOUND_SUMMARY_REPROS[name]}\n  return;\n}}\n"
    )
    found = verdict(source)
    program = fe.build_cfg(fe.parse(source))
    statuses = {
        fe.run_cfg(program, "main", {}, random.Random(seed), max_steps=2000)[0]
        for seed in range(64)
    }
    if found == "holds":
        assert statuses == {"return"}
    elif found == "violated":
        assert "fuel" in statuses


def test_exit_event_is_exact_only_if_the_guard_lasts_rf_iterations():
    # y > 0 can end the loop before x reaches 10 (from y = 3 it ends at
    # x = 3 and then spins), so the exit event must not set x to 10
    source = """//@ ctl: AF(Exit(_))
void main() {
  int x = 0;
  int y = *;
  while (x < 10 && y > 0) { x = x + 1; y = y - 1; }
  if (x == 3) { while (1) { } }
  return;
}
"""
    assert "x=10" not in str(summarize(source).phi)
    assert verdict(source) == "violated"


def test_havoc_of_a_guard_variable_is_not_hoisted():
    # the guard reads x before every iteration, so x = * is no loop
    # constant; hoisted out of the loop, the guard read the havocked x and
    # this loop, which no run enters, was reported Violated
    source = """//@ ctl: AF(Exit(_))
void main() {
  int x = 0;
  int y = 0;
  while (y > x) { x = *; }
  return;
}
"""
    assert verdict(source) in ("holds", "unknown")


def test_leak_that_may_be_skipped_keeps_the_guard_exit():
    # `if (*)` may skip the return on every iteration, so a run can leave
    # through the guard into the endless loop below
    source = """//@ ctl: AF(Exit(_))
void main() {
  int n = *;
  if (n > 5) {
    while (n > 0) { if (*) { return; } n = n - 1; }
    while (1) { }
  }
  return;
}
"""
    assert verdict(source) == "violated"


def test_guard_exit_holds_no_state_whose_leak_fires_on_the_way():
    # from n = 5 every run breaks at n = 3 (n != 3 holds at both ends of
    # 5..1 but not between), so D2 must not take it out with n = 0
    res = summarize(
        """//@ ctl: AF(Exit(_))
void main() {
  int n = *;
  if (n >= 5) {
    while (n > 0) { if (n == 3) { break; } n = n - 1; }
    if (n == 3) { while (1) { } }
  }
  return;
}
"""
    )
    d2_guards = [
        path[i - 1].pi
        for path in gw._paths(res.phi)
        for i, seg in enumerate(path)
        if isinstance(seg, gw.Ev) and res.origins[seg.s].kind == "exit-event"
    ]
    n_is_5 = pl.Bop(pl.EQ, pl.Var("n"), pl.Const(5))
    assert d2_guards
    assert not any(pl.satisfiable(pl.mk_and(pi, n_is_5), pl.Memo()) for pi in d2_guards)


def test_break_in_an_inner_loop_ends_that_loop():
    # the inner break leaves for the outer body's `a = a - 1`; walked past
    # the outer loop's head it summarized the outer loop again, without end
    source = """//@ ctl: AF(Exit(_))
void main() {
  int a = *;
  while (a > 0) {
    int b = 5;
    while (b > 0) { if (b == 3) { break; } b = b - 1; }
    a = a - 1;
  }
  return;
}
"""
    assert verdict(source) == "holds"


@pytest.mark.parametrize("n", [2, 3, 5])
def test_code_after_a_loop_is_summarized_once(n):
    # a break path used to lower every later loop again: 2^n - 1 summaries
    res = summarize(break_loops(n))
    assert len(res.summaries) == n
    assert len(gw.states_of(res.phi)) == 7 * n + 1


def test_loop_after_ifs_is_summarized_once_per_branch_into_it():
    # each loop was summarized once per path into it, 2^k times; a walk
    # memoised on its node summarizes it once per branch of the last if
    counts = {k: len(summarize(kif(k)).summaries) for k in range(1, 11)}
    assert set(counts.values()) == {2}, counts


def _gwre_sizes(caplog, source: str, memo: pl.Memo) -> list[int]:
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ctlrepair.gwre"):
        summarize(source, memo)
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("gwre:")]
    return [int(n) for n in re.findall(r"\d+", line)]


def test_cfg_to_gwre_logs_its_sizes(caplog):
    # CFG nodes, distinct effect nodes, leaves the tree would have,
    # summaries, rankings from the memo, states, row-limit give-ups, and
    # the automaton's states and edges: the
    # DAG grows with the program (44 and 72 nodes), the tree it reads as
    # with its paths (127 and 2,047 leaves); the loop after the ifs is
    # summarized once per branch into it, and ranked once
    assert _gwre_sizes(caplog, kif(4), pl.Memo()) == [24, 44, 127, 2, 1, 20, 0, 16, 21]
    memo = pl.Memo()
    assert _gwre_sizes(caplog, kif(8), memo) == [40, 72, 2047, 2, 1, 32, 0, 24, 33]
    # within one memo, a second analysis ranks no loop again
    assert _gwre_sizes(caplog, kif(8), memo) == [40, 72, 2047, 2, 2, 32, 0, 24, 33]


def test_omega_guard_drops_refuted_disjuncts(fixture_text):
    # the outer loop's D3 guard is (n-step+1<0 \/ step<=0) /\ (0>=step \/
    # 0<step /\ n-step+1>=0); two of its DNF disjuncts are unsatisfiable
    res = summarize(fixture_text("nested.imp"))
    outer = next(s for s in res.summaries if isinstance(s.guard, pl.TrueP))
    assert str(outer.omega_condition) == "0>=step"


def test_inconclusive_loop_raises(fixture_text):
    with pytest.raises(gw.SummaryInconclusive):
        summarize(fixture_text("unknown.imp"))


def test_loop_summary_without_behaviour_is_unknown(fixture_text):
    # the body flips between the phases k-1 and -k forever, yet both are
    # accepted as a phase chain; every run with n >= 6 enters the loop
    assert verdict(fixture_text("phase_flip.imp")) == "unknown"


def test_unsupported_missing_procedure():
    program = fe.build_cfg(fe.parse("void helper() { return; }"))
    with pytest.raises(gw.UnsupportedProgram):
        gw.cfg_to_gwre(program, pl.Memo())


def test_simulate_trace_matches_states(fixture_text):
    res = summarize(fixture_text("overview.imp"))
    valid = set(gw.states_of(res.phi))
    sim = gw.simulate(res.phi, fuel=30, rng=random.Random(3))
    assert sim.status in ("end", "fuel")
    assert sim.trace, "a trace must make progress"
    for state, _text in sim.trace:
        assert state in valid


def test_simulate_respects_store():
    def simulate(x):
        res = summarize(
            f"""//@ ctl: AF(Exit(_))
void main() {{
  int x = {x};
  int y = 0;
  if (x > 0) {{ y = 1; }}
  return;
}}
"""
        )
        return gw.simulate(res.phi, fuel=20, rng=random.Random(0))

    # with x > 0 the guarded branch must be taken and y ends at 1
    assert simulate(5).store["y"] == 1
    assert simulate(-5).store["y"] == 0


def test_simulate_deterministic_for_seed(fixture_text):
    res = summarize(fixture_text("overview.imp"))
    a = gw.simulate(res.phi, fuel=25, rng=random.Random(9))
    b = gw.simulate(res.phi, fuel=25, rng=random.Random(9))
    assert a.trace == b.trace and a.store == b.store and a.status == b.status


def test_simulate_replays_exact_draws(fixture_text):
    res = summarize(fixture_text("overview.imp"))
    sim = gw.simulate(res.phi, fuel=40, rng=random.Random(3))
    assert sim.store == {"y": 5, "i": 3, "x": -6}


def test_loop_branch_through_an_omega_block_is_unknown():
    # f never returns, so the loop body never comes back to its head; read
    # up to f's omega block the branch would look like a countdown
    source = """//@ ctl: AF(Exit(_))
int f(int a) {
  while (1) { }
  return a;
}
void main() {
  int x = *;
  while (x > 0) {
    x = x - 1;
    x = f(x);
  }
  return;
}
"""
    assert verdict(source) == "unknown"


_LOOPING_CALLEES = """//@ ctl: AF(Exit(_))
int count(int n) {
  int i = 0;
  while (i < n) { i = i + 1; }
  return i;
}
int spin(int k) {
  if (k > 5) { return; }
  while (1) { }
  return k;
}
void main() {
  int a = *;
  int b = count(a);
  int c = count(b);
  int d = spin(c);
  return;
}
"""


def test_inlining_callees_with_loops_and_a_bare_return(run_cli, tmp_path):
    # one rewrite per call freshens the callee's names and states, keeps its
    # loop summaries, and makes each Exit block, with a value (count) or
    # without one (spin's bare return), an assignment to the result; spin's
    # omega block stays one
    source = tmp_path / "callees.imp"
    source.write_text(_LOOPING_CALLEES)
    code, out, _ = run_cli("dump-gwre", source)
    assert code == 0
    assert out == (
        "(a=*)@1·(n__19=a)@2·(i__19=0)@3·([i__19>=n__19]@4"
        "·(b=i__19)@7 \\/ [i__19<n__19]@5·(i__19=n__19, i__19>=n__19)@6"
        "·(b=i__19)@7)·(n__20=b)@8·(i__20=0)@9·([i__20>=n__20]@10"
        "·(c=i__20)@11 \\/ [i__20<n__20]@13·(i__20=n__20, i__20>=n__20)@14"
        "·(c=i__20)@11)·(k__21=c)@12·([k__21>5]@15·(d=*)@16 \\/ [k__21<=5]@17"
        "·((T)@19)^w)·((Exit())@18)^w\n"
    )
    code, out, _ = run_cli("dump-datalog", source)
    assert code == 0
    assert out == """flow(3, 4) :- GtEqVar("i__19", "n__19", 3).
flow(9, 10) :- GtEqVar("i__20", "n__20", 9).
flow(12, 15) :- Gt("k__21", 5, 12).
flow(12, 17) :- LtEq("k__21", 5, 12).
flow(9, 13) :- LtVar("i__20", "n__20", 9).
flow(3, 5) :- LtVar("i__19", "n__19", 3).
Exit(S) :- Exit(S).
AFT_Exit(S, S1) :- Cyc(S), !Exit(S), flow(S, S1).
AFT_Exit(S, S1) :- AFT_Exit(S, S2), !Exit(S2), flow(S2, S1).
AFS_Exit(S) :- AFT_Exit(S, S).
AFS_Exit(S) :- !Exit(S), flow(S, S1), AFS_Exit(S1).
AF_Exit(S) :- State(S), !AFS_Exit(S).
flow(1, 2).
flow(2, 3).
GtEqVar("i__19", "n__19", 3).
LtVar("i__19", "n__19", 3).
flow(4, 7).
flow(7, 8).
flow(8, 9).
GtEqVar("i__20", "n__20", 9).
flow(10, 11).
flow(11, 12).
LtEq("k__21", 5, 12).
flow(15, 16).
flow(16, 18).
flow(18, 18).
flow(17, 19).
flow(19, 19).
flow(13, 14).
flow(14, 11).
flow(5, 6).
GtEqVar("i__19", "n__19", 6).
flow(6, 7).
LtVar("i__20", "n__20", 9).
GtEqVar("i__20", "n__20", 14).
Gt("k__21", 5, 12).
Exit(18).
State(1).
State(2).
State(3).
State(4).
State(7).
State(8).
State(9).
State(10).
State(11).
State(12).
State(15).
State(16).
State(18).
State(17).
State(19).
State(13).
State(14).
State(5).
State(6).
Cyc(18).
Cyc(19).
"""


def _diamonds(n: int) -> gw.Re:
    """``n`` diamonds in a chain: each a guard, then a choice whose two
    alternatives are one object, the diamond before it."""
    d = gw.Ev(s=0)
    for i in range(1, n + 1):
        d = gw.seq(gw.Guard(pl.TRUE, i), gw.or_(d, d))
    return d


def test_effect_walks_visit_a_shared_node_once():
    d = _diamonds(60)
    assert gw._tree_size(d) == (181, 2**61 - 1)
    node = gw._map_states(d, {i: i + 100 for i in range(61)})
    for i in range(60, 0, -1):
        guard, choice = node.items
        assert guard == gw.Guard(pl.TRUE, i + 100)
        left, right = choice.alts
        assert left is right
        node = left
    assert node == gw.Ev(s=100)


def test_effect_walks_do_not_recurse_as_deep_as_the_effect_nests():
    e = gw.Ev(s=0)
    for i in range(1, 3001):
        e = gw.or_(gw.seq(gw.Guard(pl.TRUE, i), e), gw.Ev(s=-i))
    assert gw._tree_size(e) == (12001, 6001)
    node = gw._map_states(e, {0: 7, 1: 8})
    assert gw._tree_size(node) == (12001, 6001)
    for i in range(3000, 0, -1):
        path, other = node.alts
        guard, node = path.items
        assert guard.s == (8 if i == 1 else i) and other == gw.Ev(s=-i)
    assert node == gw.Ev(s=7)


def test_automaton_states_are_the_linear_forms_of_their_derivatives():
    # and two states never stand for equal effects
    states = 0
    for name, result in effect_corpus():
        a = gw.automaton(result.phi)
        effects = derivatives(a, result.phi)
        assert effects.keys() == a.pairs.keys(), name
        assert len({str(effect) for effect in effects.values()}) == len(effects), name
        states += len(a.pairs)
    assert states > 10_000


def test_automaton_keys_equal_leaves_once_and_unequal_leaves_apart():
    # four leaves at state 1, two of each value, each a node of its own
    x = [gw.Ev(s=1, assigns=(("x", pl.Const(c)),)) for c in (1, 1, 2, 2)]
    phi = gw.or_(*(gw.seq(ev, gw.Ev(s=10 + i)) for i, ev in enumerate(x)))
    a = gw.automaton(phi)
    (first, k1, n1), (second, k2, n2) = a.pairs[a.start]
    assert first is x[0] and second is x[2] and k1 != k2
    effects = derivatives(a, phi)
    assert effects[n1] == gw.or_(gw.Ev(s=10), gw.Ev(s=11))
    assert effects[n2] == gw.or_(gw.Ev(s=12), gw.Ev(s=13))


def _simulate_by_linear_form(phi, fuel, rng):
    """``gw.simulate`` as it read each step's linear form off the effect."""
    store, trace = {}, []

    def draw():
        return rng.randint(-8, 8)

    current = phi
    for _ in range(fuel):
        pairs, nullable = gw.linear_form(current)
        options = [
            (f, rest) for f, rest in pairs
            if not isinstance(f, gw.Guard) or pl.eval_pure(f.pi, store, draw)
        ]
        if not options:
            return gw.SimResult(trace, "end" if nullable else "stuck", store)
        f, rest = rng.choice(options)
        if isinstance(f, gw.Omega):
            current = gw.seq(f.body, f)
            continue
        if isinstance(f, gw.Ev):
            for v, t in f.assigns:
                store[v] = pl.eval_term(t, store, draw)
            if not pl.eval_pure(f.constraint, store, draw):
                return gw.SimResult(trace, "stuck", store)
        trace.append((f.s, str(f)))
        current = rest
    return gw.SimResult(trace, "fuel", store)


def test_simulate_draws_as_the_linear_form_walk():
    for name, result in effect_corpus()[::3]:
        for seed in range(3):
            expected = _simulate_by_linear_form(result.phi, 60, random.Random(seed))
            assert gw.simulate(result.phi, 60, random.Random(seed)) == expected, (name, seed)
