"""End-to-end acceptance suite.

Nine criteria: golden reproductions of the worked examples (1-5) and
randomized oracle-equivalence properties (6-9), each with a wall-clock
budget.
"""

import itertools
import json
import random

import pytest

from ctlrepair import ctl
from ctlrepair import encode
from ctlrepair import frontend as fe
from ctlrepair import gwre as gw
from ctlrepair import pure_logic as pl
from ctlrepair import repair as rp
from ctlrepair import sedl
from ctlrepair.datalog_engine import (
    Atom,
    DatalogProgram,
    DVar,
    Literal,
    Rule,
    evaluate,
    parse_program,
    stratify,
)

import oracle_programs
from conftest import Stopwatch, break_loops, execute_alone, ifs, verdict


def _database(analysis):
    """Every atom of the analysis's evaluation, input facts included."""
    return evaluate(DatalogProgram(rules=list(analysis.rules), facts=list(analysis.enc.facts)))


# ===========================================================================
# 1. Overview pipeline golden
# ===========================================================================


def test_criterion_1_overview_pipeline(fixture_text):
    watch = Stopwatch(1.0)
    src = fixture_text("overview.imp")

    # guarded-effect structure
    res = gw.cfg_to_gwre(fe.build_cfg(fe.parse(src)), pl.Memo())
    assert str(res.phi) == (
        "(y=1)@1·(i=*)@2·(x=*)@3·"
        "([i>10]@4·(x=1)@5·([x!=y]@7·(y=5)@11 \\/ [x=y]@8·((x>=y)@12)^w)"
        " \\/ [i<=10]@6·([x!=y]@9·(y=5)@11 \\/ [x=y]@10·((x>=y)@12)^w))"
    )
    assert sorted(gw.states_of(res.phi)) == list(range(1, 13))

    # Datalog encoding, up to naming: the transition skeleton and every
    # guarded transition must coincide with the published program
    analysis = rp.analyze(src)
    enc = analysis.enc
    flows = {f.args for f in enc.facts if f.predicate == "flow"}
    assert flows == {
        (1, 2), (2, 3), (4, 5), (7, 11), (8, 12), (9, 11), (10, 12),
        (11, 11), (12, 12),
    }
    assert {str(r) for r in enc.rules} == {
        'flow(3, 4) :- Gt("i", 10, 3).',
        'flow(3, 6) :- LtEq("i", 10, 3).',
        'flow(5, 7) :- NeqVar("x", "y", 5).',
        'flow(5, 8) :- EqVar("x", "y", 5).',
        'flow(6, 9) :- NeqVar("x", "y", 6).',
        'flow(6, 10) :- EqVar("x", "y", 6).',
    }
    facts = set(enc.facts)
    assert {Atom("State", (s,)) for s in range(1, 13)} <= facts
    assert Atom("Eq", ("y", 5, 11)) in facts
    assert Atom("Gt", ("i", 10, 2)) in facts
    assert Atom("EqVar", ("x", "y", 3)) in facts

    # the property fails at the entry state
    target = Atom("AF_yEQ5", (1,))
    assert analysis.target == target
    assert target not in _database(analysis)
    assert not analysis.holds

    # deleting the branch-condition fact families restores the property
    gt_key = enc.fact_family[Atom("Gt", ("i", 10, 2))]
    eq_key = enc.fact_family[Atom("EqVar", ("x", "y", 3))]
    remaining = [f for f in enc.facts if enc.fact_family.get(f) not in (gt_key, eq_key)]
    idb = evaluate(DatalogProgram(rules=list(analysis.rules), facts=remaining))
    assert target in idb
    watch.check()


# ===========================================================================
# 2. Repair golden
# ===========================================================================


def test_criterion_2_overview_repair(fixture_text):
    watch = Stopwatch(5.0)
    src = fixture_text("overview.imp")

    # depth 1: the top-ranked patch adds y=5 inside the stuck loop
    result = rp.repair_loop(src, rp.RepairConfig(depth=1))
    assert result.verdict == "Repaired"
    top = result.patches[0].to_json()
    assert top["deltas"] == [{"op": "add", "fact": 'Eq("y", 5, 12)'}]
    (edit,) = top["source_edits"]
    assert edit["kind"] == "insert-assign"
    assert edit["var"] == "y" and edit["value"] == 5

    # the reported constraint contains both published disjuncts for the
    # assignment-shape run whose signed facts are the six branch/effect facts
    golden_xi = {
        "xi1": 'Gt("i", 10, 2)',
        "xi2": 'LtEq("i", 10, 2)',
        "xi3": 'NeqVar("x", "y", 3)',
        "xi4": 'EqVar("x", "y", 3)',
        "xi5": 'EqVar("x", "y", 5)',
        "xi6": 'Eq("y", 5, 11)',
    }
    run = next(
        r
        for r in result.constraints["update"]
        if r["shape"] == "Eq/3" and {k: v for k, v in r["xi"].items() if k != "xiA"} == golden_xi
    )

    def norm(d):
        return (
            tuple(sorted(d["alpha_bindings"].items())),
            frozenset(d["sign_true"]),
            frozenset(d["sign_false"]),
        )

    seen = {norm(d) for d in run["disjuncts"]}
    # (a) delete the two branch facts, keep everything else, add nothing
    assert (
        (),
        frozenset({"xi2", "xi3", "xi5", "xi6"}),
        frozenset({"xi1", "xi4", "xiA"}),
    ) in seen
    # (b) keep every existing fact and add the assignment fact y=5 at state 12
    assert (
        (("alpha1", "y"), ("alpha2", 5), ("alpha3", 12)),
        frozenset({"xi1", "xi2", "xi3", "xi4", "xi5", "xi6", "xiA"}),
        frozenset(),
    ) in seen

    # depth 2 additionally finds the early-exit patch guarding both branch
    # conditions, completed by a second repair round
    result2 = rp.repair_loop(src, rp.RepairConfig(depth=2))
    early = [
        p
        for p in result2.patches
        if p.iterations > 1
        and any(
            e.to_json().get("condition") == "i > 10 || x == y" for e in p.edits
        )
    ]
    assert early, "the two-round early-exit patch must be found at depth 2"
    deltas = [d.to_json() for d in early[0].deltas]
    assert {"op": "delete", "fact": 'Gt("i", 10, 2)'} in deltas
    assert {"op": "delete", "fact": 'EqVar("x", "y", 3)'} in deltas
    watch.check()


# ===========================================================================
# 3. Loop-summary goldens
# ===========================================================================


def test_criterion_3_loop_summaries(fixture_text):
    watch = Stopwatch(2.0)

    # (i) while (x == y) {} — never terminates once entered
    res = gw.cfg_to_gwre(fe.build_cfg(fe.parse(fixture_text("equal_guard.imp"))), pl.Memo())
    (summary,) = res.summaries
    assert str(summary.guard) == "x=y"
    assert isinstance(summary.phases[0].pi_t, pl.FalseP)
    assert not summary.always_terminates
    assert str(summary.omega_condition) == "x=y"

    # (ii) nested loops: the inner loop's termination precondition, taken at
    # the loop entry m=0, is exactly step >= 1
    memo = pl.Memo()
    res = gw.cfg_to_gwre(fe.build_cfg(fe.parse(fixture_text("nested.imp"))), memo)
    inner = next(s for s in res.summaries if str(s.guard) == "m<step")
    wpc = pl.subst_pure(pl.mk_and(inner.guard, inner.phases[0].pi_t), {"m": pl.Const(0)})
    step_ge_1 = pl.Bop(pl.GTEQ, pl.Var("step"), pl.Const(1))
    assert pl.entails(wpc, step_ge_1, memo)
    assert pl.entails(step_ge_1, wpc, memo)
    assert verdict(fixture_text("nested.imp")) == "holds"

    # (iii) both multiphase loops always terminate (precondition T)
    for name, n_phases in (("multiphase1.imp", 2), ("multiphase2.imp", 3)):
        res = gw.cfg_to_gwre(fe.build_cfg(fe.parse(fixture_text(name))), pl.Memo())
        (s,) = res.summaries
        assert s.always_terminates, name
        assert len(s.phases) == n_phases, name
        assert verdict(fixture_text(name)) == "holds"

    # (iv) x = x - * admits no conclusive ranking argument
    assert verdict(fixture_text("unknown.imp")) == "unknown"
    watch.check()


# ===========================================================================
# 4. Liveness repair goldens
# ===========================================================================


def test_criterion_4_infinite_loop_repair(fixture_text):
    watch = Stopwatch(5.0)
    result = rp.repair_loop(fixture_text("infinite.imp"), rp.RepairConfig())
    assert result.verdict == "Repaired"
    updates = [
        d.to_json()
        for p in result.patches
        for d in p.deltas
        if d.to_json().get("op") == "update"
    ]
    assert {
        "op": "update",
        "old": 'LtEq("y", 0, 4)',
        "new": 'GtEq("y", 1, 4)',
    } in updates
    watch.check()


def test_criterion_4_ffmpeg_shaped_repair(fixture_text):
    watch = Stopwatch(5.0)
    result = rp.repair_loop(fixture_text("subtitle_loop.imp"), rp.RepairConfig())
    assert result.verdict == "Repaired"
    top = result.patches[0]
    assert all(d.op == "delete" for d in top.deltas)
    assert [d.to_json() for d in top.deltas] == [
        {"op": "delete", "fact": 'LtEq("tmp", 0, 3)'}
    ]
    watch.check()


# ===========================================================================
# 5. Symbolic-execution goldens
# ===========================================================================


def test_criterion_5_symbolic_execution_goldens():
    watch = Stopwatch(1.0)
    rules3 = parse_program(
        """
a(X) :- b(X), c(X), !d(X), !e(X).
a(X) :- d(X).
a(X) :- e(X), !c(X).
"""
    ).rules
    a1, a2 = sedl.Alpha("alpha1"), sedl.Alpha("alpha2")
    symbolic = [
        sedl.SymbolicFact(Atom("b", (a1,)), xi="xi1"),
        sedl.SymbolicFact(Atom("c", (a2,)), xi="xi2"),
    ]
    n1, n2 = sedl.placeholder(1), sedl.placeholder(2)
    # each symbolic constant over both placeholders
    valuations = [{"alpha1": v1, "alpha2": v2} for v1 in (n1, n2) for v2 in (n1, n2)]

    def all_worlds(names):
        return [
            frozenset(off)
            for r in range(len(names) + 1)
            for off in itertools.combinations(names, r)
        ]

    # dependent fact sets under negation: all three, not just {d(1)}
    facts = [
        (Atom("b", (1,)), "xb"),
        (Atom("c", (1,)), "xc"),
        (Atom("d", (1,)), "xd"),
        (Atom("e", (1,)), "xe"),
    ]
    psi = execute_alone(
        rules3,
        [sedl.SymbolicFact(atom, xi=name) for atom, name in facts],
        Atom("a", (1,)),
        16,
        [{}],
        all_worlds([name for _, name in facts]),
    )
    present = {frozenset(d.sign_true) for d in psi.disjuncts}
    assert {s for s in present if not any(other < s for other in present)} == {
        frozenset({"xd"}),
        frozenset({"xe"}),
        frozenset({"xb", "xc"}),
    }

    # full constraint for the single-rule program: exactly the printed
    # two-disjunct formula
    first_rule = parse_program("a(X) :- b(X), c(X), !d(X), !e(X).").rules
    psi = execute_alone(
        first_rule, symbolic, Atom("a", (1,)), 16, valuations, all_worlds(["xi1", "xi2"])
    )
    assert {
        (
            tuple(sorted(d.alpha.items())),
            tuple(sorted(d.bindings.items())),
            frozenset(d.sign_true),
            frozenset(d.sign_false),
        )
        for d in psi.disjuncts
    } == {
        ((("alpha1", n1), ("alpha2", n1)), ((n1, 1),), frozenset({"xi1", "xi2"}), frozenset()),
        ((("alpha1", n2), ("alpha2", n2)), ((n2, 1),), frozenset({"xi1", "xi2"}), frozenset()),
    }

    # of the 4 candidate valuations only the 2 diagonal ones derive a(1)
    prune_rules = parse_program("a(X) :- b(X), c(X), !d(X).").rules
    prune_facts = [
        sedl.SymbolicFact(Atom("b", (a1,))),
        sedl.SymbolicFact(Atom("c", (a2,))),
        sedl.SymbolicFact(Atom("d", (1,)), xi="xi1"),
    ]
    psi = execute_alone(
        prune_rules, prune_facts, Atom("a", (1,)), 16, valuations, all_worlds(["xi1"])
    )
    assert {tuple(sorted(d.alpha.items())) for d in psi.disjuncts} == {
        (("alpha1", n1), ("alpha2", n1)),
        (("alpha1", n2), ("alpha2", n2)),
    }
    watch.check()


# ===========================================================================
# 6. Property-encoding oracle equivalence
# ===========================================================================

APS = ("p", "q", "r")


def _random_kripke(rng):
    n = rng.randint(1, 8)
    states = list(range(1, n + 1))
    label = {s: {v for v in APS if rng.random() < 0.4} for s in states}
    succ = {s: {rng.choice(states)} for s in states}  # totality
    for s in states:
        for t in states:
            if rng.random() < 0.2:
                succ[s].add(t)
    return states, succ, label


def _random_formula(rng, depth):
    """A random core formula; a surface operator comes as parse_ctl builds it."""
    if depth == 0 or rng.random() < 0.3:
        v = rng.choice(APS)
        return ctl.AP(f"{v}EQ1", pl.Bop(pl.EQ, pl.Var(v), pl.Const(1)))
    kind = rng.choice("n x X f F g G a o i u U".split())
    sub = lambda: _random_formula(rng, depth - 1)
    return {
        "n": lambda: ctl.Not(sub()),
        "x": lambda: ctl.EX(sub()),
        "X": lambda: ctl._UNARY["AX"](sub()),
        "f": lambda: ctl.EF(sub()),
        "F": lambda: ctl.AF(sub()),
        "g": lambda: ctl._UNARY["EG"](sub()),
        "G": lambda: ctl._UNARY["AG"](sub()),
        "a": lambda: ctl.CAnd(sub(), sub()),
        "o": lambda: ctl.COr(sub(), sub()),
        "i": lambda: ctl.COr(ctl.Not(sub()), sub()),
        "u": lambda: ctl.EU(sub(), sub()),
        "U": lambda: ctl._UNTIL["AU"](sub(), sub()),
    }[kind]()


def _labelled(label):
    """An atom ``v = 1`` holds at ``s`` where ``label[s]`` holds ``v``."""
    return lambda s, ap: ap.pure.left.name in label[s]


def _kripke_labels(core, states, succ, label, guarded=(), enabled=()):
    """The states the Datalog translation of ``core`` labels, over ``succ``
    as flow facts plus each guarded edge ``(s, t)`` as the rule
    ``flow(s, t) :- G(s)``, where ``G(s)`` holds for ``s`` in ``enabled``."""
    edges = [(s, t) for s in states for t in sorted(succ[s])]
    facts = [Atom("State", (s,)) for s in states]
    facts += [Atom("flow", e) for e in edges]
    facts += [Atom("Cyc", (b,)) for b in ctl.cycle_heads(edges + list(guarded), states)]
    facts += [Atom("Eq", (v, 1, s)) for s in states for v in sorted(label[s])]
    facts += [Atom("G", (s,)) for s in enabled]
    top, rules, _ = ctl.ctl_to_datalog(core)
    rules += [Rule(Atom("flow", e), (Literal(Atom("G", e[:1])),)) for e in guarded]
    idb = evaluate(DatalogProgram(rules=rules, facts=facts))
    return {s for s in states if Atom(top, (s,)) in idb}


def test_criterion_6_encoding_matches_explicit_checker():
    watch = Stopwatch(60.0)
    rng = random.Random(66)
    for _ in range(500):
        states, succ, label = _random_kripke(rng)
        core = _random_formula(rng, rng.randint(1, 3))
        assert _kripke_labels(core, states, succ, label) == oracle_programs.explicit_check(
            core, states, succ, _labelled(label)
        ), f"mismatch for {core} on flow={succ} label={label}"
    watch.check()


def test_criterion_6_seeds_cover_every_enabled_subgraph():
    # Cyc is computed over every potential edge, guarded ones included, and
    # must still seed each cycle when only some guards hold
    watch = Stopwatch(60.0)
    rng = random.Random(67)
    for _ in range(500):
        states, succ, label = _random_kripke(rng)
        core = _random_formula(rng, rng.randint(1, 3))
        guarded = [(s, t) for s in states for t in sorted(succ[s]) if rng.random() < 1 / 3]
        enabled = [s for s in states if rng.random() < 0.5]
        plain = {s: {t for t in succ[s] if (s, t) not in guarded} for s in states}
        live = {s: set(plain[s]) for s in states}
        for s, t in guarded:
            if s in enabled:
                live[s].add(t)
        assert _kripke_labels(core, states, plain, label, guarded, enabled) == oracle_programs.explicit_check(
            core, states, live, _labelled(label)
        ), f"mismatch for {core} on flow={plain} guarded={guarded} enabled={enabled}"
    watch.check()


def test_seeded_lasso_labels_as_the_unseeded_one(fixtures_dir):
    # every cycle passes through a Cyc state, so starting the AF lasso only
    # there derives the same AF and AFS atoms as starting it everywhere
    watch = Stopwatch(60.0)
    sources = [p.read_text() for p in sorted(fixtures_dir.glob("*.imp"))]
    sources += [oracle_programs.program(seed) for seed in range(1000, 1200)]

    def af(db):
        return {f for f in db if f.predicate.startswith(("AF_", "AFS_"))}

    compared = 0
    for source in sources:
        try:
            analysis = rp.analyze(source)
        except (fe.ImpSyntaxError, rp.PropertyMissing):
            continue
        if analysis.unknown:
            continue
        unseeded = [
            Rule(r.head, tuple(lit for lit in r.body if lit.atom.predicate != "Cyc"))
            for r in analysis.rules
        ]
        idb = evaluate(DatalogProgram(rules=unseeded, facts=list(analysis.enc.facts)))
        assert af(_database(analysis)) == af(idb), source
        compared += 1
    assert compared > 100
    watch.check()


# ===========================================================================
# 7. Engine oracle equivalence (semi-naive vs. naive)
# ===========================================================================


def _unify(atom, fact, env):
    if atom.predicate != fact.predicate or len(atom.args) != len(fact.args):
        return None
    out = dict(env)
    for pat, val in zip(atom.args, fact.args):
        if isinstance(pat, DVar):
            if pat.name in out:
                if out[pat.name] != val:
                    return None
            else:
                out[pat.name] = val
        elif pat != val:
            return None
    return out


def _ground_atom(atom, env):
    return Atom(
        atom.predicate,
        tuple(env[a.name] if isinstance(a, DVar) else a for a in atom.args),
    )


def _naive_evaluate(program):
    """Reference fixpoint: full re-join every round, no deltas."""
    strata = stratify(program)
    level_of = {p: i for i, comp in enumerate(strata) for p in comp}
    db = set(program.facts)
    for level in range(len(strata)):
        rules = [r for r in program.rules if level_of[r.head.predicate] == level]
        changed = True
        while changed:
            changed = False
            for rule in rules:
                envs = [{}]
                for lit in rule.body:
                    if not lit.positive:
                        continue
                    envs = [
                        e2
                        for env in envs
                        for fact in db
                        for e2 in [_unify(lit.atom, fact, env)]
                        if e2 is not None
                    ]
                for env in envs:
                    if any(
                        _ground_atom(lit.atom, env) in db
                        for lit in rule.body
                        if not lit.positive
                    ):
                        continue
                    fact = _ground_atom(rule.head, env)
                    if fact not in db:
                        db.add(fact)
                        changed = True
    return db


def _random_stratified_program(rng):
    preds = [(f"p{i}", rng.randint(1, 2), i // 2) for i in range(6)]  # (name, arity, level)
    consts = list(range(4))
    facts = []
    for name, arity, _ in preds:
        for _ in range(rng.randint(0, 3)):
            facts.append(Atom(name, tuple(rng.choice(consts) for _ in range(arity))))
    rules = []
    var_pool = ["X", "Y", "Z"]
    for _ in range(rng.randint(2, 5)):
        h_name, h_arity, h_level = rng.choice([p for p in preds if p[2] > 0])
        body = []
        pos_vars = []
        for _ in range(rng.randint(1, 3)):
            b_name, b_arity, _ = rng.choice([p for p in preds if p[2] <= h_level])
            args = []
            for _ in range(b_arity):
                if rng.random() < 0.6:
                    v = rng.choice(var_pool)
                    args.append(DVar(v))
                    pos_vars.append(v)
                else:
                    args.append(rng.choice(consts))
            body.append(Literal(Atom(b_name, tuple(args))))
        if pos_vars and rng.random() < 0.5:
            n_name, n_arity, _ = rng.choice([p for p in preds if p[2] < h_level])
            args = tuple(
                DVar(rng.choice(pos_vars)) if rng.random() < 0.7 else rng.choice(consts)
                for _ in range(n_arity)
            )
            body.append(Literal(Atom(n_name, args), positive=False))
        head_args = tuple(
            DVar(rng.choice(pos_vars))
            if pos_vars and rng.random() < 0.7
            else rng.choice(consts)
            for _ in range(h_arity)
        )
        rules.append(Rule(Atom(h_name, head_args), tuple(body)))
    return DatalogProgram(rules=rules, facts=facts)


def test_criterion_7_semi_naive_matches_naive():
    watch = Stopwatch(30.0)
    rng = random.Random(77)
    for _ in range(200):
        program = _random_stratified_program(rng)
        assert evaluate(program) == _naive_evaluate(program)
    watch.check()


# ===========================================================================
# 8. Symbolic-execution oracle equivalence
# ===========================================================================


def _unify_placeholder(fact_args, target_args):
    binding = {}
    for f, t in zip(fact_args, target_args):
        if f == t:
            continue
        if sedl.is_placeholder(f):
            if binding.setdefault(f, t) != t:
                return False
        else:
            return False
    return True


def _derives(rules, facts, target):
    idb = evaluate(DatalogProgram(rules=list(rules), facts=list(facts)))
    return any(
        f.predicate == target.predicate
        and len(f.args) == len(target.args)
        and _unify_placeholder(f.args, target.args)
        for f in idb
    )


def _random_symbolic_instance(rng):
    base = ["b1", "b2", "b3"]
    rules = []
    # d1 over the base, d2 over the base and d1; negation only downward
    for head, level in (("d1", 1), ("d2", 2)):
        for _ in range(rng.randint(1, 2)):
            body = [Literal(Atom(rng.choice(base), (DVar("X"),)))]
            if rng.random() < 0.6:
                body.append(Literal(Atom(rng.choice(base), (DVar("X"),))))
            lower = base + (["d1"] if level == 2 else [])
            if rng.random() < 0.6:
                body.append(Literal(Atom(rng.choice(lower), (DVar("X"),)), positive=False))
            rules.append(Rule(Atom(head, (DVar("X"),)), tuple(body)))
    alphas = [sedl.Alpha(f"alpha{i + 1}") for i in range(rng.randint(0, 2))]
    sym_facts = []
    used = set()
    n_xi = rng.randint(2, 4)
    xi_count = 0
    for _ in range(rng.randint(3, 7)):
        pred = rng.choice(base)
        if alphas and rng.random() < 0.35:
            arg = rng.choice(alphas)
        else:
            arg = rng.randint(1, 3)
        key = (pred, arg if not isinstance(arg, sedl.Alpha) else arg.name)
        if key in used:
            continue
        used.add(key)
        xi = None
        if xi_count < n_xi and rng.random() < 0.7:
            xi_count += 1
            xi = f"xi{xi_count}"
        sym_facts.append(sedl.SymbolicFact(Atom(pred, (arg,)), xi=xi))
    target = Atom(rng.choice(["d1", "d2"]), (rng.randint(1, 3),))
    return rules, sym_facts, target


def test_criterion_8_symbolic_execution_matches_brute_force():
    watch = Stopwatch(120.0)
    rng = random.Random(88)
    pick = random.Random(89)  # the restriction; rng alone draws the instances
    instances = 0
    while instances < 100:
        rules, facts, target = _random_symbolic_instance(rng)
        alphas = list(
            dict.fromkeys(a for sf in facts for a in sf.atom.args if isinstance(a, sedl.Alpha))
        )
        xi_names = list(dict.fromkeys(sf.xi for sf in facts if sf.xi is not None))
        # each alpha over the generator's constants plus its own placeholder
        domains = [[1, 2, 3, sedl.placeholder(i + 1)] for i in range(len(alphas))]
        valuations = [
            {a.name: v for a, v in zip(alphas, assignment)}
            for assignment in itertools.product(*domains)
        ]
        worlds = [
            frozenset(off)
            for r in range(len(xi_names) + 1)
            for off in itertools.combinations(xi_names, r)
        ]
        psi = execute_alone(rules, facts, target, len(xi_names), valuations, worlds)
        assert not psi.truncated
        # a disjunct binds only the placeholders of one derived target atom
        assert all(len(d.bindings) <= len(target.args) for d in psi.disjuncts)
        psi_set = {
            (tuple(sorted(d.alpha.items())), frozenset(d.sign_true))
            for d in psi.disjuncts
        }

        oracle = set()
        for amap in valuations:
            plain, xi_facts = [], []
            for sf in facts:
                args = tuple(
                    amap[a.name] if isinstance(a, sedl.Alpha) else a
                    for a in sf.atom.args
                )
                atom = Atom(sf.atom.predicate, args)
                if sf.xi is None:
                    plain.append(atom)
                else:
                    xi_facts.append((atom, sf.xi))
            for world in itertools.product([False, True], repeat=len(xi_names)):
                on = {n for n, bit in zip(xi_names, world) if bit}
                kept_facts = plain + [a for a, n in xi_facts if n in on]
                if _derives(rules, kept_facts, target):
                    oracle.add((tuple(sorted(amap.items())), frozenset(on)))
        assert psi_set == oracle

        # a sub-list of the valuations and a shuffled subset of the worlds:
        # the same answer restricted to them, in the order of one run per
        # valuation
        some_valuations = [amap for amap in valuations if pick.random() < 0.6]
        some_worlds = [off for off in worlds if pick.random() < 0.5]
        pick.shuffle(some_worlds)
        restricted = execute_alone(
            rules, facts, target, len(xi_names), some_valuations, some_worlds
        )
        kept = {tuple(sorted(amap.items())) for amap in some_valuations}
        assert {
            (tuple(sorted(d.alpha.items())), frozenset(d.sign_true))
            for d in restricted.disjuncts
        } == {
            (alpha, on)
            for alpha, on in oracle
            if alpha in kept and frozenset(xi_names) - on in some_worlds
        }
        assert restricted.disjuncts == [
            d
            for amap in some_valuations
            for d in execute_alone(
                rules, facts, target, len(xi_names), [amap], some_worlds
            ).disjuncts
        ]

        # patch replay: applying any disjunct verbatim re-derives the target
        for d in psi.disjuncts:
            amap = d.alpha
            kept_facts = []
            for sf in facts:
                if sf.xi is not None and sf.xi not in d.sign_true:
                    continue
                kept_facts.append(
                    Atom(
                        sf.atom.predicate,
                        tuple(
                            amap[a.name] if isinstance(a, sedl.Alpha) else a
                            for a in sf.atom.args
                        ),
                    )
                )
            assert _derives(rules, kept_facts, target)
        instances += 1
    watch.check()


# ===========================================================================
# 9. Dynamic loop-summary soundness
# ===========================================================================

SINGLE_STEP_LOOP = """//@ ctl: AF(Exit(_))
void main(int b, int end, int tmp) {
  while (b < end) {
    b = b + tmp;
  }
  return;
}
"""

EQUAL_GUARD_LOOP = """//@ ctl: AF(Exit(_))
void main(int x, int y) {
  while (x == y) { }
  return;
}
"""

COUNTDOWN_PAIR_LOOP = """//@ ctl: AF(Exit(_))
void main(int m, int n, int step) {
  while (m < step) {
    if (n < 0) {
      return;
    } else {
      m = m + 1;
      n = n - 1;
    }
  }
  return;
}
"""

MULTIPHASE_2 = """//@ ctl: AF(Exit(_))
void main(int x, int y) {
  while (x >= 0) {
    x = x - y;
    y = y + 1;
  }
  return;
}
"""

MULTIPHASE_3 = """//@ ctl: AF(Exit(_))
void main(int x, int y, int z) {
  while (x >= -z) {
    x = x + y;
    y = y + z;
    z = z - 1;
  }
  return;
}
"""


def _loop_setup(source):
    program = fe.build_cfg(fe.parse(source))
    res = gw.cfg_to_gwre(program, pl.Memo())
    (summary,) = res.summaries
    return program, summary


def _stores(rng, names, condition, count, lo=-6, hi=6):
    out = []
    while len(out) < count:
        store = {n: rng.randint(lo, hi) for n in names}
        if pl.eval_pure(condition, store):
            out.append(store)
    return out


def _run(program, summary, store, max_steps=200_000):
    """The status of a run of ``main`` from ``store``, and how many times
    it entered the summarized loop's Join."""
    run = fe.steps(program, "main", store, random.Random(0), max_steps)
    visits = 0
    while True:
        try:
            node_id, _ = next(run)
        except StopIteration as stop:
            return stop.value, visits
        visits += node_id == summary.join


def test_criterion_9_single_phase_loops_terminate_within_rf_bound():
    watch = Stopwatch(30.0)
    rng = random.Random(91)

    # single-step loop: guard /\ pi_t picks tmp >= 1; bound is the rf value
    program, summary = _loop_setup(SINGLE_STEP_LOOP)
    cond = pl.mk_and(summary.guard, summary.phases[0].pi_t)
    for store in _stores(rng, ["b", "end", "tmp"], cond, 100):
        bound = max(0, pl.eval_term(summary.phases[0].rf, store)) + 2
        status, visits = _run(program, summary, store)
        assert status == "return"
        assert visits <= bound, (store, visits, bound)

    # guarded countdown pair: always terminates; rf bounds the iterations
    program, summary = _loop_setup(COUNTDOWN_PAIR_LOOP)
    assert summary.always_terminates
    for store in _stores(rng, ["m", "n", "step"], summary.guard, 100):
        bound = max(0, pl.eval_term(summary.phases[0].rf, store)) + 3
        status, visits = _run(program, summary, store)
        assert status == "return"
        assert visits <= bound, (store, visits, bound)
    watch.check()


def test_criterion_9_multiphase_loops_terminate_within_rf_bound():
    watch = Stopwatch(30.0)
    rng = random.Random(92)

    # two phases: rf2 = -y strictly decreases, then rf1 = x does; while the
    # first regime lasts (at most R2+1 rounds) x may grow by at most R2 each
    program, summary = _loop_setup(MULTIPHASE_2)
    assert summary.always_terminates
    rf1, rf2 = (p.rf for p in summary.phases)
    for store in _stores(rng, ["x", "y"], pl.TRUE, 100):
        r1 = max(0, pl.eval_term(rf1, store))
        r2 = max(0, pl.eval_term(rf2, store))
        bound = (r2 + 1) + r1 + (r2 + 1) * r2 + 3
        status, visits = _run(program, summary, store)
        assert status == "return"
        assert visits <= bound, (store, visits, bound)

    # three phases: z drops every round, then y, then x+z; each earlier
    # regime's length and growth are bounded by the later rf values
    program, summary = _loop_setup(MULTIPHASE_3)
    assert summary.always_terminates
    rf1, rf2, rf3 = (p.rf for p in summary.phases)
    for store in _stores(rng, ["x", "y", "z"], pl.TRUE, 100, lo=-5, hi=5):
        r1 = max(0, pl.eval_term(rf1, store))
        r2 = max(0, pl.eval_term(rf2, store))
        r3 = max(0, pl.eval_term(rf3, store))
        t3 = r3 + 2
        y_peak = r2 + t3 * r3 + 2
        t2 = y_peak + 1
        t1 = r1 + (t3 + t2) * y_peak + 1
        bound = t3 + t2 + t1 + 3
        status, visits = _run(program, summary, store)
        assert status == "return"
        assert visits <= bound, (store, visits, bound)
    watch.check()


def test_criterion_9_nonterminating_disjuncts_never_exit_early():
    watch = Stopwatch(30.0)
    rng = random.Random(93)

    # single-step loop, non-terminating disjunct: guard /\ pi_nt (tmp <= 0)
    program, summary = _loop_setup(SINGLE_STEP_LOOP)
    cond = pl.mk_and(summary.guard, summary.phases[0].pi_nt)
    for store in _stores(rng, ["b", "end", "tmp"], cond, 100):
        bound = max(0, pl.eval_term(summary.phases[0].rf, store)) + 2
        status, visits = _run(program, summary, store, max_steps=(3 * bound + 10) * 8)
        assert status == "fuel", (store, status)
        assert visits > 3 * bound, (store, visits, bound)

    # equality-guarded loop with an empty body: entering means never leaving
    program, summary = _loop_setup(EQUAL_GUARD_LOOP)
    assert isinstance(summary.phases[0].pi_t, pl.FalseP)
    cond = pl.mk_and(summary.guard, summary.omega_condition)
    for store in _stores(rng, ["x", "y"], cond, 100):
        bound = 2
        status, visits = _run(program, summary, store, max_steps=(3 * bound + 10) * 8)
        assert status == "fuel", (store, status)
        assert visits > 3 * bound, (store, visits)
    watch.check()


def test_generated_programs_verified_only_if_every_run_exits():
    # 200 generated programs over x, y, z with if/while nested to depth 2,
    # guarded break/return in while bodies and while (1) loops left by a
    # guarded break: a Verified AF(Exit(_)) must have no sampled run that
    # runs out of fuel
    watch = Stopwatch(30.0)
    counts, wrong, _ = oracle_programs.check(range(1000, 1200))
    assert wrong == [], "\n".join(oracle_programs.program(seed) for seed in wrong)
    # as many programs that always exit are Verified as before break paths
    # stopped walking past their loop (the programs that did not crash then)
    assert counts["holds", False] >= 104, counts
    watch.check()


def test_generated_repairs_exit_on_every_sampled_run():
    # repair --depth 1 on the Violated programs of 40 generated ones: every
    # patch of a Repaired result must exit on each sampled run
    watch = Stopwatch(45.0)
    _, _, violated = oracle_programs.check(range(1000, 1040))
    repairs, wrong, _ = oracle_programs.check_repairs(violated)
    assert wrong == [], "\n".join(source for _, source in wrong)
    assert repairs["Repaired"] >= 6, repairs
    watch.check()


@pytest.mark.parametrize("prop", ["AG(x <= 3)", "AG(x >= -2)", "AG(y != 2)", "EF(y = 2)", "AF(Exit(_))"])
def test_exact_oracle_decides_the_deterministic_programs(prop):
    # ROADMAP item 20, counts only: the programs without * each have one
    # run, whose lasso decides the property exactly; the wrong verdicts
    # that items 10 and 23 leave are reported, not bounded yet
    counts, decided, wrong = oracle_programs.check_ctl(range(1000, 1200), prop)
    print(prop, dict(counts), dict(decided), {kind: len(seeds) for kind, seeds in wrong.items()})
    assert decided["decided"] >= 100


# ROADMAP item 24, counts only: (property, seed, kind, node, states) of each
# visit to which the encoder's facts give no state that a sampled run's
# store admits.  Each is a known hole of item 10: seed 1187, where paths
# meet; seeds 1089 and 1032, the D3 loop event that assigns nothing.  A
# change that clears one takes it out here; a new false fact fails.
KNOWN_FALSE_FACTS = {
    (None, 1187, "loop-free", 27, (16,)),
    ("AG(x <= 3)", 1032, "loop-head", 5, (11,)),
    ("AG(x <= 3)", 1089, "loop-head", 5, (8,)),
}


def test_fact_check_flags_only_the_known_false_facts():
    watch = Stopwatch(15.0)
    found = set()
    for prop in (None, "AG(x <= 3)", "AG(y != 2)"):
        counts, flags = oracle_programs.fact_check(range(1000, 1200), prop)
        print(prop, dict(counts))
        # the check still sees most of each run
        assert counts["programs"] >= 150 and counts["flow pairs"] >= 5000, counts
        assert counts["loop-free"] >= 8000 and counts["loop-head"] >= 6000, counts
        found |= {(prop, *key) for key in flags}
    assert found == KNOWN_FALSE_FACTS
    watch.check()


def test_exact_verdict_of_a_run_out_of_fuel_holds_only_what_its_prefix_decides():
    # x grows forever: x > 3 is reached, x >= 0 holds on every step run so
    # far but is unknown after them
    source = oracle_programs.program(1089, "AG(x <= 3)")
    assert "while (y <= 0) {\n    x = x + 1;\n  }" in source
    assert oracle_programs.exact_verdict(source) == "violated"
    assert oracle_programs.exact_verdict(source.replace("AG(x <= 3)", "EF(x = 5)")) == "holds"
    assert oracle_programs.exact_verdict(source.replace("AG(x <= 3)", "AG(x >= 0)")) is None
    assert oracle_programs.exact_verdict(source.replace("AG(x <= 3)", "AF(Exit(_))")) is None
    assert oracle_programs.exact_verdict(oracle_programs.program(1000)) is None  # it draws values


def test_six_sequential_break_loops_verify_within_budget():
    # a break path used to lower and summarize every later loop again, 63
    # summaries for six loops
    watch = Stopwatch(6.0)
    assert verdict(break_loops(6)) == "holds"
    watch.check()


# ===========================================================================
# Scale guard: the AF lasso join on a long straight-line program
# ===========================================================================


def _straight(n: int, ctl: str = "AF(Exit(_))") -> str:
    return f"//@ ctl: {ctl}\nvoid main() {{\n  int x = 0;\n" + "  x = x + 1;\n" * n + "  return;\n}\n"


@pytest.mark.parametrize("n, budget", [(200, 1.5), (300, 3.0), (500, 8.0), (1200, 2.0)])
def test_straight_line_200_analyze_within_budget(n, budget):
    # AF's binary lasso relation had ~n^2/2 facts here when a path started
    # at every state; straight-1200 took 15 s.  At 500 assignments a step
    # that recurses once per statement, such as taking the str or hash of
    # the nested store term x+1+...+1, hits the recursion limit.
    watch = Stopwatch(budget)
    analysis = rp.analyze(_straight(n))
    assert analysis.unknown is None
    assert analysis.holds
    watch.check()


def test_straight_line_200_evaluation_is_linear():
    # the only cycle is the exit's self-loop, so the lasso starts once
    analysis = rp.analyze(_straight(200))
    states = sum(1 for f in analysis.enc.facts if f.predicate == "State")
    assert len(_database(analysis)) - len(analysis.enc.facts) <= 2 * states


def test_straight_line_2000_ag_verifies_within_budget():
    # every entailment reads the store term 0+1+...+1, one level per
    # update; linearizing it and splitting the constraint into cases use
    # explicit stacks, so neither recurses once per statement
    watch = Stopwatch(8.0)
    assert verdict(_straight(2000, "AG(x >= 0)")) == "holds"
    watch.check()


def test_straight_line_5000_effect_and_encoding_within_budget():
    # a sequence is one flat node, so no step over the effect recurses once
    # per statement
    watch = Stopwatch(5.0)
    memo = pl.Memo()
    res = gw.cfg_to_gwre(fe.build_cfg(fe.parse(_straight(5000))), memo)
    assert str(res.phi).count("x=x+1") == 5000
    enc = encode.abstract_facts(res, [], memo)
    # a State and an outgoing flow fact per state, the Exit fact, and the
    # Cyc fact of the exit's self-loop
    assert len(enc.facts) == 5002 + 5002 + 1 + 1
    watch.check()


def test_straight_line_2000_dump_gwre(run_cli, tmp_path):
    watch = Stopwatch(5.0)
    path = tmp_path / "straight.imp"
    path.write_text(_straight(2000))
    code, out, err = run_cli("dump-gwre", path)
    assert (code, err) == (0, "")
    assert out.count("·") == 2001
    watch.check()


def test_long_callee_inlines_within_budget():
    watch = Stopwatch(5.0)
    src = "int f(int a) {\n  int x = a;\n" + "  x = x + 1;\n" * 2000
    src += "  return x;\n}\nvoid main() {\n  int y = f(1);\n  return;\n}\n"
    res = gw.cfg_to_gwre(fe.build_cfg(fe.parse(src)), pl.Memo())
    assert len(gw.states_of(res.phi)) == 2003
    watch.check()


# ===========================================================================
# Scale guard: comparisons decided only where a rule reads them
# ===========================================================================


def _nest(n: int) -> str:
    src = "//@ ctl: AF(Exit(_))\nvoid main() {\n  int x = *;\n"
    src += "".join(f"  if (x > {i}) {{\n" for i in range(n))
    src += "  x = 1;\n" + "  }\n" * n
    return src + "  return;\n}\n"


@pytest.mark.parametrize("shape, n, budget", [("nest", 50, 3.0), ("ifs", 10, 10.0), ("nest", 200, 1.0)])
def test_branchy_analyze_within_budget(shape, n, budget):
    # Deciding every tracked comparison at every state made nest-50 and
    # ifs-10 take 13 s and 21 s on a 2-CPU VM; a state decides only what a
    # rule out of it reads.  nest-200 took 0.24-0.43 s on a 2-CPU VM.
    src = {"nest": _nest, "ifs": ifs}[shape](n)
    watch = Stopwatch(budget)
    analysis = rp.analyze(src)
    assert analysis.unknown is None
    assert analysis.holds
    watch.check()
