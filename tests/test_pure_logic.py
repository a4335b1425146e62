import functools
import itertools
import random
import time

import pytest

from ctlrepair import pure_logic as pl

from conftest import Stopwatch


def _rand_term(rng, names, depth=2, wild=False):
    pick = rng.randrange(4 if depth > 0 else 2)
    if wild and pick < 2 and rng.random() < 0.3:
        return pl.Wildcard()
    if pick == 0:
        return pl.Var(rng.choice(names))
    if pick == 1:
        return pl.Const(rng.randint(-3, 3))
    ctor = pl.Add if pick == 2 else pl.Sub
    return ctor(_rand_term(rng, names, depth - 1, wild), _rand_term(rng, names, depth - 1, wild))


def _rand_pure(rng, names, depth=2, wild=False):
    if depth == 0 or rng.random() < 0.5:
        op = rng.choice([pl.GT, pl.LT, pl.GTEQ, pl.LTEQ, pl.EQ, pl.NEQ])
        return pl.Bop(op, _rand_term(rng, names, 1, wild), _rand_term(rng, names, 1, wild))
    ctor = pl.mk_and if rng.random() < 0.5 else pl.mk_or
    return ctor(_rand_pure(rng, names, depth - 1, wild), _rand_pure(rng, names, depth - 1, wild))


NAMES = ["x", "y"]


def models(pi, names, lo, hi):
    """Brute-force integer models of a constraint over ``names`` in [lo, hi]."""
    for values in itertools.product(range(lo, hi + 1), repeat=len(names)):
        store = dict(zip(names, values))
        if pl.eval_pure(pi, store):
            yield store


def _same_models(a, b, lo=-4, hi=4):
    return list(models(a, NAMES, lo, hi)) == list(models(b, NAMES, lo, hi))


def test_negate_involution_preserves_models():
    rng = random.Random(1)
    for _ in range(200):
        pi = _rand_pure(rng, NAMES)
        assert _same_models(pi, pl.negate(pl.negate(pi)))


def test_negate_flips_every_model():
    rng = random.Random(2)
    for _ in range(200):
        pi = _rand_pure(rng, NAMES)
        neg = pl.negate(pi)
        for store in models(pl.TRUE, NAMES, -3, 3):
            assert pl.eval_pure(pi, store) != pl.eval_pure(neg, store)


def test_negate_rejects_relations():
    with pytest.raises(TypeError):
        pl.negate(pl.Rel("Exit", ()))


def test_simplify_preserves_models():
    rng = random.Random(3)
    for _ in range(200):
        pi = _rand_pure(rng, NAMES)
        assert _same_models(pi, pl.simplify(pi))


def test_satisfiable_matches_brute_force():
    memo = pl.Memo()
    rng = random.Random(4)
    for _ in range(300):
        pi = _rand_pure(rng, NAMES)
        brute = any(True for _ in models(pi, NAMES, -6, 6))
        # satisfiable() decides over the rationals; it may be satisfiable
        # outside the sampled box but never the other way round
        if brute:
            assert pl.satisfiable(pi, memo)


def test_satisfiable_exact_cases():
    memo = pl.Memo()
    x = pl.Var("x")
    assert not pl.satisfiable(pl.mk_and(pl.Bop(pl.GT, x, pl.Const(0)), pl.Bop(pl.LT, x, pl.Const(0))), memo)
    assert not pl.satisfiable(pl.mk_and(pl.Bop(pl.GTEQ, x, pl.Const(1)), pl.Bop(pl.LTEQ, x, pl.Const(0))), memo)
    assert pl.satisfiable(pl.Bop(pl.EQ, x, pl.Const(5)), memo)
    assert not pl.satisfiable(pl.FALSE, memo)
    assert pl.satisfiable(pl.TRUE, memo)


def test_entails_sound_against_brute_force():
    memo = pl.Memo()
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        a = _rand_pure(rng, NAMES)
        b = _rand_pure(rng, NAMES)
        if pl.entails(a, b, memo):
            checked += 1
            for store in models(a, NAMES, -5, 5):
                assert pl.eval_pure(b, store)
    assert checked > 10  # the sample must actually exercise entailments


def test_entails_treats_each_wildcard_as_its_own_value():
    memo = pl.Memo()
    x, w, zero = pl.Var("x"), pl.Wildcard(), pl.Const(0)
    assert not pl.entails(pl.TRUE, pl.Bop(pl.EQ, pl.Sub(w, w), zero), memo)
    assert pl.entails(pl.TRUE, pl.Bop(pl.EQ, pl.Sub(x, x), zero), memo)
    assert not pl.entails(pl.Bop(pl.GT, x, w), pl.Bop(pl.GT, x, zero), memo)


def _split_signs(n):
    # n conjoined  x_i > 0 \/ x_i < 0 : a DNF of 2^n disjuncts
    zero = pl.Const(0)
    return functools.reduce(
        pl.mk_and,
        (pl.Or(pl.Bop(pl.GT, pl.Var(f"x{i}"), zero), pl.Bop(pl.LT, pl.Var(f"x{i}"), zero)) for i in range(n)),
    )


def test_case_split_stops_at_first_model_and_prunes_conflicts():
    memo = pl.Memo()
    y, zero = pl.Var("y"), pl.Const(0)
    signs = _split_signs(18)
    contradiction = pl.mk_and(pl.Bop(pl.GT, y, zero), pl.Bop(pl.LT, y, zero))
    start = time.monotonic()
    assert pl.satisfiable(signs, memo)
    assert pl.entails(pl.mk_and(contradiction, signs), pl.FALSE, memo)
    # expanding all 2^18 disjuncts up front takes 0.45 s and 32.5 s on a 2-CPU VM
    assert time.monotonic() - start < 1.0


def _ref_dnf(pi):
    """The DNF as conjunctions of comparisons, left to right; != splits."""
    if isinstance(pi, pl.Or):
        return _ref_dnf(pi.left) + _ref_dnf(pi.right)
    if isinstance(pi, pl.And):
        right = _ref_dnf(pi.right)
        return [a + b for a in _ref_dnf(pi.left) for b in right]
    if isinstance(pi, (pl.TrueP, pl.FalseP)):
        return [[]] if isinstance(pi, pl.TrueP) else []
    if pi.op == pl.NEQ:
        return [[pl.Bop(pl.LT, pi.left, pi.right)], [pl.Bop(pl.GT, pi.left, pi.right)]]
    return [[pi]]


def _ref_satisfiable(pi):
    for disjunct in _ref_dnf(pi):
        rows, named = [], 0
        for atom in disjunct:
            new, named = pl._rows_of_bop(atom, named)
            rows += new
        if not pl._fm_unsat(rows, pl.Memo()):
            return True
    return False


def test_satisfiable_matches_whole_dnf_reference():
    # the case split must answer exactly as deciding every DNF disjunct
    # on its own rows, wildcards and all
    memo = pl.Memo()
    rng = random.Random(7)
    answers = []
    for _ in range(300):
        pi = _rand_pure(rng, NAMES, depth=3, wild=True)
        answers.append(pl.satisfiable(pi, memo))
        assert answers[-1] == _ref_satisfiable(pi), pi
    assert min(answers.count(False), answers.count(True)) >= 10  # both answers occur


def test_memo_answers_match_direct_decision_and_brute_force():
    # each round builds equal but fresh formulas, so round 1 answers from
    # the memo through interned ids and round 2 decides again in a new memo
    def cases():
        rng = random.Random(8)
        return [
            (_rand_pure(rng, NAMES, wild=i % 2 == 0), _rand_pure(rng, NAMES, wild=i % 4 == 0))
            for i in range(200)
        ]

    memo = pl.Memo()
    sizes = []
    for round_ in range(3):
        if round_ == 2:
            memo = pl.Memo()
        for a, b in cases():
            for _ in range(2):
                assert pl.satisfiable(a, memo) == (not pl._unsat(a, pl.Memo())), a
                direct = pl._unsat(pl.mk_and(a, pl.negate(b)), pl.Memo())
                assert pl.entails(a, b, memo) == direct, (a, b)
            if "*" in f"{a} {b}":
                continue
            if any(True for _ in models(a, NAMES, -5, 5)):
                assert pl.satisfiable(a, memo)
            if pl.entails(a, b, memo):
                assert all(pl.eval_pure(b, store) for store in models(a, NAMES, -5, 5))
        sizes.append(len(memo.answers))
    assert sizes[0] == sizes[1] == sizes[2]  # round 1 asked nothing new


def test_node_ids_tell_apart_shapes_and_share_equal_ones():
    x, y, z, zero = pl.Var("x"), pl.Var("y"), pl.Var("z"), pl.Const(0)
    gt, lt = pl.Bop(pl.GT, x, zero), pl.Bop(pl.LT, x, zero)
    pairs = [
        (pl.Sub(x, pl.Sub(y, z)), pl.Sub(pl.Sub(x, y), z)),
        (pl.Var("1"), pl.Const(1)),
        (pl.Neg(x), pl.Sub(zero, x)),
        (pl.And(gt, lt), pl.Or(gt, lt)),
    ]
    memo = pl.Memo()
    for a, b in pairs:
        assert pl.node_id(a, memo) != pl.node_id(b, memo), (a, b)
    again = pl.Sub(pl.Var("x"), pl.Sub(pl.Var("y"), pl.Var("z")))
    assert pl.node_id(again, memo) == pl.node_id(pairs[0][0], memo)
    # the memo answers each of a pair for itself
    one = pl.Const(1)
    assert not pl.entails(pl.TRUE, pl.Bop(pl.EQ, pl.Var("1"), one), memo)
    assert pl.entails(pl.TRUE, pl.Bop(pl.EQ, one, one), memo)
    assert not pl.satisfiable(pl.And(gt, lt), memo)
    assert pl.satisfiable(pl.Or(gt, lt), memo)


def test_node_keyed_in_another_memo_is_keyed_again():
    first = pl.Memo()
    old = pl.Bop(pl.GT, pl.Var("x"), pl.Var("y"))
    assert pl.satisfiable(old, first)
    stale = pl.node_id(old, first)
    memo = pl.Memo()
    new = pl.Bop(pl.GT, pl.Const(0), pl.Const(1))
    assert pl.node_id(new, memo) == stale  # the same int, now naming another node
    assert not pl.satisfiable(new, memo)
    assert pl.satisfiable(old, memo)
    assert pl.node_id(old, memo) != pl.node_id(new, memo)
    # the tag names a token of the memo, not the memo, and the first memo
    # still reads its own id, keying the node again
    assert old._nid[0] is memo.token and old._nid[0] is not memo
    assert pl.node_id(old, first) == stale
    assert pl.satisfiable(old, first) and len(first.answers) == 1


def test_relation_argument_raises_every_time():
    memo = pl.Memo()
    exit_ = pl.Rel("Exit", ())
    inside = pl.mk_and(pl.Bop(pl.GT, pl.Var("x"), pl.Const(0)), exit_)
    for _ in range(2):
        with pytest.raises(TypeError):
            pl.satisfiable(exit_, memo)
        with pytest.raises(TypeError):
            pl.satisfiable(inside, memo)
        with pytest.raises(TypeError):
            pl.entails(pl.TRUE, exit_, memo)


def test_keying_a_dag_walks_each_shared_node_once():
    # x = x + x sixty times: 2^60 leaves as a tree, 61 term nodes as a DAG
    t = pl.Var("x")
    for _ in range(60):
        t = pl.Add(t, t)
    watch = Stopwatch(1.0)
    memo = pl.Memo()
    pl.node_id(pl.Bop(pl.GTEQ, t, pl.Const(0)), memo)
    watch.check()
    assert len(memo.ids) == 63


def test_keying_a_deep_chain_does_not_recurse():
    t = pl.Var("x")
    for _ in range(5000):
        t = pl.Add(t, pl.Const(1))
    memo = pl.Memo()
    goal = pl.Bop(pl.GTEQ, t, pl.Var("x"))
    assert pl.entails(pl.TRUE, goal, memo)
    assert pl.entails(pl.TRUE, goal, memo)
    assert len(memo.answers) == 1


def test_names_walks_each_shared_node_once():
    # x = x + x forty times: 2^40 leaves as a tree, 41 term nodes as a DAG
    t = pl.Var("x")
    for _ in range(40):
        t = pl.Add(t, t)
    watch = Stopwatch(1.0)
    assert set(pl.names(t)) == {"x"}
    watch.check()


def test_names_left_to_right_each_once():
    a, b, c = pl.Var("a"), pl.Var("b"), pl.Var("c")
    assert list(pl.names(pl.Add(pl.Add(a, b), c))) == ["a", "b", "c"]
    guard = pl.mk_and(pl.Bop(pl.GT, pl.Sub(c, a), pl.Const(0)), pl.Bop(pl.EQ, pl.Neg(b), a))
    assert list(pl.names(guard)) == ["c", "a", "b"]
    assert list(pl.names(b, pl.TRUE, pl.Wildcard(), a)) == ["b", "a"]
    with pytest.raises(TypeError):
        list(pl.names(a, pl.Rel("Exit", ())))


def test_conjuncts_of_a_long_chain_do_not_recurse():
    atoms = [pl.Bop(pl.GT, pl.Var(f"x{i}"), pl.Const(i)) for i in range(5000)]
    chain = pl.TRUE
    for atom in atoms:
        chain = pl.mk_and(chain, atom)
    assert pl.conjuncts(chain) == atoms
    assert pl.conjuncts(pl.mk_and(atoms[0], pl.mk_and(atoms[1], atoms[2]))) == atoms[:3]


def test_subst_term_with_fresh_names_wildcards_left_to_right():
    x, w = pl.Var("x"), pl.Wildcard()
    count = itertools.count(1)
    t = pl.subst_term(pl.Add(w, pl.Add(x, w)), {"x": pl.Var("y")}, lambda: pl.Var(f"${next(count)}"))
    assert t == pl.Add(pl.Var("$1"), pl.Add(pl.Var("y"), pl.Var("$2")))
    assert pl.subst_term(pl.Add(w, x), {"x": pl.Const(3)}) == pl.Add(w, pl.Const(3))


def test_substitution_of_a_long_chain_does_not_recurse():
    # x + 1 + ... + 1 with a wildcard at each end, 5,000 deep
    x, w = pl.Var("x"), pl.Wildcard()
    t = w
    for _ in range(5000):
        t = pl.Add(t, pl.Const(1))
    t = pl.Add(pl.Add(t, x), w)
    count = itertools.count(1)
    out = pl.subst_term(t, {"x": pl.Var("y")}, lambda: pl.Var(f"${next(count)}"))
    assert list(pl.names(out)) == ["$1", "y", "$2"]
    assert pl.linearize(out) == ({"$1": 1, "y": 1, "$2": 1}, 5000)
    pi = pl.Bop(pl.GT, t, pl.Var("x"))
    for i in range(5000):
        pi = pl.mk_and(pi, pl.mk_or(pl.Bop(pl.GT, pl.Var("x"), pl.Const(i)), pl.FALSE))
    conjs = pl.conjuncts(pl.subst_pure(pi, {"x": pl.Const(2)}))
    assert len(conjs) == 5001
    assert pl.names(*conjs) == set()


def _wildcard_free_atom(rng):
    """A comparison that ``_unsat`` turns into rows (``!=`` it splits)."""
    while True:
        atom = _rand_pure(rng, ["x", "y", "z"], depth=0)
        if atom.op != pl.NEQ and "Wildcard" not in repr(atom):
            return atom


def test_memoised_rows_equal_the_rows_of_each_atom():
    rng = random.Random(11)
    memo = pl.Memo()
    for _ in range(300):
        atom = _wildcard_free_atom(rng)
        pl.node_id(atom, memo)
        named = rng.randrange(3)
        fresh = pl._rows_of_bop(atom, named)
        assert pl._rows_of(atom, named, memo) == fresh  # computed, then kept
        assert pl._rows_of(atom, named, memo) == fresh  # read back
        key = (atom.op, pl.node_id(atom.left, memo), pl.node_id(atom.right, memo))
        assert memo.rows[key] == fresh[0]
    assert memo.rows
    # a wildcard's row depends on how many came before it: never kept
    atom = pl.Bop(pl.GT, pl.Var("x"), pl.Wildcard())
    pl.node_id(atom, memo)
    kept = len(memo.rows)
    assert pl._rows_of(atom, 0, memo) == pl._rows_of_bop(atom, 0)
    assert pl._rows_of(atom, 2, memo) == ([({"x": 1, "__w3": -1}, -1)], 3)
    assert len(memo.rows) == kept
    # sides keyed in another memo read no row kept here
    other = pl.Memo()
    atom = _wildcard_free_atom(rng)
    pl.node_id(atom, other)
    kept = len(memo.rows)
    assert pl._rows_of(atom, 0, memo) == pl._rows_of_bop(atom, 0)
    assert len(memo.rows) == kept and not other.rows


def test_row_limit_give_ups_are_counted(monkeypatch):
    # x_i < x_{i+1} around a cycle: eliminating x0 pairs every bound on it
    chain = pl.TRUE
    for i in range(6):
        for j in range(6):
            if i != j:
                chain = pl.mk_and(chain, pl.Bop(pl.LT, pl.Var(f"x{i}"), pl.Var(f"x{j}")))
    memo = pl.Memo()
    assert not pl.satisfiable(chain, memo)
    assert "row_limit" not in memo.counts
    memo = pl.Memo()
    monkeypatch.setattr(pl, "_ROW_LIMIT", 4)
    assert pl.satisfiable(chain, memo)  # gave up: "satisfiable"
    assert memo.counts["row_limit"] > 0


def test_eval_term_with_and_without_draw():
    x, w = pl.Var("x"), pl.Wildcard()
    assert pl.eval_term(pl.Sub(x, pl.Const(2)), {"x": 5}) == 3
    with pytest.raises(ValueError):
        pl.eval_term(w, {"x": 5})
    with pytest.raises(KeyError):
        pl.eval_term(x, {})
    drawn: list[int] = []

    def draw() -> int:
        drawn.append(10 * (len(drawn) + 1))
        return drawn[-1]

    store: dict[str, int] = {}
    assert pl.eval_term(pl.Add(pl.Add(x, w), x), store, draw) == 10 + 20 + 10
    assert store == {"x": 10}
    assert drawn == [10, 20, 30]  # the second read of x draws too
    assert pl.eval_pure(pl.Bop(pl.LT, x, w), store, draw)
    assert drawn == [10, 20, 30, 40, 50]


def test_linearize_round_trip():
    rng = random.Random(6)
    for _ in range(200):
        t = _rand_term(rng, NAMES)
        lin = pl.linearize(t)
        assert lin is not None
        back = pl.term_of_linear(*lin)
        for store in models(pl.TRUE, NAMES, -3, 3):
            assert pl.eval_term(t, store) == pl.eval_term(back, store)


def test_linearize_rejects_wildcards():
    assert pl.linearize(pl.Add(pl.Var("x"), pl.Wildcard())) is None


def test_candidate_rfs_nonnegative_under_guard():
    # single-direction comparisons: every read-off candidate is nonnegative
    # wherever the guard holds (NEQ is excluded: its two candidates cover
    # the two disjunctive cases and are not individually nonnegative)
    rng = random.Random(7)
    for _ in range(200):
        op = rng.choice([pl.GT, pl.LT, pl.GTEQ, pl.LTEQ, pl.EQ])
        guard = pl.Bop(op, _rand_term(rng, NAMES, 1), _rand_term(rng, NAMES, 1))
        for cand in pl.candidate_rfs(guard):
            for store in models(guard, NAMES, -4, 4):
                assert pl.eval_term(cand, store) >= 0


def test_candidate_rfs_for_simple_guard():
    guard = pl.Bop(pl.GTEQ, pl.Var("x"), pl.Const(0))
    rfs = [str(c) for c in pl.candidate_rfs(guard)]
    assert rfs == ["x"]


def test_wp_delta_single_decreasing_branch():
    # while (...) { x = x - y }  with rf = x: decreases iff y >= 1
    memo = pl.Memo()
    rf = pl.candidate_rfs(pl.Bop(pl.GTEQ, pl.Var("x"), pl.Const(0)))[0]
    pi_t, pi_nt = pl.wp_delta(rf, [(pl.TRUE, {"x": pl.Sub(pl.Var("x"), pl.Var("y"))})])
    assert pl.entails(pi_t, pl.Bop(pl.GTEQ, pl.Var("y"), pl.Const(1)), memo)
    assert pl.entails(pl.Bop(pl.GTEQ, pl.Var("y"), pl.Const(1)), pi_t, memo)
    assert pl.entails(pi_nt, pl.Bop(pl.LTEQ, pl.Var("y"), pl.Const(0)), memo)


def test_wp_delta_wildcard_is_inconclusive():
    pi_t, pi_nt = pl.wp_delta(pl.Var("x"), [(pl.TRUE, {"x": pl.Wildcard()})])
    assert isinstance(pi_t, pl.FalseP)
    assert isinstance(pi_nt, pl.FalseP)
