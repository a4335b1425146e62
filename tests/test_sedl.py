import itertools
import random

import pytest

from ctlrepair import sedl
from ctlrepair.datalog_engine import Atom, parse_program

from conftest import execute_alone

NEGATION_RULES = parse_program(
    """
a(X) :- b(X), c(X), !d(X), !e(X).
a(X) :- d(X).
a(X) :- e(X), !c(X).
"""
).rules

FIRST_RULE = parse_program("a(X) :- b(X), c(X), !d(X), !e(X).").rules

A1 = sedl.Alpha("alpha1")
A2 = sedl.Alpha("alpha2")
N1, N2 = sedl.placeholder(1), sedl.placeholder(2)
BUDGET = 16


def two_symbolic_facts() -> list[sedl.SymbolicFact]:
    return [
        sedl.SymbolicFact(Atom("b", (A1,)), xi="xi1"),
        sedl.SymbolicFact(Atom("c", (A2,)), xi="xi2"),
    ]


def both_placeholders() -> list[dict[str, object]]:
    """Each alpha over both placeholders: four valuations."""
    return [{"alpha1": v1, "alpha2": v2} for v1 in (N1, N2) for v2 in (N1, N2)]


def all_worlds(names) -> list[frozenset[str]]:
    """Every sign world over ``names``: each subset of them set false."""
    return [
        frozenset(off)
        for r in range(len(names) + 1)
        for off in itertools.combinations(names, r)
    ]


def test_placeholders():
    p = sedl.placeholder(1)
    assert sedl.is_placeholder(p)
    assert not sedl.is_placeholder("n1")
    assert not sedl.is_placeholder(1)


def test_depend_seeds_and_propagation():
    # b(X) and a's head share X, as do e(Y) and f(Y); c meets no variable
    rules = parse_program("a(X) :- b(X), !c(5). e(Y) :- f(Y), a(3).").rules
    dep = sedl.compute_depend(rules, [Atom("b", (1,)), Atom("f", (2,)), Atom("c", (9,))])
    # fact seeds, and the constants written in rule literals
    assert dep[("b", 0)] == (1, 3)
    assert dep[("c", 0)] == (5, 9)
    # propagation through the shared variable, head included: 3 is written
    # on a and reaches b, 1 is on b and reaches a; 2 stays with e and f
    assert dep[("a", 0)] == (1, 3)
    assert dep[("e", 0)] == dep[("f", 0)] == (2,)
    assert set(dep) == {("a", 0), ("b", 0), ("c", 0), ("e", 0), ("f", 0)}


def test_depend_concrete_fact_seed():
    assert sedl.compute_depend([], [Atom("p", (7,))]) == {("p", 0): (7,)}


def signed_facts(facts) -> list[sedl.SymbolicFact]:
    """Alpha-free facts from (atom, sign name) pairs."""
    return [sedl.SymbolicFact(atom, xi=name) for atom, name in facts]


def minimal_sign_sets(psi: sedl.Psi) -> set[frozenset[str]]:
    """Subset-minimal sets of signs that must be true (present facts) over
    the disjuncts' worlds."""
    sets = {frozenset(d.sign_true) for d in psi.disjuncts}
    return {s for s in sets if not any(other < s for other in sets)}


def test_all_dependent_sets_found_under_negation():
    facts = [
        (Atom("b", (1,)), "xb"),
        (Atom("c", (1,)), "xc"),
        (Atom("d", (1,)), "xd"),
        (Atom("e", (1,)), "xe"),
    ]
    psi = execute_alone(
        NEGATION_RULES, signed_facts(facts), Atom("a", (1,)), BUDGET, [{}],
        all_worlds(["xb", "xc", "xd", "xe"]),
    )
    assert minimal_sign_sets(psi) == {
        frozenset({"xd"}),
        frozenset({"xe"}),
        frozenset({"xb", "xc"}),
    }


def test_sign_worlds_exhaustive():
    rules = parse_program("a(X) :- b(X), !c(X).").rules
    facts = [(Atom("b", (1,)), "xb"), (Atom("c", (1,)), "xc")]
    psi = execute_alone(
        rules, signed_facts(facts), Atom("a", (1,)), BUDGET, [{}], all_worlds(["xb", "xc"])
    )
    assert [(d.sign_true, d.sign_false) for d in psi.disjuncts] == [(["xb"], ["xc"])]


def test_budget_exceeded():
    facts = [(Atom("b", (i,)), f"x{i}") for i in range(5)]
    with pytest.raises(sedl.SignBudgetExceeded):
        execute_alone([], signed_facts(facts), Atom("b", (0,)), 3, [{}], [frozenset()])


def test_symbolic_execution_two_disjunct_constraint():
    psi = execute_alone(
        FIRST_RULE, two_symbolic_facts(), Atom("a", (1,)), BUDGET,
        both_placeholders(), all_worlds(["xi1", "xi2"]),
    )
    raw = {
        (tuple(sorted(d.alpha.items())), tuple(sorted(d.bindings.items())),
         tuple(d.sign_true), tuple(d.sign_false))
        for d in psi.disjuncts
    }
    assert raw == {
        ((("alpha1", N1), ("alpha2", N1)), ((N1, 1),), ("xi1", "xi2"), ()),
        ((("alpha1", N2), ("alpha2", N2)), ((N2, 1),), ("xi1", "xi2"), ()),
    }
    # serialized form resolves the placeholder to the target constant
    for d in psi.disjuncts:
        assert d.to_json() == {
            "alpha_bindings": {"alpha1": 1, "alpha2": 1},
            "sign_true": ["xi1", "xi2"],
            "sign_false": [],
        }


def test_pruning_keeps_only_consistent_valuations():
    rules = parse_program("a(X) :- b(X), c(X), !d(X).").rules
    facts = [
        sedl.SymbolicFact(Atom("b", (A1,))),
        sedl.SymbolicFact(Atom("c", (A2,))),
        sedl.SymbolicFact(Atom("d", (1,)), xi="xi1"),
    ]
    psi = execute_alone(
        rules, facts, Atom("a", (1,)), BUDGET, both_placeholders(), all_worlds(["xi1"])
    )
    # of the four candidate valuations only the diagonal ones can derive a(1)
    assert {tuple(sorted(d.alpha.items())) for d in psi.disjuncts} == {
        (("alpha1", N1), ("alpha2", N1)),
        (("alpha1", N2), ("alpha2", N2)),
    }


def test_worlds_are_read_in_key_order_whatever_their_order():
    # the key of a world sets bit i when the i-th sign met on the facts is
    # true: xd is bit 0, xb bit 1, xc bit 2, xe bit 3
    facts = [
        (Atom("d", (1,)), "xd"),
        (Atom("b", (1,)), "xb"),
        (Atom("c", (1,)), "xc"),
        (Atom("e", (1,)), "xe"),
    ]
    worlds = all_worlds(["xb", "xc", "xd", "xe"])
    psi = execute_alone(
        NEGATION_RULES, signed_facts(facts), Atom("a", (1,)), BUDGET, [{}], worlds
    )
    met = ["xd", "xb", "xc", "xe"]
    keys = [sum(1 << i for i, name in enumerate(met) if name in d.sign_true) for d in psi.disjuncts]
    assert keys == sorted(keys) and len(keys) > 1
    # and each disjunct lists its signs in the order they are met
    for d in psi.disjuncts:
        assert d.sign_true == [name for name in met if name in d.sign_true]
        assert d.sign_false == [name for name in met if name in d.sign_false]
    rng = random.Random(3)
    for _ in range(5):
        shuffled = rng.sample(worlds, len(worlds))
        assert execute_alone(
            NEGATION_RULES, signed_facts(facts), Atom("a", (1,)), BUDGET, [{}], shuffled
        ) == psi


def test_unmet_sign_names_and_repeated_worlds_are_one_world():
    rules = parse_program("a(X) :- b(X).").rules
    facts = signed_facts([(Atom("b", (1,)), "xb")])
    plain = execute_alone(rules, facts, Atom("a", (1,)), BUDGET, [{}], [frozenset()])
    padded = execute_alone(
        rules, facts, Atom("a", (1,)), BUDGET, [{}],
        [frozenset(), frozenset({"xz"}), frozenset()],
    )
    assert padded == plain
    assert [(d.sign_true, d.sign_false) for d in plain.disjuncts] == [(["xb"], [])]


def test_annotated_eval_masks_match_plain_eval():
    rules = parse_program("a(X) :- b(X), !c(X).").rules
    # four worlds: b(1) holds where bit 0 of the world number is set, c(1)
    # where bit 1 is
    masks = sedl.annotated_eval(
        rules, [(Atom("b", (1,)), 0b1010), (Atom("c", (1,)), 0b1100)], 0b1111
    )
    # a(1) derivable exactly when b present (bit0) and c absent (bit1)
    assert masks[Atom("a", (1,))] == 0b0010


def test_target_variants_merge_equal_bindings_in_a_fixed_order():
    # a(#n1, 1) and a(1, #n1) both match a(1, 1) under #n1 = 1: one variant
    # with both masks, listed where its bindings sort, whatever the order
    # the atoms were derived in
    masks = {
        Atom("a", (N1, 1)): 0b001,
        Atom("a", (1, 1)): 0b100,
        Atom("a", (1, N1)): 0b010,
        Atom("b", (1, 1)): 0b111,
    }
    expected = [(((N1, 1),), 0b011), ((), 0b100)]
    assert sedl._target_variants(masks, Atom("a", (1, 1))) == expected
    reordered = dict(reversed(list(masks.items())))
    assert sedl._target_variants(reordered, Atom("a", (1, 1))) == expected


def test_a_search_over_the_budget_leaves_the_others_unchanged():
    # four searches in one fixpoint: the second has more signs than the
    # budget and gets no bits; the others share b(1), c(1), d(1) and e(1)
    # under different signs and still read as if each ran alone
    target = Atom("a", (1,))
    atoms = [Atom(p, (1,)) for p in "bcde"]
    signed = sedl.SignSearch(
        signed_facts(zip(atoms, ["xb", "xc", "xd", "xe"])), [{}], all_worlds(["xb", "xc", "xd", "xe"])
    )
    over = sedl.SignSearch(
        signed_facts((Atom("b", (i,)), f"x{i}") for i in range(5)), [{}], [frozenset()]
    )
    alphas = sedl.SignSearch(two_symbolic_facts(), both_placeholders(), all_worlds(["xi1", "xi2"]))
    plain = sedl.SignSearch(signed_facts((atom, None) for atom in atoms[:3]), [{}], [frozenset()])
    batch = sedl.sign_batch(NEGATION_RULES, target, [signed, over, alphas, plain], 4)
    with pytest.raises(sedl.SignBudgetExceeded):
        sedl.symbolic_execute(batch, 1)
    for i, search in [(0, signed), (2, alphas), (3, plain)]:
        alone = execute_alone(
            NEGATION_RULES, search.facts, target, 4, search.valuations, search.worlds
        )
        assert alone.disjuncts
        assert sedl.symbolic_execute(batch, i) == alone
    # 16 worlds, none, 4 valuations in 4 worlds, one world
    assert [b.offset for b in batch.blocks] == [0, None, 16, 32]
    assert batch.bits == 33
