import pytest

from ctlrepair import sedl
from ctlrepair.datalog_engine import Atom, parse_program

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


def two_symbolic_facts() -> sedl.SymbolicEdb:
    return sedl.SymbolicEdb(
        [
            sedl.SymbolicFact(Atom("b", (A1,)), xi="xi1"),
            sedl.SymbolicFact(Atom("c", (A2,)), xi="xi2"),
        ]
    )


def test_placeholders():
    p = sedl.placeholder(1)
    assert sedl.is_placeholder(p)
    assert not sedl.is_placeholder("n1")
    assert not sedl.is_placeholder(1)


def test_depend_seeds_and_propagation():
    edb = two_symbolic_facts()
    dep = sedl.compute_depend(NEGATION_RULES, edb)
    n1, n2 = sedl.placeholder(1), sedl.placeholder(2)
    assert ("b", 0, n1) in dep  # per-symbolic-arg seed
    assert ("c", 0, n2) in dep
    # propagation through the shared rule variable, head included
    assert ("a", 0, n1) in dep
    assert ("a", 0, n2) in dep
    assert ("b", 0, n2) in dep
    assert ("c", 0, n1) in dep


def test_depend_concrete_fact_seed():
    edb = sedl.SymbolicEdb([sedl.SymbolicFact(Atom("p", (7,)))])
    dep = sedl.compute_depend([], edb)
    assert dep == {("p", 0, 7)}


def test_domains_for_two_symbolic_constants():
    edb = two_symbolic_facts()
    dep = sedl.compute_depend(NEGATION_RULES, edb)
    n1, n2 = sedl.placeholder(1), sedl.placeholder(2)
    assert sedl.domain_of(A1, dep, edb) == [n1, n2]
    assert sedl.domain_of(A2, dep, edb) == [n1, n2]


def signed_edb(facts) -> sedl.SymbolicEdb:
    """An alpha-free EDB of (atom, sign name) facts."""
    return sedl.SymbolicEdb([sedl.SymbolicFact(atom, xi=name) for atom, name in facts])


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
    psi = sedl.symbolic_execute(NEGATION_RULES, signed_edb(facts), Atom("a", (1,)))
    assert minimal_sign_sets(psi) == {
        frozenset({"xd"}),
        frozenset({"xe"}),
        frozenset({"xb", "xc"}),
    }


def test_sign_worlds_exhaustive():
    rules = parse_program("a(X) :- b(X), !c(X).").rules
    facts = [(Atom("b", (1,)), "xb"), (Atom("c", (1,)), "xc")]
    psi = sedl.symbolic_execute(rules, signed_edb(facts), Atom("a", (1,)))
    assert [(d.sign_true, d.sign_false) for d in psi.disjuncts] == [(["xb"], ["xc"])]


def test_budget_exceeded():
    facts = [(Atom("b", (i,)), f"x{i}") for i in range(5)]
    with pytest.raises(sedl.SignBudgetExceeded):
        sedl.symbolic_execute([], signed_edb(facts), Atom("b", (0,)), budget=3)


def test_symbolic_execution_two_disjunct_constraint():
    psi = sedl.symbolic_execute(FIRST_RULE, two_symbolic_facts(), Atom("a", (1,)))
    n1, n2 = sedl.placeholder(1), sedl.placeholder(2)
    raw = {
        (tuple(sorted(d.alpha.items())), tuple(sorted(d.bindings.items())),
         tuple(d.sign_true), tuple(d.sign_false))
        for d in psi.disjuncts
    }
    assert raw == {
        ((("alpha1", n1), ("alpha2", n1)), ((n1, 1),), ("xi1", "xi2"), ()),
        ((("alpha1", n2), ("alpha2", n2)), ((n2, 1),), ("xi1", "xi2"), ()),
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
    edb = sedl.SymbolicEdb(
        [
            sedl.SymbolicFact(Atom("b", (A1,))),
            sedl.SymbolicFact(Atom("c", (A2,))),
            sedl.SymbolicFact(Atom("d", (1,)), xi="xi1"),
        ]
    )
    n1, n2 = sedl.placeholder(1), sedl.placeholder(2)
    valuations = [
        {"alpha1": v1, "alpha2": v2} for v1 in (n1, n2) for v2 in (n1, n2)
    ]
    psi = sedl.symbolic_execute(rules, edb, Atom("a", (1,)), valuations=valuations)
    # of the four candidate valuations only the diagonal ones can derive a(1)
    assert {tuple(sorted(d.alpha.items())) for d in psi.disjuncts} == {
        (("alpha1", n1), ("alpha2", n1)),
        (("alpha1", n2), ("alpha2", n2)),
    }


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
    n1 = sedl.placeholder(1)
    masks = {
        Atom("a", (n1, 1)): 0b001,
        Atom("a", (1, 1)): 0b100,
        Atom("a", (1, n1)): 0b010,
        Atom("b", (1, 1)): 0b111,
    }
    expected = [(((n1, 1),), 0b011), ((), 0b100)]
    assert sedl._target_variants(masks, Atom("a", (1, 1))) == expected
    reordered = dict(reversed(list(masks.items())))
    assert sedl._target_variants(reordered, Atom("a", (1, 1))) == expected
