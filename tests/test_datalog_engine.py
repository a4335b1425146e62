import pytest

from ctlrepair.datalog_engine import (
    Atom,
    DatalogError,
    DatalogProgram,
    DVar,
    Literal,
    Rule,
    evaluate,
    parse_program,
    stratify,
)

TC = """
edge(1, 2).
edge(2, 3).
edge(3, 4).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""


def test_parse_and_dump_round_trip():
    program = parse_program(TC)
    again = parse_program(program.dump())
    assert again.rules == program.rules
    assert again.facts == program.facts


def test_transitive_closure():
    idb = evaluate(parse_program(TC))
    paths = {(a.args[0], a.args[1]) for a in idb if a.predicate == "path"}
    assert paths == {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}


def test_quoted_strings_and_negative_numbers():
    program = parse_program('p("a b", -3).\nq(X) :- p(X, -3).')
    idb = evaluate(program)
    assert Atom("q", ("a b",)) in idb


def test_stratified_negation():
    program = parse_program(
        """
node(1). node(2). node(3).
edge(1, 2).
reach(1).
reach(Y) :- reach(X), edge(X, Y).
unreach(X) :- node(X), !reach(X).
"""
    )
    idb = evaluate(program)
    assert Atom("unreach", (3,)) in idb
    assert Atom("unreach", (1,)) not in idb


def test_negation_cycle_rejected():
    program = parse_program(
        """
a(1).
p(X) :- a(X), !q(X).
q(X) :- a(X), !p(X).
"""
    )
    with pytest.raises(DatalogError):
        stratify(program)


def test_strata_order_dependencies_first():
    program = parse_program(
        """
base(1).
derived(X) :- base(X).
top(X) :- base(X), !derived(X).
"""
    )
    strata = stratify(program)
    order = {p: i for i, comp in enumerate(strata) for p in comp}
    assert order["base"] < order["derived"] < order["top"]


def test_negative_literal_before_positive_still_grounds():
    # body literal order must not matter for correctness
    rule = Rule(
        Atom("p", (DVar("X"),)),
        (Literal(Atom("q", (DVar("X"),)), positive=False), Literal(Atom("a", (DVar("X"),)))),
    )
    program = DatalogProgram(rules=[rule], facts=[Atom("a", (1,)), Atom("a", (2,)), Atom("q", (2,))])
    idb = evaluate(program)
    assert Atom("p", (1,)) in idb
    assert Atom("p", (2,)) not in idb


def test_types_distinguished_in_matching():
    # the string "1" and the integer 1 are different constants
    program = parse_program('p(1).\nq(X) :- p(X).')
    idb = evaluate(program)
    assert Atom("q", (1,)) in idb
    assert Atom("q", ("1",)) not in idb


def test_validate_rejects_unbound_head_var():
    rule = Rule(Atom("p", (DVar("X"), DVar("Y"))), (Literal(Atom("q", (DVar("X"),))),))
    program = DatalogProgram(rules=[rule], facts=[Atom("q", (1,))])
    with pytest.raises(DatalogError):
        program.validate()


def test_parse_errors():
    for text in ("p(1", "p(1) :- .", ":- q(1).", "p(1)"):
        with pytest.raises(DatalogError):
            parse_program(text)
