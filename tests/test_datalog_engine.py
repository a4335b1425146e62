import json
import logging
import random

import pytest

from ctlrepair import repair as rp

from ctlrepair.datalog_engine import (
    Atom,
    DatalogError,
    DatalogProgram,
    DVar,
    Literal,
    Rule,
    _fixpoint,
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


def test_comments_and_bad_character_message():
    program = parse_program("% a comment\np(1). % another\nq(X) :- p(X).")
    assert Atom("q", (1,)) in evaluate(program)
    with pytest.raises(DatalogError) as err:
        parse_program("a(X) :- b(X) & c(X).")
    assert str(err.value) == "bad character at offset 13: '&'"


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


def _random_rule_set(rng):
    """Up to six nullary predicates, some with facts, joined by random
    positive and negative dependency edges, drawn as the acceptance tests
    draw their Kripke structures."""
    preds = [f"p{i}" for i in range(rng.randint(1, 6))]
    facts = [Atom(p) for p in preds if rng.random() < 0.4]
    edges = [
        (head, body, rng.random() < 0.7)
        for head in preds
        for body in preds
        if rng.random() < 0.25
    ]
    rng.shuffle(edges)
    rules = [Rule(Atom(h), (Literal(Atom(b), positive),)) for h, b, positive in edges]
    return preds, edges, DatalogProgram(rules=rules, facts=facts)


def test_stratify_matches_reachability_on_random_rule_sets():
    rng = random.Random(20)
    for _ in range(500):
        preds, edges, program = _random_rule_set(rng)
        # reach[p]: the predicates p depends on, transitively, p included
        reach = {p: {p} for p in preds}
        for _ in preds:
            for h, b, _positive in edges:
                reach[h] |= reach[b]
        negative_on_cycle = any(not pos and h in reach[b] for h, b, pos in edges)
        if negative_on_cycle:
            with pytest.raises(DatalogError, match="not stratifiable: negation cycle through"):
                stratify(program)
            continue
        strata = stratify(program)
        named = {f.predicate for f in program.facts} | {p for h, b, _ in edges for p in (h, b)}
        classes = {frozenset(q for q in named if p in reach[q] and q in reach[p]) for p in named}
        assert sorted(map(sorted, classes)) == sorted(strata)
        level = {p: i for i, comp in enumerate(strata) for p in comp}
        assert all(level[b] <= level[h] for h, b, _ in edges), (edges, strata)


def test_stratify_golden_on_overview(fixture_text):
    # evaluation visits the strata in this order, so it is pinned exactly
    analysis = rp.analyze(fixture_text("overview.imp"))
    program = DatalogProgram(rules=list(analysis.rules), facts=list(analysis.enc.facts))
    assert stratify(program) == [
        ["Gt"], ["NeqVar"], ["EqVar"], ["LtEq"], ["flow"], ["GtEqVar"], ["LtVar"],
        ["Eq"], ["State"], ["Cyc"], ["yEQ5"], ["AFT_yEQ5"], ["AFS_yEQ5"], ["AF_yEQ5"],
    ]


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
    for text in ("p(1", "p(1) :- .", ":- q(1).", "p(1)", "p(1 2).", "p(1,).", "1(2).", "p(1) :- (."):
        with pytest.raises(DatalogError):
            parse_program(text)
    with pytest.raises(DatalogError, match=r"^non-ground fact: p\(X\)$"):
        parse_program("p(X).")


def test_bound_join_keeps_types_apart():
    # 1, "1" and True are three constants, though 1 == True and both hash
    # alike; the join looks q up on X already bound by p
    x = DVar("X")
    rule = Rule(Atom("r", (x,)), (Literal(Atom("p", (x,))), Literal(Atom("q", (x,)))))
    facts = [Atom("p", (1,)), Atom("q", ("1",)), Atom("q", (True,))]
    idb = evaluate(DatalogProgram(rules=[rule], facts=facts))
    assert {a for a in idb if a.predicate == "r"} == set()


def test_repeated_variable_matches_diagonal_only():
    idb = evaluate(parse_program("e(1, 1). e(1, 2). e(2, 2). e(3, 1).\ns(X) :- e(X, X)."))
    assert {a.args for a in idb if a.predicate == "s"} == {(1,), (2,)}


CYCLIC_TC = """
node(1). node(2). node(3). node(4). node(5).
edge(1, 2). edge(2, 3). edge(3, 4). edge(2, 4). edge(4, 5). edge(5, 3).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
unreached(X) :- node(X), !path(1, X).
"""


def test_derivation_order_golden():
    # atoms enter the mask table in an order fixed by the program alone, not
    # by hashing, so the order is part of the engine's contract
    program = parse_program(CYCLIC_TC)
    derived = list(_fixpoint(program.rules, dict.fromkeys(program.facts, 1), 1))
    assert derived[: len(program.facts)] == program.facts
    assert [str(a) for a in derived[len(program.facts):]] == [
        "path(1, 2)", "path(2, 3)", "path(3, 4)", "path(2, 4)", "path(4, 5)",
        "path(5, 3)", "path(1, 3)", "path(1, 4)", "path(3, 5)", "path(2, 5)",
        "path(4, 3)", "path(5, 4)", "path(1, 5)", "path(3, 3)", "path(4, 4)",
        "path(5, 5)", "unreached(1)",
    ]


def test_derivation_order_golden_with_growing_masks():
    # two worlds: a round can widen the mask of a fact inserted before the
    # facts first derived in it, and the next round must still visit the
    # widened facts in insertion order, not in the order they grew
    program = parse_program(
        """
edge(1, 2). edge(1, 3). edge(2, 3). edge(3, 4). edge(4, 1).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""
    )
    masks = dict(zip(program.facts, [3, 1, 3, 2, 3]))
    derived = list(_fixpoint(program.rules, masks, 3).items())
    assert [(str(a), m) for a, m in derived[len(program.facts):]] == [
        ("path(1, 2)", 3), ("path(1, 3)", 3), ("path(2, 3)", 3), ("path(3, 4)", 2),
        ("path(4, 1)", 3), ("path(2, 4)", 2), ("path(3, 1)", 2), ("path(4, 2)", 3),
        ("path(4, 3)", 3), ("path(1, 4)", 2), ("path(2, 1)", 2), ("path(3, 2)", 2),
        ("path(4, 4)", 2), ("path(1, 1)", 2), ("path(2, 2)", 2), ("path(3, 3)", 2),
    ]


def test_atom_hash_survives_pickling_across_hash_seeds():
    # an atom pickled by a process with another str-hash seed must hash as
    # an atom built here, or dict and set lookups would miss it
    import pickle
    import subprocess
    import sys

    code = (
        "import pickle, sys; from ctlrepair.datalog_engine import Atom; "
        "sys.stdout.buffer.write(pickle.dumps(Atom('flow', ('a', 2))))"
    )
    env = {"PYTHONHASHSEED": "1", "PYTHONPATH": ":".join(sys.path)}
    payload = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True
    ).stdout
    atom = pickle.loads(payload)
    assert hash(atom) == hash(Atom("flow", ("a", 2)))
    assert atom in {Atom("flow", ("a", 2))}


def test_fixpoint_debug_line(caplog, run_cli, fixtures_dir):
    with caplog.at_level(logging.DEBUG, logger="ctlrepair.datalog_engine"):
        evaluate(parse_program(TC))
    assert [r.getMessage() for r in caplog.records] == [
        "fixpoint: 2 rules, 2 strata, 3 input facts, 6 derived, "
        "2 semi-naive rounds, 1 index tables"
    ]
    # the line goes to the log, never into a command's stdout report
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ctlrepair.datalog_engine"):
        code, out, _ = run_cli("verify", "--json", fixtures_dir / "overview.imp")
    assert code == 1
    assert json.loads(out)["verdict"] == "Violated"
    assert any(r.getMessage().startswith("fixpoint: ") for r in caplog.records)
