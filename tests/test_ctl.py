import json
import pathlib
import random

import pytest

from ctlrepair import ctl
from ctlrepair import pure_logic as pl
from ctlrepair.datalog_engine import Atom

# the core fragment that parse_ctl builds
CORE = (ctl.AP, ctl.Not, ctl.CAnd, ctl.COr, ctl.EX, ctl.EF, ctl.AF, ctl.EU)


def test_parse_basic_shapes():
    phi = ctl.parse_ctl("AF(y=5)")
    assert isinstance(phi, ctl.AF)
    assert isinstance(phi.operand, ctl.AP)
    assert phi.operand.name == "yEQ5"

    # AG p is !EF !p, and p -> q is !p || q
    phi = ctl.parse_ctl("AG(x=1 -> AF(x=0))")
    assert str(phi) == "!(EF(!((!(x=1) || AF(x=0)))))"

    # AU(p)(q) is !EU(!q)(!p && !q) && AF q
    phi = ctl.parse_ctl("AU(x>0)(y=1)")
    assert str(phi) == "(!(EU(!(y=1))((!(x>0) && !(y=1)))) && AF(y=1))"

    phi = ctl.parse_ctl("AF(Exit(_))")
    assert isinstance(phi.operand, ctl.AP)
    assert isinstance(phi.operand.pure, pl.Rel)
    assert phi.operand.name == "Exit"


def test_parse_precedence_and_parens():
    phi = ctl.parse_ctl("x=1 && y=2 || z=3")
    assert isinstance(phi, ctl.COr)
    assert isinstance(phi.left, ctl.CAnd)
    phi = ctl.parse_ctl("x=1 && (y=2 || z=3)")
    assert isinstance(phi, ctl.CAnd)


def test_parse_errors():
    for text in ("AF(", "AF(y=5) trailing", "x ~ 1", "EU(x=1)", "AF()"):
        with pytest.raises(ctl.CtlSyntaxError):
            ctl.parse_ctl(text)


def test_bad_character_message():
    with pytest.raises(ctl.CtlSyntaxError) as err:
        ctl.parse_ctl("AF(x = 1) $ y")
    assert str(err.value) == "bad character in property at offset 10: '$'"


def test_double_equals_message_names_the_operator():
    with pytest.raises(ctl.CtlSyntaxError) as err:
        ctl.parse_ctl("AG(x==4)")
    assert str(err.value) == "'==' is not a property operator; equality is written '='"


def _assert_core(node):
    assert isinstance(node, CORE), node
    if isinstance(node, ctl.AP):
        return
    if hasattr(node, "operand"):
        _assert_core(node.operand)
    else:
        _assert_core(node.left)
        _assert_core(node.right)


def test_parse_ctl_yields_only_the_core():
    for text in (
        "AG(x=1 -> AF(x=0))",
        "AU(x>0)(y=1)",
        "EG(x=1)",
        "AX(EX(x=1))",
        "!(x=1) || EF(y=2)",
    ):
        _assert_core(ctl.parse_ctl(text))
    parsed = 0
    for text in _parse_corpus():
        try:
            phi = ctl.parse_ctl(text)
        except ctl.CtlSyntaxError:
            continue
        _assert_core(phi)
        parsed += 1
    assert parsed == 326


def test_parse_ag_as_not_ef_not():
    phi = ctl.parse_ctl("AG(x=1)")
    assert isinstance(phi, ctl.Not)
    assert isinstance(phi.operand, ctl.EF)
    assert isinstance(phi.operand.operand, ctl.Not)


def test_ctl_to_datalog_payloads_once_in_first_occurrence():
    _, _, pures = ctl.ctl_to_datalog(ctl.parse_ctl("AG(x=1 -> AF(x=1))"))
    assert pures == [pl.Bop(pl.EQ, pl.Var("x"), pl.Const(1))]
    # AU(p)(q) reads q first; Exit and y = 1 come back once each
    _, _, pures = ctl.ctl_to_datalog(ctl.parse_ctl("AU(Exit(_) || y=1)(y=1) && EF(Exit(_))"))
    assert list(map(str, pures)) == ["y=1", "Exit()"]


def test_pure_atom_shapes():
    s = 7
    assert ctl.pure_atom(pl.Bop(pl.EQ, pl.Var("y"), pl.Const(5)), s) == Atom("Eq", ("y", 5, s))
    assert ctl.pure_atom(pl.Bop(pl.GT, pl.Var("i"), pl.Const(10)), s) == Atom("Gt", ("i", 10, s))
    assert ctl.pure_atom(pl.Bop(pl.NEQ, pl.Var("x"), pl.Var("y")), s) == Atom(
        "NeqVar", ("x", "y", s)
    )
    assert ctl.pure_atom(pl.Rel("Exit", ()), s) == Atom("Exit", (s,))


def test_pure_atom_canonicalizes_mirrored_comparisons():
    s = 3
    # -y <= -5  ==  y >= 5
    neg = pl.Bop(pl.LTEQ, pl.Neg(pl.Var("y")), pl.Const(-5))
    assert ctl.pure_atom(neg, s) == Atom("GtEq", ("y", 5, s))
    # 5 < x  ==  x > 5
    swapped = pl.Bop(pl.LT, pl.Const(5), pl.Var("x"))
    assert ctl.pure_atom(swapped, s) == Atom("Gt", ("x", 5, s))


MIRROR = {pl.LT: pl.GT, pl.GT: pl.LT, pl.LTEQ: pl.GTEQ, pl.GTEQ: pl.LTEQ, pl.EQ: pl.EQ, pl.NEQ: pl.NEQ}


def test_fact_pure_inverts_pure_atom():
    # a comparison's fact reads back as the comparison with a variable on
    # the left, under a comparison-fact predicate
    x, y = pl.Var("x"), pl.Var("y")
    for op in MIRROR:
        for c in (pl.Const(3), pl.Const(0), pl.Const(-4)):
            for pi, canonical in (
                (pl.Bop(op, x, c), pl.Bop(op, x, c)),
                (pl.Bop(op, c, x), pl.Bop(MIRROR[op], x, c)),
                (pl.Bop(op, pl.Neg(x), c), pl.Bop(MIRROR[op], x, pl.Const(-c.value))),
                (pl.Bop(op, x, y), pl.Bop(op, x, y)),
            ):
                atom = ctl.pure_atom(pi, 7)
                assert atom.predicate in ctl.COMPARISON_PREDICATES, pi
                assert atom.args[-1] == 7
                assert ctl.fact_pure(atom) == canonical, pi
                assert ctl.fact_var(atom) == "x"


def test_pure_atom_is_none_without_a_fact_shape():
    x = pl.Var("x")
    for pi in (
        pl.Bop(pl.GT, x, pl.Neg(pl.Const(5))),  # how the program parser reads -5
        pl.Bop(pl.EQ, pl.Add(x, pl.Const(1)), pl.Const(2)),
        pl.mk_and(pl.Bop(pl.GT, x, pl.Const(0)), pl.Bop(pl.LT, x, pl.Const(9))),
        pl.mk_or(pl.Bop(pl.GT, x, pl.Const(0)), pl.Bop(pl.LT, x, pl.Const(-9))),
    ):
        assert ctl.pure_atom(pi, 7) is None, pi
    for atom in (Atom("Exit", (3,)), Atom("flow", (1, 2)), Atom("State", (1,))):
        assert atom.predicate not in ctl.COMPARISON_PREDICATES
        assert ctl.fact_pure(atom) is None


def test_ap_name_deterministic():
    assert ctl.ap_name(pl.Bop(pl.EQ, pl.Var("y"), pl.Const(5))) == "yEQ5"
    assert ctl.ap_name(pl.Bop(pl.GTEQ, pl.Var("x"), pl.Const(-2))) == "xGTEQm2"


def test_ctl_to_datalog_af_shape():
    top, rules, _ = ctl.ctl_to_datalog(ctl.parse_ctl("AF(y=5)"))
    assert top == "AF_yEQ5"
    heads = [r.head.predicate for r in rules]
    assert heads.count("AFT_yEQ5") == 2
    assert heads.count("AFS_yEQ5") == 2
    assert heads.count("yEQ5") == 1
    assert heads.count("AF_yEQ5") == 1
    # every rule with a negated derived head literal carries State grounding
    for r in rules:
        if r.head.predicate == "AF_yEQ5":
            preds = [lit.atom.predicate for lit in r.body]
            assert "State" in preds


def test_ctl_to_datalog_fresh_names_do_not_collide():
    top, rules, _ = ctl.ctl_to_datalog(ctl.parse_ctl("AF(y=5) && AF(y=5) || !(AF(y=5))"))
    # the repeated AF(y=5) subterm is shared via memoization, not renamed
    assert [r.head.predicate for r in rules].count("AF_yEQ5") == 1
    assert len(set(rules)) == len(rules)


def test_ctl_to_datalog_text_of_every_core_operator():
    # one property over Not, CAnd, COr, EX, EF, AF and EU: the rules, their
    # order and the fresh names are what dump-datalog prints
    top, rules, _ = ctl.ctl_to_datalog(
        ctl.parse_ctl("EU(x=1)(EX(y>0)) && (AF(Exit(_)) || !EF(x<2 && y=1))")
    )
    assert top == "xEQ1_EU_EX_yGT0_AND_AF_Exit_OR_NOT_EF_xLT2_AND_yEQ1"
    assert "\n".join(map(str, rules)) == """\
xEQ1(S) :- Eq("x", 1, S).
yGT0(S) :- Gt("y", 0, S).
EX_yGT0(S) :- flow(S, S1), yGT0(S1).
xEQ1_EU_EX_yGT0(S) :- EX_yGT0(S).
xEQ1_EU_EX_yGT0(S) :- xEQ1(S), flow(S, S1), xEQ1_EU_EX_yGT0(S1).
Exit(S) :- Exit(S).
AFT_Exit(S, S1) :- Cyc(S), !Exit(S), flow(S, S1).
AFT_Exit(S, S1) :- AFT_Exit(S, S2), !Exit(S2), flow(S2, S1).
AFS_Exit(S) :- AFT_Exit(S, S).
AFS_Exit(S) :- !Exit(S), flow(S, S1), AFS_Exit(S1).
AF_Exit(S) :- State(S), !AFS_Exit(S).
xLT2(S) :- Lt("x", 2, S).
yEQ1(S) :- Eq("y", 1, S).
xLT2_AND_yEQ1(S) :- xLT2(S), yEQ1(S).
EF_xLT2_AND_yEQ1(S) :- xLT2_AND_yEQ1(S).
EF_xLT2_AND_yEQ1(S) :- flow(S, S1), EF_xLT2_AND_yEQ1(S1).
NOT_EF_xLT2_AND_yEQ1(S) :- State(S), !EF_xLT2_AND_yEQ1(S).
AF_Exit_OR_NOT_EF_xLT2_AND_yEQ1(S) :- AF_Exit(S).
AF_Exit_OR_NOT_EF_xLT2_AND_yEQ1(S) :- NOT_EF_xLT2_AND_yEQ1(S).
xEQ1_EU_EX_yGT0_AND_AF_Exit_OR_NOT_EF_xLT2_AND_yEQ1(S) :- \
xEQ1_EU_EX_yGT0(S), AF_Exit_OR_NOT_EF_xLT2_AND_yEQ1(S)."""


# ---------------------------------------------------------------------------
# A seeded corpus of property texts and what parse_ctl makes of each
# ---------------------------------------------------------------------------

PARSE_CORPUS = pathlib.Path(__file__).parent / "goldens" / "parse_ctl.json"


def _corpus_formula(rng: random.Random, depth: int) -> str:
    """A property text drawn from the grammar, with random spacing."""

    def sp() -> str:
        return rng.choice(("", "", " "))

    def term() -> str:
        return rng.choice(("x", "y", "n_1", "AFx", str(rng.randint(-3, 12))))

    def sub() -> str:
        return _corpus_formula(rng, depth - 1)

    kind = rng.choice(("atom",) * 3 + ("unary", "until", "not", "and", "or", "implies", "group"))
    if depth == 0 or kind == "atom":
        if rng.random() < 0.3:
            name = rng.choice(("Exit", "Exit", "Call", "exit", "E"))
            args = rng.choice(("", "_", "_", "0", "x", "-1", "_ _", "_, _", "_ 0"))
            return f"{name}({sp()}{args}{sp()})"
        op = rng.choice(("=", "!=", "<", "<=", ">", ">=") * 3 + ("==",))
        return f"{term()}{sp()}{op}{sp()}{term()}"
    if kind == "unary":
        return f"{rng.choice(('AF', 'AG', 'EF', 'EG', 'AX', 'EX'))}{sp()}({sp()}{sub()}{sp()})"
    if kind == "until":
        return f"{rng.choice(('AU', 'EU'))}({sub()}){sp()}({sub()})"
    if kind == "not":
        return f"!{sp()}{sub()}"
    if kind == "group":
        return f"({sp()}{sub()}{sp()})"
    op = {"and": "&&", "or": "||", "implies": "->"}[kind]
    return f"{sub()}{sp()}{op}{sp()}{sub()}"


def _parse_corpus() -> list[str]:
    """500 texts: 400 drawn from the grammar, then 100 of them with one
    character deleted."""
    rng = random.Random(20)
    texts = [_corpus_formula(rng, rng.randint(0, 4)) for _ in range(400)]
    for text in rng.sample(texts, 100):
        i = rng.randrange(len(text))
        texts.append(text[:i] + text[i + 1 :])
    return texts


def _parsed(text: str) -> str:
    try:
        return str(ctl.parse_ctl(text))
    except ctl.CtlSyntaxError as exc:
        return f"CtlSyntaxError: {exc}"


def test_parse_ctl_corpus_matches_golden():
    # every result and error message of the parser, pinned; to accept an
    # intended change, delete the golden and run the test twice
    record = [[text, _parsed(text)] for text in _parse_corpus()]
    if not PARSE_CORPUS.exists():
        PARSE_CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, record)) + "\n]\n")
        pytest.fail(f"wrote missing golden {PARSE_CORPUS.name}; check it and rerun")
    expected = json.loads(PARSE_CORPUS.read_text())
    assert [t for t, _ in record] == [t for t, _ in expected]
    differing = [(t, got, want) for (t, got), (_, want) in zip(record, expected) if got != want]
    assert not differing
