"""Branching-time property ASTs and their translation to Datalog queries.

The surface grammar supports AF/AG/EF/EG/AX/EX, AU(p)(q), EU(p)(q), `->`,
`&&`, `||`, `!`, arithmetic atoms such as `y=5` or `x>=y`, and relation
atoms such as `Exit(_)`, which take no values.  Properties are parsed straight
into an 8-construct core (AP, Not, And, Or, EX, EF, AF, EU), which translates
rule-by-rule into stratified Datalog over a `flow` relation and abstract-state
facts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from . import pure_logic as pl
from .datalog_engine import Atom, DVar, Literal, Rule, parse_program


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class CtlFormula:
    __slots__ = ()


@dataclass(frozen=True)
class AP(CtlFormula):
    """An atomic proposition: one comparison, or one relation."""

    name: str
    pure: pl.Bop | pl.Rel

    def __str__(self) -> str:
        return str(self.pure)


def _unary(symbol: str):
    @dataclass(frozen=True)
    class Node(CtlFormula):
        operand: CtlFormula

        def __str__(self) -> str:
            return f"{symbol}({self.operand})"

    Node.__name__ = Node.__qualname__ = symbol
    return Node


def _binary(symbol: str, infix: bool):
    @dataclass(frozen=True)
    class Node(CtlFormula):
        left: CtlFormula
        right: CtlFormula

        def __str__(self) -> str:
            if infix:
                return f"({self.left} {symbol} {self.right})"
            return f"{symbol}({self.left})({self.right})"

    Node.__name__ = Node.__qualname__ = symbol
    return Node


Not = _unary("!")
EX = _unary("EX")
AF = _unary("AF")
EF = _unary("EF")
CAnd = _binary("&&", True)
COr = _binary("||", True)
EU = _binary("EU", False)

# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_CTL_TOKEN = re.compile(
    r"(?P<skip>\s+)"
    r"|(?P<tok>->|&&|\|\||==|>=|<=|!=|[!()=<>]|-?\d+|[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<bad>.)"
)

_OP_PURE = {text: op for op, text in pl._OP_SYMBOL.items()}
# each surface operator, as a builder of its core form
_UNARY = {
    "AF": AF, "EF": EF, "EX": EX,
    "AG": lambda p: Not(EF(Not(p))),
    "EG": lambda p: Not(AF(Not(p))),
    "AX": lambda p: Not(EX(Not(p))),
}
_UNTIL = {"EU": EU, "AU": lambda p, q: CAnd(Not(EU(Not(q), CAnd(Not(p), Not(q)))), AF(q))}


class CtlSyntaxError(ValueError):
    pass


def ap_name(pi: pl.Bop) -> str:
    """Deterministic predicate name for a comparison atom."""
    return f"{_name_part(pi.left)}{pi.op.upper()}{_name_part(pi.right)}"


def _name_part(t: pl.Term) -> str:
    if isinstance(t, pl.Var):
        return t.name
    if isinstance(t, pl.Const):
        return str(t.value) if t.value >= 0 else f"m{-t.value}"
    raise CtlSyntaxError(f"atomic propositions must compare variables/constants: {t}")


def parse_ctl(text: str) -> CtlFormula:
    """Parse a property into the core fragment; atoms are auto-named (e.g.
    yEQ5 for y=5)."""
    tokens = []
    for m in _CTL_TOKEN.finditer(text):
        if m.lastgroup == "skip":
            continue
        if m.lastgroup == "bad":
            raise CtlSyntaxError(f"bad character in property at offset {m.start()}: {m.group()!r}")
        tokens.append(m.group())
    tokens.append("<eof>")
    i = [0]

    def peek() -> str:
        return tokens[i[0]]

    def take(expected: str | None = None) -> str:
        tok = tokens[i[0]]
        if expected is not None and tok != expected:
            raise CtlSyntaxError(f"expected {expected!r}, found {tok!r}")
        i[0] += 1
        return tok

    def parse_term() -> pl.Term:
        tok = take()
        if re.fullmatch(r"-?\d+", tok):
            return pl.Const(int(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return pl.Var(tok)
        raise CtlSyntaxError(f"expected a variable or constant, found {tok!r}")

    def group() -> CtlFormula:
        take("(")
        out = parse_implies()
        take(")")
        return out

    def parse_primary() -> CtlFormula:
        tok = peek()
        if tok == "(":
            return group()
        if tok == "!":
            take()
            return Not(parse_primary())
        if tok in _UNARY:
            take()
            return _UNARY[tok](group())
        if tok in _UNTIL:
            take()
            return _UNTIL[tok](group(), group())
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) and tokens[i[0] + 1] == "(":
            # Relation atom such as Exit(_).  The encoder emits relation
            # events without values, so an argument can only be "_".
            take()
            take("(")
            while peek() == "_":
                take()
            if peek() != ")":
                raise CtlSyntaxError(
                    f"expected '_' or ')' in {tok}(...), found {peek()!r}: relation atoms take no values"
                )
            take()
            return AP(tok, pl.Rel(tok))
        left = parse_term()
        op = take()
        if op == "==":
            raise CtlSyntaxError("'==' is not a property operator; equality is written '='")
        if op not in _OP_PURE:
            raise CtlSyntaxError(f"expected a comparison operator, found {op!r}")
        pi = pl.Bop(_OP_PURE[op], left, parse_term())
        return AP(ap_name(pi), pi)

    def infix(operand, op: str, node):
        """A left fold of ``operand``s joined by ``op``."""

        def parse() -> CtlFormula:
            out = operand()
            while peek() == op:
                take()
                out = node(out, operand())
            return out

        return parse

    parse_or = infix(infix(parse_primary, "&&", CAnd), "||", COr)

    def parse_implies() -> CtlFormula:
        out = parse_or()
        if peek() == "->":
            take()
            return COr(Not(out), parse_implies())
        return out

    result = parse_implies()
    if peek() != "<eof>":
        raise CtlSyntaxError(f"trailing tokens in property: {peek()!r}")
    return result


# ---------------------------------------------------------------------------
# Translation to Datalog
# ---------------------------------------------------------------------------

S = DVar("S")


_OP_MIRROR = {
    pl.GT: pl.LT,
    pl.LT: pl.GT,
    pl.GTEQ: pl.LTEQ,
    pl.LTEQ: pl.GTEQ,
    pl.EQ: pl.EQ,
    pl.NEQ: pl.NEQ,
}


def _canonical_bop(pi: pl.Bop) -> pl.Bop:
    """Rewrite a comparison so a plain variable sits on the left.

    ``-y <= -5`` becomes ``y >= 5`` and ``5 < x`` becomes ``x > 5``.
    """
    left, right, op = pi.left, pi.right, pi.op
    if isinstance(left, pl.Neg) and isinstance(left.operand, pl.Var) and isinstance(right, pl.Const):
        left, right, op = left.operand, pl.Const(-right.value), _OP_MIRROR[op]
    elif isinstance(right, pl.Neg) and isinstance(right.operand, pl.Var) and isinstance(left, pl.Const):
        left, right, op = right.operand, pl.Const(-left.value), op
    if isinstance(left, pl.Const) and isinstance(right, pl.Var):
        left, right, op = right, left, _OP_MIRROR[op]
    return pl.Bop(op, left, right)


# the predicates of comparison facts: an operator, with "Var" when both
# sides are variables
COMPARISON_PREDICATES = frozenset(op + suffix for op in pl._OP_SYMBOL for suffix in ("", "Var"))


def pure_atom(pi: pl.Pure | pl.Rel, state) -> Atom | None:
    """The Datalog atom standing for one comparison/relation at a state, or
    None if the payload has no fact shape: a relation, or a comparison of
    variables and constants."""
    if isinstance(pi, pl.Rel):
        return Atom(pi.name, (state,))
    if not isinstance(pi, pl.Bop):
        return None
    pi = _canonical_bop(pi)
    left, right = pi.left, pi.right
    if not isinstance(left, (pl.Var, pl.Const)) or not isinstance(right, (pl.Var, pl.Const)):
        return None
    if isinstance(right, pl.Var):  # and so is left: _canonical_bop puts a variable there
        return Atom(pi.op + "Var", (left.name, right.name, state))
    return Atom(pi.op, (left.name if isinstance(left, pl.Var) else left.value, right.value, state))


def fact_pure(atom: Atom) -> pl.Bop | None:
    """The comparison a fact of ``pure_atom``'s shape stands for, or None."""
    if atom.predicate not in COMPARISON_PREDICATES:
        return None
    left, right = (pl.Var(a) if isinstance(a, str) else pl.Const(a) for a in atom.args[:2])
    return pl.Bop(atom.predicate.removesuffix("Var"), left, right)


def fact_var(atom: Atom) -> str | None:
    """The variable a comparison fact constrains: its left argument, or None
    if that is a constant."""
    return atom.args[0] if atom.args and isinstance(atom.args[0], str) else None


def cycle_heads(edges, states) -> list:
    """The targets of the back edges of one depth-first search over
    ``edges``, with roots in ``states`` order: every cycle of the graph
    passes through one (Clarke, Emerson & Sistla, TOPLAS 1986)."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    heads: dict = {}
    seen: set = set()
    for root in (r for r in states if r not in seen):
        seen.add(root)
        path = {root: iter(succ.get(root, ()))}  # the DFS stack, in order
        while path:
            b = next(path[next(reversed(path))], None)
            if b is None:
                path.popitem()
            elif b in path:
                heads[b] = None
            elif b not in seen:
                seen.add(b)
                path[b] = iter(succ.get(b, ()))
    return list(heads)


# The rules of each core operator over placeholder predicates: N is the
# operator's own, P and Q its operands', T and A AF's lasso relations.  A
# rule with a negative body literal carries the positive grounding atom
# State(S), or a positive literal that binds S.
_RULES = {
    op: parse_program(text).rules
    for op, text in {
        Not: "N(S) :- State(S), !P(S).",
        CAnd: "N(S) :- P(S), Q(S).",
        COr: "N(S) :- P(S). N(S) :- Q(S).",
        EX: "N(S) :- flow(S, S1), P(S1).",
        EF: "N(S) :- P(S). N(S) :- flow(S, S1), N(S1).",
        AF: """
            % A lasso witness: a path avoiding P that closes a cycle, or
            % reaches such a cycle; its absence everywhere proves AF P.  Every
            % cycle passes through a Cyc state (cycle_heads), also in a sign
            % world, which only removes edges, so the paths start only there.
            T(S, S1) :- Cyc(S), !P(S), flow(S, S1).
            T(S, S1) :- T(S, S2), !P(S2), flow(S2, S1).
            A(S) :- T(S, S).
            A(S) :- !P(S), flow(S, S1), A(S1).
            N(S) :- State(S), !A(S).
        """,
        EU: "N(S) :- Q(S). N(S) :- P(S), flow(S, S1), N(S1).",
    }.items()
}

# The names taken for N (then T and A), from the operands' names P and Q.
_NAMES = {
    Not: ("NOT_{P}",), CAnd: ("{P}_AND_{Q}",), COr: ("{P}_OR_{Q}",), EX: ("EX_{P}",),
    EF: ("EF_{P}",), AF: ("AF_{P}", "AFT_{P}", "AFS_{P}"), EU: ("{P}_EU_{Q}",),
}


def _rename(atom: Atom, names: dict[str, str]) -> Atom:
    name = names.get(atom.predicate)
    return atom if name is None else Atom(name, atom.args)


def ctl_to_datalog(phi: CtlFormula) -> tuple[str, list[Rule], list[pl.Bop | pl.Rel]]:
    """Translate a core-fragment property into stratified Datalog rules.

    Returns the top predicate name, the rule list (an atomic proposition's
    rule, then each operator's ``_RULES`` after its operands') and the
    atomic propositions' payloads, each once, in their first occurrence
    from the left.
    """
    rules: list[Rule] = []
    pures: list[pl.Bop | pl.Rel] = []
    names_used: set[str] = set()
    memo: dict[CtlFormula, str] = {}

    def fresh(base: str) -> str:
        name = base
        suffix = 2
        while name in names_used:
            name = f"{base}_{suffix}"
            suffix += 1
        names_used.add(name)
        return name

    def translate(node: CtlFormula) -> str:
        if node in memo:
            return memo[node]
        if isinstance(node, AP):
            name = fresh(node.name)
            # its payload in the fact shape the encoder emits
            rules.append(Rule(Atom(name, (S,)), (Literal(pure_atom(node.pure, S)),)))
            pures.append(node.pure)
        elif type(node) in _NAMES:
            sub = dict(zip("PQ", (translate(getattr(node, f.name)) for f in fields(node))))
            names = [fresh(pattern.format(**sub)) for pattern in _NAMES[type(node)]]
            sub.update(zip("NTA", names))
            for r in _RULES[type(node)]:
                body = tuple(Literal(_rename(l.atom, sub), l.positive) for l in r.body)
                rules.append(Rule(_rename(r.head, sub), body))
            name = names[0]
        else:
            raise TypeError(f"not in the core fragment: {node!r}")
        memo[node] = name
        return name

    top = translate(phi)
    return top, rules, pures
