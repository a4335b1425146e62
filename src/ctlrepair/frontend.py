"""Parser and CFG construction for the `.imp` mini-language.

The language is a small C-like fragment: integer variables, `*` as a
nondeterministic value, assignments, `if`/`else`, `while`, `return`,
`break`, and calls of the form `x = p(a, b);`.  A leading comment
`//@ ctl: <formula>` binds the temporal property to check.

`parse` reads the text in one pass from tokens to control-flow graph: each
statement is lowered as it is read, with no syntax tree in between.  Each
procedure becomes a five-node CFG (Start / Exit / Join / Prune / Stmt)
where every two-way branch is a Join whose successors are Prune nodes
carrying complementary guards.  Node ids follow source order and are
globally unique across procedures.  Code after a `return` or `break` in a
block is read and checked but gets no node.

The same pass checks scopes: declarations before use, `break` only inside
a loop, and the arity of each call to a procedure of the program.  The
problems are reported once the whole text has parsed, the first in source
order; a syntax error, and then a duplicate procedure name, comes first.
"""

from __future__ import annotations

import random
import re
from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from functools import partial

from . import pure_logic as pl


class ImpSyntaxError(ValueError):
    """Syntax or scoping error, with line/column information."""


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<skip>\s+|//[^\n]*)"
    r"|(?P<num>\d+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\+=|==|!=|<=|>=|\|\||&&|[-+*(){};=,<>!])"
    r"|(?P<bad>.)"
)

_KEYWORDS = {"int", "void", "if", "else", "while", "return", "break"}


@dataclass(frozen=True)
class Token:
    kind: str  # num | id | op | kw | eof
    text: str
    pos: int


def _where(source: str, pos: int) -> str:
    """`line L:C` of offset ``pos``, both counted from 1."""
    line = source.count("\n", 0, pos) + 1
    col = pos - source.rfind("\n", 0, pos)  # rfind gives -1 on the first line
    return f"line {line}:{col}"


def _lex(source: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "bad":
            raise ImpSyntaxError(f"{_where(source, m.start())}: unexpected character {m.group()!r}")
        text = m.group()
        tokens.append(Token("kw" if text in _KEYWORDS else kind, text, m.start()))
    tokens.append(Token("eof", "<eof>", len(source)))
    return tokens


def property_annotation(source: str) -> str | None:
    """The `//@ ctl: ...` annotation from the first non-blank line, if any."""
    for raw in source.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        m = re.match(r"//@\s*ctl:\s*(.+)$", stripped)
        return m.group(1).strip() if m else None
    return None


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    start: int
    end: int  # exclusive, past the terminating ';' or '}'


@dataclass(frozen=True)
class NondetCond:
    """A `*` condition: a purely nondeterministic two-way branch."""


@dataclass(frozen=True)
class Start:
    s: int


@dataclass(frozen=True)
class ExitNode:
    s: int


@dataclass(frozen=True)
class Join:
    s: int


@dataclass(frozen=True)
class Prune:
    pi: object  # pl.Pure; NondetCond branches carry T on both sides
    s: int
    nondet: bool = False


@dataclass(frozen=True)
class Assign:
    x: str
    t: pl.Term
    s: int


@dataclass(frozen=True)
class Return:
    x: pl.Term | None
    s: int


@dataclass(frozen=True)
class Call:
    p: str
    args: tuple[pl.Term, ...]
    r: str
    s: int


CfgNode = object


@dataclass
class Procedure:
    name: str
    params: tuple[str, ...]
    entry: int
    nodes: dict[int, CfgNode] = field(default_factory=dict)
    trans: dict[int, list[int]] = field(default_factory=dict)
    # source info: node id -> span; the Join of each while whose body comes
    # back to it -> body insertion offset (these Joins are the CFG's loops)
    spans: dict[int, Span] = field(default_factory=dict)
    loop_insert: dict[int, int] = field(default_factory=dict)


@dataclass
class Program:
    procedures: dict[str, Procedure]


@dataclass(frozen=True)
class ParsedProgram:
    """What ``parse`` reads: the lowered procedures and the property text."""

    procedures: tuple[Procedure, ...]  # in file order
    ctl: str | None


# ---------------------------------------------------------------------------
# Parser, lowering each statement as it reads it
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.i = 0
        self.next_id = 1  # node ids are global across procedures
        self.proc: Procedure | None = None
        self.declared: set[str] = set()  # in the procedure, dead code too
        # scope problems in source order: a message, or the (callee, number
        # of arguments, caller) of a call, checked once every arity is known
        self.problems: list[str | tuple[str, int, str]] = []

    def where(self, tok: Token) -> str:
        return _where(self.source, tok.pos)

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def take(self, text: str | None = None, kind: str | None = None) -> Token:
        tok = self.tokens[self.i]
        if text is not None and tok.text != text:
            raise ImpSyntaxError(f"{self.where(tok)}: expected {text!r}, found {tok.text!r}")
        if kind is not None and tok.kind != kind:
            raise ImpSyntaxError(f"{self.where(tok)}: expected a {kind}, found {tok.text!r}")
        self.i += 1
        return tok

    def listing(self, entry: Callable[[], object]) -> list:
        """A parenthesized list of what ``entry`` reads, ``,`` between each
        two entries."""
        self.take("(")
        out = []
        while self.peek().text != ")":
            if out:
                self.take(",")
            out.append(entry())
        self.take(")")
        return out

    def end_of_last(self) -> int:
        """The offset just past the last token taken."""
        tok = self.tokens[self.i - 1]
        return tok.pos + len(tok.text)

    # -- expressions --------------------------------------------------------

    def parse_term_atom(self) -> pl.Term:
        tok = self.peek()
        if tok.text == "(":
            self.take("(")
            t = self.parse_expr()
            self.take(")")
            return t
        if tok.text == "-":
            self.take("-")
            return pl.Neg(self.parse_term_atom())
        if tok.text == "*":
            self.take("*")
            return pl.Wildcard()
        if tok.kind == "num":
            return pl.Const(int(self.take(kind="num").text))
        if tok.kind == "id":
            return pl.Var(self.take(kind="id").text)
        raise ImpSyntaxError(f"{self.where(tok)}: expected an expression, found {tok.text!r}")

    def parse_expr(self) -> pl.Term:
        t = self.parse_term_atom()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.parse_term_atom()
            t = pl.Add(t, rhs) if op == "+" else pl.Sub(t, rhs)
        return t

    # -- conditions ---------------------------------------------------------

    _RELOPS = {"==": pl.EQ, "!=": pl.NEQ, "<": pl.LT, ">": pl.GT, "<=": pl.LTEQ, ">=": pl.GTEQ}

    def parse_disj(self) -> object:
        out = self.parse_conj()
        while self.peek().text == "||":
            self.take("||")
            rhs = self.parse_conj()
            out = self._combine(out, rhs, pl.mk_or)
        return out

    def parse_conj(self) -> object:
        out = self.parse_catom()
        while self.peek().text == "&&":
            self.take("&&")
            rhs = self.parse_catom()
            out = self._combine(out, rhs, pl.mk_and)
        return out

    @staticmethod
    def _combine(a, b, op):
        if isinstance(a, NondetCond) or isinstance(b, NondetCond):
            raise ImpSyntaxError("a `*` condition cannot be combined with && or ||")
        return op(a, b)

    def parse_catom(self) -> object:
        tok = self.peek()
        if tok.text == "!":
            self.take("!")
            inner = self.parse_catom()
            if isinstance(inner, NondetCond):
                return inner
            return pl.negate(inner)
        if tok.text == "(":
            # Could be a parenthesized condition or expression; parse as
            # condition (a lone expression still comes out as expr != 0).
            self.take("(")
            out = self.parse_disj()
            self.take(")")
            if isinstance(out, pl.Pure) and self.peek().text in self._RELOPS:
                raise ImpSyntaxError(
                    f"{self.where(tok)}: comparison of boolean expressions is not supported"
                )
            return out
        if tok.text == "*":
            self.take("*")
            return NondetCond()
        left = self.parse_expr()
        if self.peek().text in self._RELOPS:
            op = self._RELOPS[self.take().text]
            right = self.parse_expr()
            return pl.Bop(op, left, right)
        # A bare expression means `expr != 0`; bare constants fold to T/F.
        if isinstance(left, pl.Const):
            return pl.TRUE if left.value != 0 else pl.FALSE
        return pl.Bop(pl.NEQ, left, pl.Const(0))

    # -- scopes -------------------------------------------------------------

    def reads(self, *values: object) -> None:
        """Note the leftmost undeclared variable the terms or condition read."""
        for v in pl.names(*values):
            if v not in self.declared:
                self.problems.append(f"use of undeclared variable {v!r} in {self.proc.name}")
                return

    # -- statements ---------------------------------------------------------
    #
    # Each statement is read after ``preds``, the tails it follows, and
    # returns its own tails.  With no ``preds`` it is dead code: read and
    # checked, but given no node.  ``breaks`` collects the ``break`` nodes of
    # the innermost loop, and is None outside a loop.

    def node(self, make, preds: list[int], span: Span | None = None) -> int:
        """A new node ``make(id)``, the successor of each of ``preds``."""
        sid = self.next_id
        self.next_id += 1
        proc = self.proc
        proc.nodes[sid] = make(sid)
        proc.trans[sid] = []
        if span is not None:
            proc.spans[sid] = span
        for p in preds:
            proc.trans[p].append(sid)
        return sid

    def rhs(self, name: str):
        """An assignment's right-hand side, an expression or a call, as the
        maker of the node that writes it to ``name``."""
        if self.peek().kind == "id" and self.peek(1).text == "(":
            callee = self.take(kind="id").text
            args = self.listing(self.parse_expr)
            self.problems.append((callee, len(args), self.proc.name))
            self.reads(*args)
            return partial(Call, callee, tuple(args), name)
        value = self.parse_expr()
        self.reads(value)
        return partial(Assign, name, value)

    def branch(self, preds: list[int], start: int) -> tuple[int | None, list[int], list[int]]:
        """Read a parenthesized condition; after ``preds``, lower it to a Join
        and its true and false Prune.  Returns the Join (None in dead code)
        and each Prune as a tail list."""
        self.take("(")
        cond = self.parse_disj()
        self.take(")")
        nondet = isinstance(cond, NondetCond)
        if not nondet:
            self.reads(cond)
        if not preds:
            return None, [], []
        true_pi, false_pi = (pl.TRUE, pl.TRUE) if nondet else (cond, pl.negate(cond))
        # the statement's end is read later (close_branch); a provisional
        # span keeps the spans in id order
        provisional = Span(start, start)
        join = self.node(Join, preds, provisional)
        p_true = self.node(partial(Prune, true_pi, nondet=nondet), [join], provisional)
        p_false = self.node(partial(Prune, false_pi, nondet=nondet), [join], provisional)
        return join, [p_true], [p_false]

    def close_branch(self, join: int | None, end: int) -> None:
        """Give the Join and Prunes of a ``branch`` the span of its statement."""
        if join is not None:
            spans = self.proc.spans
            spans[join] = spans[join + 1] = spans[join + 2] = Span(spans[join].start, end)

    def stmt(self, preds: list[int], breaks: list[int] | None) -> list[int]:
        tok = self.peek()
        start = tok.pos
        if tok.text == "int":
            self.take("int")
            name = self.take(kind="id").text
            make = partial(Assign, name, pl.Wildcard())
            if self.peek().text == "=":
                self.take("=")
                make = self.rhs(name)
            self.declared.add(name)
        elif tok.text == "if":
            self.take("if")
            join, then_preds, else_preds = self.branch(preds, start)
            tails = self.block_or_stmt(then_preds, breaks)
            if self.peek().text == "else":
                self.take("else")
                else_preds = self.block_or_stmt(else_preds, breaks)
            self.close_branch(join, self.end_of_last())
            return tails + else_preds
        elif tok.text == "while":
            self.take("while")
            join, body_preds, after = self.branch(preds, start)
            loop_breaks: list[int] = []
            if self.peek().text == "{":
                tails, closing = self.block(body_preds, loop_breaks)
                end, insert = closing.pos + 1, closing.pos
            else:
                tails = self.stmt(body_preds, loop_breaks)
                end = self.end_of_last()
                insert = end - 1
            self.close_branch(join, end)
            if tails:  # a body that always returns or breaks never loops
                for t in tails:
                    self.proc.trans[t].append(join)  # back edge
                self.proc.loop_insert[join] = insert
            # break statements jump past the loop, joining the false branch exit
            return after + loop_breaks
        elif tok.text == "return":
            self.take("return")
            value: pl.Term | None = None
            if self.peek().text != ";":
                value = self.parse_expr()
                self.reads(value)
            end = self.take(";").pos + 1
            if preds:
                self.node(partial(Return, value), preds, Span(start, end))
            return []
        elif tok.text == "break":
            self.take("break")
            end = self.take(";").pos + 1
            if breaks is None:
                self.problems.append(f"`break` outside a loop in {self.proc.name}")
            elif preds:
                breaks.append(self.node(Join, preds, Span(start, end)))
            return []
        elif tok.kind == "id":
            name = self.take(kind="id").text
            op = self.take()
            if op.text not in ("=", "+="):
                raise ImpSyntaxError(f"{self.where(op)}: expected '=' after {name!r}")
            if name not in self.declared:
                self.problems.append(f"assignment to undeclared variable {name!r} in {self.proc.name}")
            if op.text == "=":
                make = self.rhs(name)
            else:
                value = pl.Add(pl.Var(name), self.parse_expr())
                self.reads(value)
                make = partial(Assign, name, value)
        else:
            raise ImpSyntaxError(f"{self.where(tok)}: unexpected {tok.text!r}")
        end = self.take(";").pos + 1
        return [self.node(make, preds, Span(start, end))] if preds else []

    def block(self, preds: list[int], breaks: list[int] | None) -> tuple[list[int], Token]:
        """The tails of a braced block, and its closing brace."""
        self.take("{")
        while self.peek().text != "}":
            preds = self.stmt(preds, breaks)
        return preds, self.take("}")

    def block_or_stmt(self, preds: list[int], breaks: list[int] | None) -> list[int]:
        if self.peek().text == "{":
            return self.block(preds, breaks)[0]
        return self.stmt(preds, breaks)

    def param(self) -> str:
        self.take("int")
        return self.take(kind="id").text

    def procedure(self) -> Procedure:
        if self.peek().text not in ("int", "void"):
            tok = self.peek()
            raise ImpSyntaxError(f"{self.where(tok)}: expected a procedure, found {tok.text!r}")
        self.take()
        name = self.take(kind="id").text
        params = self.listing(self.param)
        self.proc = Procedure(name, tuple(params), entry=self.next_id)  # the Start node, next
        self.declared = set(params)
        tails, _ = self.block([self.node(Start, [])], None)
        if tails:
            self.node(ExitNode, tails)
        return self.proc

    def program(self) -> ParsedProgram:
        procs: list[Procedure] = []
        while self.peek().kind != "eof":
            procs.append(self.procedure())
        arity = {proc.name: len(proc.params) for proc in procs}
        if len(arity) != len(procs):
            raise ImpSyntaxError("duplicate procedure names")
        for problem in self.problems:
            if isinstance(problem, tuple):  # a call; one to an external name takes any arity
                callee, n, caller = problem
                if arity.get(callee, n) == n:
                    continue
                problem = f"{callee!r} takes {arity[callee]} argument(s) but is called with {n} in {caller}"
            raise ImpSyntaxError(problem)
        return ParsedProgram(tuple(procs), property_annotation(self.source))


def parse(source: str) -> ParsedProgram:
    """Parse mini-language text into the CFG of each procedure, checking
    declarations, ``break`` statements and the arity of calls (a call to a
    name the program does not define is an external call, of any arity)."""
    return _Parser(source).program()


def build_cfg(parsed: ParsedProgram) -> Program:
    """The parsed procedures by name."""
    return Program({proc.name: proc for proc in parsed.procedures})


# ---------------------------------------------------------------------------
# Condition printer (repair writes inserted guards with it)
# ---------------------------------------------------------------------------


_RELOP_TEXT = {op: text for text, op in _Parser._RELOPS.items()}


def _pp_cond(c) -> str:
    if isinstance(c, pl.TrueP):
        return "1"
    if isinstance(c, pl.FalseP):
        return "0"
    if isinstance(c, pl.Bop):
        return f"{c.left} {_RELOP_TEXT[c.op]} {c.right}"
    if isinstance(c, pl.And):
        return f"{_pp_cond(c.left)} && {_pp_cond(c.right)}"
    if isinstance(c, pl.Or):
        return f"({_pp_cond(c.left)}) || ({_pp_cond(c.right)})"
    raise TypeError(f"not a printable condition: {c!r}")



# ---------------------------------------------------------------------------
# Concrete semantics: one step function, which every concrete run reads
# ---------------------------------------------------------------------------


def steps(
    program: Program,
    proc_name: str,
    store: dict[str, int],
    rng: random.Random,
    max_steps: int = 10_000,
) -> Generator[tuple[int, dict[str, int]], None, str]:
    """Run a procedure concretely, one node per step.

    Yields ``(node_id, store)`` as each node is entered, with the store as
    the node leaves it: an assignment's, a call's and a ``return``'s write
    (to ``__ret__``) are in it.  A step that writes makes a new store, so a
    yielded store never changes.  Returns the final status:

    - ``"return"`` after a Return node;
    - ``"end"`` after the Exit node, the run having fallen off the end of
      the procedure.  That is not an ``Exit`` event: ``Exit(_)`` holds only
      at a ``return``, so ``void main() { int y = 0; }`` is Violated under
      ``AF(Exit(_))`` while its run ends with ``"end"``;
    - ``"fuel"`` after ``max_steps`` steps, or after a call whose callee
      ran out of fuel.

    A call is one step.  The callee runs to its end through `run_cfg`
    under its own ``max_steps``, and the stream shows only this
    procedure's frame, so a property read off it can observe only the
    caller's variables.  A callee that runs out of fuel writes nothing.

    Values are drawn from ``rng`` in evaluation order, which seeded
    replays and the goldens pin: ``randint(-8, 8)`` for each wildcard and
    for the result of a call to a procedure the program does not define,
    and ``choice`` of the successor at a ``*`` branch.
    """
    proc = program.procedures[proc_name]
    store = dict(store)

    def draw() -> int:
        return rng.randint(-8, 8)

    node_id = proc.entry
    for _ in range(max_steps):
        node = proc.nodes[node_id]
        if isinstance(node, Assign):
            store = {**store, node.x: pl.eval_term(node.t, store, draw)}
        elif isinstance(node, Return) and node.x is not None:
            store = {**store, "__ret__": pl.eval_term(node.x, store, draw)}
        elif isinstance(node, Call):
            callee = program.procedures.get(node.p)
            if callee is None:
                store = {**store, node.r: draw()}
            else:
                sub = {f: pl.eval_term(a, store, draw) for f, a in zip(callee.params, node.args)}
                status, _, sub_store = run_cfg(program, node.p, sub, rng, max_steps)
                if status == "fuel":
                    yield node_id, store
                    return "fuel"
                # the default is drawn even when the callee returned a value
                store = {**store, node.r: sub_store.get("__ret__", draw())}
        yield node_id, store
        if isinstance(node, Return):
            return "return"
        succs = proc.trans[node_id]
        if not succs:  # the Exit node
            return "end"
        if isinstance(node, Join) and len(succs) == 2:
            a = proc.nodes[succs[0]]
            if isinstance(a, Prune) and a.nondet:
                node_id = rng.choice(succs)
            else:
                node_id = succs[0] if pl.eval_pure(a.pi, store, draw) else succs[1]
        else:
            # Prune with a failing guard on a 1-successor chain cannot happen
            # in lowered code; move on.
            node_id = succs[0]
    return "fuel"


def run_cfg(
    program: Program,
    proc_name: str,
    store: dict[str, int],
    rng: random.Random,
    max_steps: int = 10_000,
) -> tuple[str, int, dict[str, int]]:
    """Run a procedure concretely: the fold of `steps` to its end.

    Returns (status, the number of nodes entered, the final store).
    """
    run = steps(program, proc_name, store, rng, max_steps)
    entered, final = 0, dict(store)
    while True:
        try:
            _, final = next(run)
        except StopIteration as stop:
            return stop.value, entered, final
        entered += 1
