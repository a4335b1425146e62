"""Parser and CFG construction for the `.imp` mini-language.

The language is a small C-like fragment: integer variables, `*` as a
nondeterministic value, assignments, `if`/`else`, `while`, `return`,
`break`, and calls of the form `x = p(a, b);`.  A leading comment
`//@ ctl: <formula>` binds the temporal property to check.

Each procedure is lowered to a five-node CFG (Start / Exit / Join /
Prune / Stmt) where every two-way branch is a Join whose successors are
Prune nodes carrying complementary guards.  Node ids are assigned in a
deterministic pre-order walk and are globally unique across procedures.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

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
# Surface AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    start: int
    end: int  # exclusive, past the terminating ';' or '}'


class StmtAst:
    __slots__ = ()


@dataclass(frozen=True)
class DeclStmt(StmtAst):
    name: str
    value: object  # pl.Term | CallExpr; `int x;` declares x = *
    span: Span


@dataclass(frozen=True)
class AssignStmt(StmtAst):
    name: str
    value: object  # pl.Term | CallExpr
    span: Span


@dataclass(frozen=True)
class CallExpr:
    callee: str
    args: tuple[pl.Term, ...]


@dataclass(frozen=True)
class IfStmt(StmtAst):
    cond: object  # pl.Pure | NondetCond
    then: tuple[StmtAst, ...]
    orelse: tuple[StmtAst, ...]
    span: Span


@dataclass(frozen=True)
class WhileStmt(StmtAst):
    cond: object
    body: tuple[StmtAst, ...]
    span: Span
    body_end: int  # offset of the closing '}' of the body (insertion point)


@dataclass(frozen=True)
class ReturnStmt(StmtAst):
    value: pl.Term | None
    span: Span


@dataclass(frozen=True)
class BreakStmt(StmtAst):
    span: Span


@dataclass(frozen=True)
class NondetCond:
    """A `*` condition: a purely nondeterministic two-way branch."""


@dataclass(frozen=True)
class ProcedureAst:
    name: str
    params: tuple[str, ...]
    body: tuple[StmtAst, ...]
    span: Span


@dataclass(frozen=True)
class ProgramAst:
    procedures: tuple[ProcedureAst, ...]
    ctl: str | None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.i = 0

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

    # -- statements ---------------------------------------------------------

    def parse_rhs(self) -> object:
        """Assignment right-hand side: an expression or a call."""
        if (
            self.peek().kind == "id"
            and self.peek(1).text == "("
        ):
            callee = self.take(kind="id").text
            self.take("(")
            args: list[pl.Term] = []
            while self.peek().text != ")":
                args.append(self.parse_expr())
                if self.peek().text == ",":
                    self.take(",")
            self.take(")")
            return CallExpr(callee, tuple(args))
        return self.parse_expr()

    def parse_stmt(self) -> StmtAst:
        tok = self.peek()
        start = tok.pos
        if tok.text == "int":
            self.take("int")
            name = self.take(kind="id").text
            value = pl.Wildcard()
            if self.peek().text == "=":
                self.take("=")
                value = self.parse_rhs()
            end = self.take(";").pos + 1
            return DeclStmt(name, value, Span(start, end))
        if tok.text == "if":
            self.take("if")
            self.take("(")
            cond = self.parse_disj()
            self.take(")")
            then = self.parse_block_or_stmt()
            orelse: tuple[StmtAst, ...] = ()
            if self.peek().text == "else":
                self.take("else")
                orelse = self.parse_block_or_stmt()
            end = self.tokens[self.i - 1].pos + len(self.tokens[self.i - 1].text)
            return IfStmt(cond, then, orelse, Span(start, end))
        if tok.text == "while":
            self.take("while")
            self.take("(")
            cond = self.parse_disj()
            self.take(")")
            if self.peek().text == "{":
                body, closing = self.parse_block()
                return WhileStmt(cond, body, Span(start, closing.pos + 1), closing.pos)
            stmt = self.parse_stmt()
            end = self.tokens[self.i - 1].pos + len(self.tokens[self.i - 1].text)
            return WhileStmt(cond, (stmt,), Span(start, end), end - 1)
        if tok.text == "return":
            self.take("return")
            value: pl.Term | None = None
            if self.peek().text != ";":
                value = self.parse_expr()
            end = self.take(";").pos + 1
            return ReturnStmt(value, Span(start, end))
        if tok.text == "break":
            self.take("break")
            end = self.take(";").pos + 1
            return BreakStmt(Span(start, end))
        if tok.kind == "id":
            name = self.take(kind="id").text
            op = self.take()
            if op.text == "=":
                value = self.parse_rhs()
            elif op.text == "+=":
                value = pl.Add(pl.Var(name), self.parse_expr())
            else:
                raise ImpSyntaxError(f"{self.where(op)}: expected '=' after {name!r}")
            end = self.take(";").pos + 1
            return AssignStmt(name, value, Span(start, end))
        raise ImpSyntaxError(f"{self.where(tok)}: unexpected {tok.text!r}")

    def parse_block(self) -> tuple[tuple[StmtAst, ...], Token]:
        """The statements of a braced block, and its closing brace."""
        self.take("{")
        out: list[StmtAst] = []
        while self.peek().text != "}":
            out.append(self.parse_stmt())
        return tuple(out), self.take("}")

    def parse_block_or_stmt(self) -> tuple[StmtAst, ...]:
        if self.peek().text == "{":
            return self.parse_block()[0]
        return (self.parse_stmt(),)

    def parse_procedure(self) -> ProcedureAst:
        start = self.peek().pos
        if self.peek().text not in ("int", "void"):
            tok = self.peek()
            raise ImpSyntaxError(f"{self.where(tok)}: expected a procedure, found {tok.text!r}")
        self.take()
        name = self.take(kind="id").text
        self.take("(")
        params: list[str] = []
        while self.peek().text != ")":
            self.take("int")
            params.append(self.take(kind="id").text)
            if self.peek().text == ",":
                self.take(",")
        self.take(")")
        body, closing = self.parse_block()
        return ProcedureAst(name, tuple(params), body, Span(start, closing.pos + 1))

    def parse_program(self) -> ProgramAst:
        procs: list[ProcedureAst] = []
        while self.peek().kind != "eof":
            procs.append(self.parse_procedure())
        names = [p.name for p in procs]
        if len(set(names)) != len(names):
            raise ImpSyntaxError("duplicate procedure names")
        return ProgramAst(tuple(procs), property_annotation(self.source))


def parse(source: str) -> ProgramAst:
    """Parse mini-language text; checks each procedure's declarations,
    ``break`` statements and calls."""
    program = _Parser(source).parse_program()
    arity = {proc.name: len(proc.params) for proc in program.procedures}
    for proc in program.procedures:
        _check_scopes(proc, arity)
    return program


def _check_scopes(proc: ProcedureAst, arity: dict[str, int]) -> None:
    """Declarations before use, ``break`` only inside a loop, and as many
    arguments as parameters in a call to a procedure of the program (a call
    to any other name is an external call)."""
    declared = set(proc.params)

    def reads_ok(value) -> None:
        """A term, call or condition reads no undeclared variable (the
        leftmost is named), and a call has its callee's arity."""
        if isinstance(value, NondetCond):
            return
        reads = (value,)
        if isinstance(value, CallExpr):
            if value.callee in arity and len(value.args) != arity[value.callee]:
                raise ImpSyntaxError(
                    f"{value.callee!r} takes {arity[value.callee]} argument(s) "
                    f"but is called with {len(value.args)} in {proc.name}"
                )
            reads = value.args
        for v in pl.names(*reads):
            if v not in declared:
                raise ImpSyntaxError(f"use of undeclared variable {v!r} in {proc.name}")

    def walk(stmts, in_loop: bool) -> None:
        for s in stmts:
            if isinstance(s, DeclStmt):
                reads_ok(s.value)
                declared.add(s.name)
            elif isinstance(s, AssignStmt):
                if s.name not in declared:
                    raise ImpSyntaxError(f"assignment to undeclared variable {s.name!r} in {proc.name}")
                reads_ok(s.value)
            elif isinstance(s, IfStmt):
                reads_ok(s.cond)
                walk(s.then, in_loop)
                walk(s.orelse, in_loop)
            elif isinstance(s, WhileStmt):
                reads_ok(s.cond)
                walk(s.body, True)
            elif isinstance(s, ReturnStmt):
                if s.value is not None:
                    reads_ok(s.value)
            elif isinstance(s, BreakStmt) and not in_loop:
                raise ImpSyntaxError(f"`break` outside a loop in {proc.name}")

    walk(proc.body, False)


# ---------------------------------------------------------------------------
# Condition printer (repair writes inserted guards with it)
# ---------------------------------------------------------------------------


_RELOP_TEXT = {op: text for text, op in _Parser._RELOPS.items()}


def _pp_cond(c) -> str:
    if isinstance(c, NondetCond):
        return "*"
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
# CFG
# ---------------------------------------------------------------------------


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


class _CfgBuilder:
    def __init__(self, counter: list[int]):
        self.counter = counter
        self.proc: Procedure | None = None

    def new(self, node_factory, span: Span | None = None) -> int:
        sid = self.counter[0]
        self.counter[0] += 1
        node = node_factory(sid)
        self.proc.nodes[sid] = node
        self.proc.trans[sid] = []
        if span is not None:
            self.proc.spans[sid] = span
        return sid

    def edge(self, a: int, b: int) -> None:
        if b not in self.proc.trans[a]:
            self.proc.trans[a].append(b)

    def prune_pair(self, cond, span: Span) -> tuple[int, int]:
        """The true and false Prune nodes of a two-way branch on ``cond``."""
        nondet = isinstance(cond, NondetCond)
        true_pi, false_pi = (pl.TRUE, pl.TRUE) if nondet else (cond, pl.negate(cond))
        p_true = self.new(lambda s: Prune(true_pi, s, nondet), span)
        p_false = self.new(lambda s: Prune(false_pi, s, nondet), span)
        return p_true, p_false

    def build(self, ast_proc: ProcedureAst) -> Procedure:
        self.proc = Procedure(ast_proc.name, ast_proc.params, entry=-1)
        start = self.new(Start)
        self.proc.entry = start
        # `parse` rejects a `break` outside a loop, so no break is left over
        tails = self.lower_block(ast_proc.body, [start], [])
        if tails:
            exit_id = self.new(ExitNode)
            for t in tails:
                self.edge(t, exit_id)
        return self.proc

    def lower_block(self, stmts, preds: list[int], breaks: list[int]) -> list[int]:
        """Lower a statement list; returns its dangling tails.  A ``break``
        adds its node to ``breaks``, the list of the innermost loop."""
        for stmt in stmts:
            if not preds:
                break  # unreachable code after return/break
            preds = self.lower_stmt(stmt, preds, breaks)
        return preds

    def lower_stmt(self, stmt, preds: list[int], breaks: list[int]) -> list[int]:
        def link(sid: int) -> None:
            for p in preds:
                self.edge(p, sid)

        if isinstance(stmt, (DeclStmt, AssignStmt)):
            value = stmt.value
            if isinstance(value, CallExpr):
                sid = self.new(lambda s: Call(value.callee, value.args, stmt.name, s), stmt.span)
            else:
                sid = self.new(lambda s: Assign(stmt.name, value, s), stmt.span)
            link(sid)
            return [sid]
        if isinstance(stmt, ReturnStmt):
            sid = self.new(lambda s: Return(stmt.value, s), stmt.span)
            link(sid)
            return []
        if isinstance(stmt, BreakStmt):
            sid = self.new(Join, stmt.span)
            link(sid)
            breaks.append(sid)
            return []
        if isinstance(stmt, IfStmt):
            join = self.new(Join, stmt.span)
            link(join)
            p_true, p_false = self.prune_pair(stmt.cond, stmt.span)
            self.edge(join, p_true)
            then_tails = self.lower_block(stmt.then, [p_true], breaks)
            self.edge(join, p_false)
            else_tails = self.lower_block(stmt.orelse, [p_false], breaks)
            return then_tails + else_tails
        if isinstance(stmt, WhileStmt):
            join = self.new(Join, stmt.span)
            link(join)
            p_true, p_false = self.prune_pair(stmt.cond, stmt.span)
            self.edge(join, p_true)
            loop_breaks: list[int] = []
            body_tails = self.lower_block(stmt.body, [p_true], loop_breaks)
            for t in body_tails:
                self.edge(t, join)  # back edge
            if body_tails:  # a body that always returns or breaks never loops
                self.proc.loop_insert[join] = stmt.body_end
            self.edge(join, p_false)
            # break statements jump past the loop, joining the false branch exit
            preds_after = [p_false] + loop_breaks
            return preds_after
        raise TypeError(f"cannot lower statement: {stmt!r}")


def build_cfg(program_ast: ProgramAst) -> Program:
    """Lower every procedure; node ids are globally unique and pre-ordered."""
    counter = [1]
    procedures: dict[str, Procedure] = {}
    # Procedures are lowered in file order, so main's node ids follow those
    # of every procedure written before it.
    for proc_ast in program_ast.procedures:
        builder = _CfgBuilder(counter)
        procedures[proc_ast.name] = builder.build(proc_ast)
    return Program(procedures)


# ---------------------------------------------------------------------------
# Concrete CFG interpreter (test oracle for loop-summary soundness)
# ---------------------------------------------------------------------------


def run_cfg(
    program: Program,
    proc_name: str,
    store: dict[str, int],
    rng: random.Random,
    max_steps: int = 10_000,
    watch_join: int | None = None,
) -> tuple[str, int, dict[str, int]]:
    """Execute a procedure concretely.

    Returns (status, join_visits, final store) where status is one of
    "return", "end", or "fuel".  ``join_visits`` counts arrivals at
    ``watch_join`` (used to bound loop iterations in tests).  Calls to other
    procedures execute recursively, and a callee that runs out of fuel ends
    the caller's run with "fuel" too; wildcard values are drawn from ``rng``.
    """
    proc = program.procedures[proc_name]
    store = dict(store)

    def draw() -> int:
        return rng.randint(-8, 8)

    node_id = proc.entry
    visits = 0
    for _ in range(max_steps):
        node = proc.nodes[node_id]
        if isinstance(node, Return):
            if node.x is not None:
                store["__ret__"] = pl.eval_term(node.x, store, draw)
            return "return", visits, store
        if isinstance(node, ExitNode):
            return "end", visits, store
        if isinstance(node, Join) and node_id == watch_join:
            visits += 1
        if isinstance(node, Assign):
            store[node.x] = pl.eval_term(node.t, store, draw)
        elif isinstance(node, Call):
            callee = program.procedures.get(node.p)
            if callee is None:
                store[node.r] = draw()
            else:
                sub = {f: pl.eval_term(a, store, draw) for f, a in zip(callee.params, node.args)}
                status, _, sub_store = run_cfg(program, node.p, sub, rng, max_steps)
                if status == "fuel":
                    return "fuel", visits, store
                store[node.r] = sub_store.get("__ret__", draw())
        succs = proc.trans[node_id]
        if not succs:
            return "end", visits, store
        if isinstance(node, Join) and len(succs) == 2:
            a, b = proc.nodes[succs[0]], proc.nodes[succs[1]]
            if isinstance(a, Prune) and a.nondet:
                node_id = rng.choice(succs)
                continue
            node_id = succs[0] if pl.eval_pure(a.pi, store, draw) else succs[1]
            continue
        # Prune with a failing guard on a 1-successor chain cannot happen in
        # lowered code; move on.
        node_id = succs[0]
    return "fuel", visits, store
