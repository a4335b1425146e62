"""Quantifier-free integer arithmetic: terms, pure constraints, entailment.

This module houses the constraint fragment shared by branch guards, atomic
propositions, and loop analysis:

* ``Term`` — linear integer terms with a nondeterministic wildcard;
* ``Pure`` — boolean combinations of integer comparisons;
* ``Rel`` — an uninterpreted relation, which is an event payload or a
  property atom and never part of a ``Pure`` constraint;
* ``names`` — the variables of terms and constraints, left to right, each
  shared node walked once; ``conjuncts`` — an ``And`` chain flattened
  without recursion; ``subst_term`` — substitution, which with ``fresh``
  also names each wildcard, left to right;
* ``eval_term`` / ``eval_pure`` — concrete evaluation, drawing wildcards and
  unset variables from a caller's generator when one is given;
* ``negate`` / ``satisfiable`` / ``entails`` — complementation and a sound
  integer satisfiability check: a lazy case split over the DNF whose
  disjuncts are integer Fourier-Motzkin rows, strict bounds tightened for
  integers; ``state`` entails ``goal`` when ``state`` conjoined with the
  complement of ``goal`` is unsatisfiable;
* ``candidate_rfs`` — candidate ranking functions read off a loop guard;
* ``wp_delta`` — the per-iteration change of a ranking function across a
  loop body, given as one (guard, parallel substitution) pair per branch,
  split into a "strictly decreasing" and a "not decreasing" precondition.

Terms and constraints are immutable; integer semantics throughout.
``satisfiable`` and ``entails`` remember their answers in the ``Memo``
passed to them, keyed by interned node ids (hash-consing, ``node_id``):
structurally equal nodes share one int, cached on the node, so a key costs
one walk over the nodes not keyed before and an answer is never recomputed
for an equal question.  A memo lives as long as its owner keeps it: one
``repair.analyze``, or one ``repair.repair_loop``, whose re-analyses share
the memo of its first analysis.  It holds:

* ``ids`` — the interned id of each node shape;
* ``answers`` — each answer of ``satisfiable`` and ``entails``;
* ``rows`` — the rows of each wildcard-free comparison;
* ``derived`` — what other modules derive from keyed nodes or text alone,
  each under a key whose first item names what derived it: the encoder's
  decision for a comparison and its tracked atoms (``encode``), the
  ranking of a loop and each pruned guard (``gwre``), and the compiled
  property (``repair``).  No value is changed once stored;
* ``symbols`` — the encoder's variables of each term or constraint;
* ``counts`` — the counters that a repair's report shows as ``timing``:
  a repair's work, and under ``row_limit`` the Fourier-Motzkin runs cut
  short by ``_ROW_LIMIT``.

The module keeps no state that changes after import.  A node's tag names
the memo that keyed it by the memo's ``token``, so a constant such as
``TRUE`` keeps no finished memo alive, and a node keyed by another memo is
keyed again.  Analyses with memos of their own may run on several threads
at once: a node both key only has its tag overwritten back and forth, and
a tag is read as one tuple, so no memo reads another's id.  One memo must
not serve two threads at once.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, KeysView


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """Base class for integer terms."""

    __slots__ = ()

    def __str__(self) -> str:  # of a sum, difference or negation
        return _term_text(self)


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Term):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Wildcard(Term):
    """A nondeterministically chosen integer."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Sub(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg(Term):
    operand: Term


def _term_text(t: Term) -> str:
    """The text of ``t``, a sum or difference bracketed right of ``-``.  An
    explicit stack, so a long expression does not recurse."""
    out: list[str] = []
    stack: list = [t]  # a term to print, or text to write
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Add:
            stack += (node.right, "+", node.left)
        elif cls is Sub or cls is Neg:
            right = node.right if cls is Sub else node.operand
            if type(right) is Add or type(right) is Sub:
                stack += (")", right, "-(")
            else:
                stack += (right, "-")
            if cls is Sub:
                stack.append(node.left)
        elif cls is str:
            out.append(node)
        else:
            out.append(str(node))
    return "".join(out)


def subst_term(t: Term, env: dict[str, Term], fresh: Callable[[], Term] | None = None) -> Term:
    """Simultaneously substitute variables in ``t`` by ``env``; with
    ``fresh``, each wildcard occurrence, left to right, becomes ``fresh()``.
    An explicit stack, so a long expression does not recurse."""
    cls = type(t)
    if cls is Var:
        return env.get(t.name, t)
    if cls is Const:
        return t
    done: list[Term] = []
    stack: list = [t]  # a node to substitute, or the class of one to rebuild
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Var:
            done.append(env.get(node.name, node))
        elif cls is Const:
            done.append(node)
        elif cls is Add or cls is Sub:
            stack += (cls, node.right, node.left)
        elif cls is type:
            if node is Neg:
                done[-1] = Neg(done[-1])
            else:
                right = done.pop()
                done[-1] = node(done[-1], right)
        elif cls is Neg:
            stack += (cls, node.operand)
        elif cls is Wildcard:
            done.append(node if fresh is None else fresh())
        else:
            raise TypeError(f"not a term: {node!r}")
    return done[0]


def eval_term(t: Term, store: dict[str, int], draw: Callable[[], int] | None = None) -> int:
    """Evaluate a term under a concrete store.

    Without ``draw`` a wildcard raises ValueError and an unset variable
    KeyError.  With ``draw`` a wildcard evaluates to ``draw()`` and a
    variable to ``store.setdefault(name, draw())``, so every variable read
    consumes one draw, set or not; seeded runs replay on that order.  An
    explicit stack, so a long expression does not recurse.
    """
    values: list[int] = []
    stack: list = [t]  # a term to evaluate, or the class of one to combine
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Var:
            values.append(store[node.name] if draw is None else store.setdefault(node.name, draw()))
        elif cls is Const:
            values.append(node.value)
        elif cls is Add or cls is Sub:
            stack += (cls, node.right, node.left)  # the left side is read first
        elif cls is Neg:
            stack += (cls, node.operand)
        elif cls is type:
            if node is Neg:
                values[-1] = -values[-1]
            else:
                right = values.pop()
                values[-1] = values[-1] + right if node is Add else values[-1] - right
        elif cls is Wildcard and draw is not None:
            values.append(draw())
        else:
            raise ValueError(f"cannot evaluate {node!r}")
    return values[0]


Linear = tuple[dict[str, int], int]  # (coefficient of each variable, constant)


def lin_combine(a: Linear, b: Linear, k: int) -> Linear:
    """The linear form ``a + k·b``, with zero coefficients dropped."""
    coeffs = dict(a[0])
    for v, c in b[0].items():
        coeffs[v] = coeffs.get(v, 0) + k * c
        if coeffs[v] == 0:
            del coeffs[v]
    return coeffs, a[1] + k * b[1]


def linearize(t: Term, fresh: Callable[[], str] | None = None) -> Linear | None:
    """Express ``t`` as a linear combination (coeffs, constant).

    With ``fresh``, each wildcard occurrence, left to right, becomes the
    variable ``fresh()``; without it a wildcard makes the result None.
    """
    coeffs: dict[str, int] = {}
    const = 0
    stack = [(t, 1)]
    while stack:
        t, sign = stack.pop()
        if isinstance(t, Var):
            coeffs[t.name] = coeffs.get(t.name, 0) + sign
        elif isinstance(t, Wildcard):
            if fresh is None:
                return None
            stack.append((Var(fresh()), sign))
        elif isinstance(t, Const):
            const += sign * t.value
        elif isinstance(t, (Add, Sub)):
            stack.append((t.right, sign if isinstance(t, Add) else -sign))
            stack.append((t.left, sign))
        elif isinstance(t, Neg):
            stack.append((t.operand, -sign))
        else:
            raise TypeError(f"not a term: {t!r}")
    return {v: c for v, c in coeffs.items() if c}, const


def term_of_linear(coeffs: dict[str, int], const: int) -> Term:
    """Rebuild a term from a linear form, in sorted-variable order."""
    t: Term | None = None

    def combine(acc: Term | None, piece: Term, negative: bool) -> Term:
        if acc is None:
            return Neg(piece) if negative else piece
        return Sub(acc, piece) if negative else Add(acc, piece)

    for v in sorted(coeffs):
        c = coeffs[v]
        piece: Term = Var(v)
        for _ in range(abs(c) - 1):
            piece = Add(piece, Var(v))
        t = combine(t, piece, c < 0)
    if const != 0 or t is None:
        t = combine(t, Const(abs(const)), const < 0)
    return t


# ---------------------------------------------------------------------------
# Pure constraints
# ---------------------------------------------------------------------------


GT, LT, GTEQ, LTEQ, EQ, NEQ = "Gt", "Lt", "GtEq", "LtEq", "Eq", "Neq"

_OP_SYMBOL = {GT: ">", LT: "<", GTEQ: ">=", LTEQ: "<=", EQ: "=", NEQ: "!="}
_OP_COMPLEMENT = {GT: LTEQ, LT: GTEQ, GTEQ: LT, LTEQ: GT, EQ: NEQ, NEQ: EQ}
_OP_EVAL = {
    GT: lambda a, b: a > b,
    LT: lambda a, b: a < b,
    GTEQ: lambda a, b: a >= b,
    LTEQ: lambda a, b: a <= b,
    EQ: lambda a, b: a == b,
    NEQ: lambda a, b: a != b,
}


class Pure:
    """Base class for pure constraints."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueP(Pure):
    def __str__(self) -> str:
        return "T"


@dataclass(frozen=True)
class FalseP(Pure):
    def __str__(self) -> str:
        return "F"


@dataclass(frozen=True)
class Bop(Pure):
    op: str  # one of Gt/Lt/GtEq/LtEq/Eq/Neq
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"{self.left}{_OP_SYMBOL[self.op]}{self.right}"


@dataclass(frozen=True)
class And(Pure):
    left: Pure
    right: Pure

    def __str__(self) -> str:
        return f"{self.left} /\\ {self.right}"


@dataclass(frozen=True)
class Or(Pure):
    left: Pure
    right: Pure

    def __str__(self) -> str:
        return f"({self.left} \\/ {self.right})"


TRUE = TrueP()
FALSE = FalseP()


@dataclass(frozen=True)
class Rel:
    """An uninterpreted relation such as Exit() or a call event.

    Relations are event payloads and property atoms only; no constraint
    contains one.
    """

    name: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


def mk_and(a: Pure, b: Pure) -> Pure:
    if isinstance(a, FalseP) or isinstance(b, FalseP):
        return FALSE
    if isinstance(a, TrueP):
        return b
    if isinstance(b, TrueP):
        return a
    return And(a, b)


def mk_or(a: Pure, b: Pure) -> Pure:
    if isinstance(a, TrueP) or isinstance(b, TrueP):
        return TRUE
    if isinstance(a, FalseP):
        return b
    if isinstance(b, FalseP):
        return a
    return Or(a, b)


def conjuncts(pi: Pure) -> list[Pure]:
    """Flatten nested conjunctions into a list, left to right (T
    disappears); an explicit stack, so a long chain does not recurse."""
    out: list[Pure] = []
    stack = [pi]
    while stack:
        pi = stack.pop()
        if isinstance(pi, And):
            stack += (pi.right, pi.left)
        elif not isinstance(pi, TrueP):
            out.append(pi)
    return out


_LEAVES = (Const, Wildcard, TrueP, FalseP)
_PAIRS = (Add, Sub, Bop, And, Or)


def names(*nodes: Term | Pure) -> KeysView[str]:
    """The variable names in terms and constraints as a set-like view that
    iterates them left to right, in order of first occurrence.  One
    explicit-stack walk visits a shared node once, so a DAG costs its size,
    not its size as a tree."""
    found: dict[str, None] = {}
    seen: set[int] = set()  # ids of the composite nodes walked
    stack = list(reversed(nodes))
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Var:
            found[node.name] = None
        elif cls in _PAIRS:
            if id(node) not in seen:
                seen.add(id(node))
                stack += (node.right, node.left)
        elif cls is Neg:
            if id(node) not in seen:
                seen.add(id(node))
                stack.append(node.operand)
        elif cls not in _LEAVES:
            raise TypeError(f"not a term or pure constraint: {node!r}")
    return found.keys()


def subst_pure(pi: Pure, env: dict[str, Term]) -> Pure:
    """``subst_term`` in every comparison of ``pi``, on an explicit stack."""
    if type(pi) is Bop:
        return Bop(pi.op, subst_term(pi.left, env), subst_term(pi.right, env))
    done: list[Pure] = []
    stack: list = [pi]  # a node to substitute, or mk_and/mk_or to rebuild one
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Bop:
            done.append(Bop(node.op, subst_term(node.left, env), subst_term(node.right, env)))
        elif cls is And or cls is Or:
            stack += (mk_and if cls is And else mk_or, node.right, node.left)
        elif cls is TrueP or cls is FalseP:
            done.append(node)
        elif node is mk_and or node is mk_or:
            right = done.pop()
            done[-1] = node(done[-1], right)
        else:
            raise TypeError(f"not a pure constraint: {node!r}")
    return done[0]


def eval_pure(pi: Pure, store: dict[str, int], draw: Callable[[], int] | None = None) -> bool:
    """Evaluate a constraint concretely (``draw`` as in ``eval_term``)."""
    if isinstance(pi, TrueP):
        return True
    if isinstance(pi, FalseP):
        return False
    if isinstance(pi, Bop):
        return _OP_EVAL[pi.op](eval_term(pi.left, store, draw), eval_term(pi.right, store, draw))
    if isinstance(pi, And):
        return eval_pure(pi.left, store, draw) and eval_pure(pi.right, store, draw)
    if isinstance(pi, Or):
        return eval_pure(pi.left, store, draw) or eval_pure(pi.right, store, draw)
    raise ValueError(f"cannot evaluate {pi!r} concretely")


def negate(pi: Pure) -> Pure:
    """Complement a constraint.

    Comparison operators flip to their integer complements; And/Or obey
    De Morgan.
    """
    if isinstance(pi, TrueP):
        return FALSE
    if isinstance(pi, FalseP):
        return TRUE
    if isinstance(pi, Bop):
        return Bop(_OP_COMPLEMENT[pi.op], pi.left, pi.right)
    if isinstance(pi, And):
        return mk_or(negate(pi.left), negate(pi.right))
    if isinstance(pi, Or):
        return mk_and(negate(pi.left), negate(pi.right))
    raise TypeError(f"not a pure constraint: {pi!r}")


def simplify(pi: Pure) -> Pure:
    """Constant-fold a constraint (variable-free comparisons become T/F)."""
    if isinstance(pi, Bop):
        lin_l = linearize(pi.left)
        lin_r = linearize(pi.right)
        if lin_l is not None and lin_r is not None and not lin_combine(lin_l, lin_r, -1)[0]:
            return TRUE if _OP_EVAL[pi.op](lin_l[1], lin_r[1]) else FALSE
        return pi
    if isinstance(pi, And):
        return mk_and(simplify(pi.left), simplify(pi.right))
    if isinstance(pi, Or):
        return mk_or(simplify(pi.left), simplify(pi.right))
    return pi


# ---------------------------------------------------------------------------
# Entailment via Fourier-Motzkin
# ---------------------------------------------------------------------------

# A "row" is a linear form read as  coeffs·x + const >= 0.

_ROW_LIMIT = 5000

# (sign, tightening) of each row that  left op right  becomes
_ROW_SHAPES = {GTEQ: [(1, 0)], LTEQ: [(-1, 0)], GT: [(1, 1)], LT: [(-1, 1)], EQ: [(1, 0), (-1, 0)]}


def _rows_of_bop(atom: Bop, named: int) -> tuple[list[Linear], int]:
    """Comparison -> integer-tightened rows, and the wildcards named so far.

    ``named`` wildcards of the disjunct precede ``atom``; the k-th becomes
    the unconstrained variable ``__wk``.  The names matter: Fourier-Motzkin
    eliminates variables in sorted-name order.
    """
    names = itertools.count(named + 1)
    coeffs, const = linearize(Sub(atom.left, atom.right), lambda: f"__w{next(names)}")
    rows = [
        ({v: sign * c for v, c in coeffs.items()}, sign * const - tighten)
        for sign, tighten in _ROW_SHAPES[atom.op]
    ]
    return rows, next(names) - 1


def _fm_unsat(rows: list[Linear], memo: Memo) -> bool:
    """Fourier-Motzkin: True iff the row system has no rational solution.
    Past ``_ROW_LIMIT`` rows it gives up, answers False and counts that in
    ``memo.counts["row_limit"]``."""
    while True:
        pending = [r for r in rows if r[0]]
        if not pending:
            return any(const < 0 for _, const in rows)
        if any(not coeffs and const < 0 for coeffs, const in rows):
            return True
        var = sorted(pending[0][0])[0]
        pos = [r for r in rows if r[0].get(var, 0) > 0]
        neg = [r for r in rows if r[0].get(var, 0) < 0]
        new_rows = [r for r in rows if var not in r[0]]
        for pc, pk in pos:
            for nc, nk in neg:
                # b·p + a·n cancels var (its coefficient comes out 0)
                a, b = pc[var], -nc[var]
                coeffs = {}
                for v in set(pc) | set(nc):
                    c = b * pc.get(v, 0) + a * nc.get(v, 0)
                    if c:
                        coeffs[v] = c
                new_rows.append((coeffs, b * pk + a * nk))
                if len(new_rows) > _ROW_LIMIT:
                    memo.counts["row_limit"] += 1
                    return False  # give up conservatively: treat as satisfiable
        rows = new_rows


def _unsat(pi: Pure, memo: Memo) -> bool:
    """True iff no disjunct of ``pi``'s DNF has satisfiable rows; the one
    decision behind ``satisfiable`` and ``entails``, so that neither module
    function calls the other.

    A depth-first case split visits the disjuncts left to right (``!=``
    reads as ``<`` then ``>``), drops a branch whose rows are already
    unsatisfiable where it splits, and stops at the first satisfiable
    disjunct.  A stack item is (formulas left to split as nested pairs,
    rows so far, wildcards named so far).
    """
    stack: list[tuple[tuple | None, list[Linear], int]] = [((pi, None), [], 0)]
    while stack:
        todo, rows, named = stack.pop()
        while todo is not None:
            head, todo = todo
            if isinstance(head, Or):
                left, right = head.left, head.right
            elif isinstance(head, Bop) and head.op == NEQ:
                left, right = Bop(LT, head.left, head.right), Bop(GT, head.left, head.right)
            elif isinstance(head, Bop):
                new, named = _rows_of(head, named, memo)
                rows += new
                continue
            elif isinstance(head, And):
                todo = head.left, (head.right, todo)
                continue
            elif isinstance(head, TrueP):
                continue
            elif isinstance(head, FalseP):
                break
            else:
                raise TypeError(f"not a pure constraint: {head!r}")
            if rows and _fm_unsat(rows, memo):
                break
            stack.append(((right, todo), list(rows), named))
            todo = left, todo
        else:
            if not _fm_unsat(rows, memo):
                return False
    return True


class Memo:
    """The tables of the module docstring; a plain object, hashed by identity."""

    __slots__ = ("token", "ids", "answers", "rows", "derived", "symbols", "counts")

    def __init__(self):
        self.token = object()  # a keyed node's ``_nid`` is (token, id)
        self.ids: dict[tuple, int] = {}
        self.answers: dict[int | tuple[int, int], bool] = {}  # ``_unsat``, by node ids
        self.rows: dict[tuple[str, int, int], list[Linear]] = {}  # by operator and side ids
        # a key must not depend on the order a set iterates in
        self.derived: dict[tuple, object] = {}
        self.symbols: dict[int, frozenset[str]] = {}  # by node id
        self.counts: Counter = Counter()


def _rows_of(atom: Bop, named: int, memo: Memo) -> tuple[list[Linear], int]:
    """``_rows_of_bop``, read from ``memo.rows`` where both sides are keyed
    in ``memo``; an atom with a wildcard is never memoised, since its rows
    depend on ``named``."""
    token = memo.token
    left = getattr(atom.left, "_nid", None)
    right = getattr(atom.right, "_nid", None)
    if left is None or right is None or left[0] is not token or right[0] is not token:
        return _rows_of_bop(atom, named)
    key = (atom.op, left[1], right[1])
    rows = memo.rows.get(key)
    if rows is None:
        rows, after = _rows_of_bop(atom, named)
        if after != named:
            return rows, after
        memo.rows[key] = rows
    return rows, named


def _parts(node: object) -> tuple[tuple, tuple]:
    """(scalar fields, children) of a term or constraint node."""
    cls = type(node)
    if cls is Bop:
        return (node.op,), (node.left, node.right)
    if cls in (Add, Sub, And, Or):
        return (), (node.left, node.right)
    if cls is Var:
        return (node.name,), ()
    if cls is Const:
        return (node.value,), ()
    if cls is Neg:
        return (), (node.operand,)
    if cls in (Wildcard, TrueP, FalseP):
        return (), ()
    raise TypeError(f"not a term or pure constraint: {node!r}")


def node_id(root: object, memo: Memo) -> int:
    """The interned id of ``root`` in ``memo``; one explicit-stack walk keys
    the nodes not yet keyed there, each shared node once."""
    token = memo.token
    tag = getattr(root, "_nid", None)
    if tag is not None and tag[0] is token:
        return tag[1]
    ids = memo.ids
    stack = [root]
    while stack:
        node = stack[-1]
        tag = getattr(node, "_nid", None)
        if tag is not None and tag[0] is token:
            stack.pop()
            continue
        scalars, children = _parts(node)
        shape = (type(node), *scalars)
        waiting = False  # for a child to be keyed first
        for child in children:
            tag = getattr(child, "_nid", None)
            if tag is not None and tag[0] is token:
                shape += (tag[1],)
            else:
                stack.append(child)
                waiting = True
        if not waiting:
            stack.pop()
            nid = ids.setdefault(shape, len(ids))
            object.__setattr__(node, "_nid", (token, nid))
    return nid  # the root's, keyed last


def satisfiable(pi: Pure, memo: Memo) -> bool:
    """Sound-for-unsat satisfiability: False only if truly unsatisfiable."""
    key = node_id(pi, memo)
    unsat = memo.answers.get(key)
    if unsat is None:
        unsat = memo.answers[key] = _unsat(pi, memo)
    return not unsat


def entails(state: Pure, goal: Pure, memo: Memo) -> bool:
    """Sound integer entailment: True only if every model of state meets goal.

    That is, ``not satisfiable(state /\\ negate(goal))``: the conjunction is
    rationally unsatisfiable once strict bounds are tightened for integers.
    """
    key = (node_id(state, memo), node_id(goal, memo))
    unsat = memo.answers.get(key)
    if unsat is None:
        unsat = memo.answers[key] = _unsat(mk_and(state, negate(goal)), memo)
    return unsat


# ---------------------------------------------------------------------------
# Candidate ranking functions
# ---------------------------------------------------------------------------


def candidate_rfs(guard: Pure) -> list[Term]:
    """Candidate ranking functions read off a guard's comparison atoms.

    Every candidate is a linear, wildcard-free term, nonnegative whenever
    the guard holds: a row of ``_ROW_SHAPES`` (``!=`` read as ``>`` then
    ``<``) of each wildcard-free comparison among the guard's conjuncts.
    Deduplicated after linear normalization; iteration order follows the
    guard's atoms.
    """
    out: dict[Term, None] = {}
    for pi in conjuncts(guard):
        if isinstance(pi, Bop):
            for op in (GT, LT) if pi.op == NEQ else (pi.op,):
                rows, wildcards = _rows_of_bop(Bop(op, pi.left, pi.right), 0)
                if not wildcards:
                    out.update(dict.fromkeys(term_of_linear(*row) for row in rows))
    return list(out)


# ---------------------------------------------------------------------------
# Weakest-precondition delta of a ranking function across a cycle body
# ---------------------------------------------------------------------------


def _delta_of_branch(rf: Term, moves: dict[str, Term]) -> Linear | None:
    """Linear form of rf - rf' across one branch, whose parallel
    substitution is ``moves``, or None if wildcarded."""
    before = linearize(rf)
    after = linearize(subst_term(rf, moves))
    if before is None or after is None:
        return None
    return lin_combine(before, after, -1)


def _linear_cmp(op: str, coeffs: dict[str, int], const: int, bound: int) -> Pure:
    """The constraint  coeffs·x + const  op  bound,  simplified."""
    if not coeffs:
        return TRUE if _OP_EVAL[op](const, bound) else FALSE
    return Bop(op, term_of_linear(coeffs, 0), Const(bound - const))


def _implies(premise: Pure, conclusion: Pure) -> Pure:
    if isinstance(premise, TrueP):
        return conclusion
    if isinstance(premise, FalseP) or isinstance(conclusion, TrueP):
        return TRUE
    return mk_or(negate(premise), conclusion)


def wp_delta(
    rf: Term,
    branches: Iterable[tuple[Pure, dict[str, Term]]],
) -> tuple[Pure, Pure]:
    """Split the change of ``rf`` across a cycle body into two preconditions.

    ``branches`` is the list of (branch guard, parallel substitution) pairs
    of the body's disjunctive branches, both over the cycle-entry store: the
    substitution maps each variable the branch assigns to its new value.
    Returns (pi_T, pi_NT) where pi_T guarantees the value of rf drops by at
    least 1 on every enabled branch, and pi_NT guarantees it fails to drop on
    every enabled branch while at least one branch is enabled.  If an enabled
    branch's change depends on a nondeterministic value, both results are F
    — the analysis is inconclusive for this candidate.
    """
    pi_t: Pure = TRUE
    pi_nt: Pure = TRUE
    any_enabled: Pure = FALSE
    for guard, moves in branches:
        any_enabled = mk_or(any_enabled, guard)
        delta = _delta_of_branch(rf, moves)
        if delta is None:
            return FALSE, FALSE
        pi_t = mk_and(pi_t, _implies(guard, _linear_cmp(GTEQ, *delta, 1)))
        pi_nt = mk_and(pi_nt, _implies(guard, _linear_cmp(LTEQ, *delta, 0)))
    return pi_t, mk_and(pi_nt, any_enabled)
