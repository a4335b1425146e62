"""Guarded omega-regular effects: symbolic execution summaries of CFGs.

A program's behavior is abstracted as a guarded regular expression over
events (assignments / relation emissions) and guards (path conditions),
extended with an omega operator for infinite repetition.  Loops are
replaced by disjunctive summaries computed through ranking-function
analysis of the cycle body; inconclusive loops raise
``SummaryInconclusive`` so callers can report an unknown verdict.

Sequences and choices are flat.  A ``Seq`` holds at least two items, none
of them ``Eps``, ``Bot`` or ``Seq``; an ``OrRe`` holds at least two
alternatives, none of them ``Bot`` or ``OrRe``.  ``seq`` and ``or_`` build
them, splicing nested ones in and dropping units (``linear_form`` also
slices the items of a sequence), so a sequence or choice is the same node
however its parts were grouped, and recursion over an effect goes as deep
as the program nests, not as long as it runs.

A loop summary chooses among four disjuncts.  D1: the guard fails on
entry.  D2: the loop is entered in ``_term_region`` and left through the
guard, all its iterations one exit event.  D3: it is entered where the
guard and ``pi_res`` hold and repeats forever in an omega block.  D4: a
leaking branch (``break``, ``return``, an inner loop that never comes back)
runs once, after the k clean iterations that can come before it, all of
them one leak event.  D2 and D3 rest on one phase chain (``_phase_chain``):
each phase is a ranking candidate splitting the states still in the loop
into ``pi_t`` (it drops) and ``pi_nt`` (it does not), until ``pi_res``,
what the phases leave in the loop, is F (the loop always terminates) or
recurrent.
A T or nondeterministic guard needs no chain; without one, the body
repeats in an omega block.

Every region is checked against the clean branches, the body paths that
come back to the loop head.  Each rf is bounded (``rf >= 0``) where a clean
branch runs in its ``pi_t``, and ``_closed`` shows that no clean branch
leaves D2's region but through the guard, and that none leaves D3's region
or the guard.

The CFG walk knows the innermost loop around it: a body path ends in
``CONTINUE`` at the loop's join and in ``BREAK`` at the node after the loop,
which only a ``break`` reaches from inside.  So the code after a loop is
lowered and summarized once, and D1, D2 and every ``break`` share it.

An effect is a DAG, not a tree: one ``Re`` per CFG node and loop context
that a walk starts from.  ``_Builder.walk`` is memoised on them, so a branch
of a ``Join`` that several paths reach is one object on all of them, and a
loop is summarized once per branch into it, with one set of summary-guard
states, not once per path.  Every walk over an effect visits a shared node
once and keeps it shared: ``_leaves`` in order, and ``postorder`` under
``_tree_size``, ``_rewrite`` and ``automaton``.  What depends on how often
a state occurs in the tree that the DAG stands for (``shared_states``,
which ``renumber`` and the encoder read) is counted on the DAG.  Equality,
``str`` and ``_paths`` still read an effect as a tree.

``automaton`` is built once per encoding from the renumbered effect; the
encoder's walk, merge key (segment key, next state, live store), omega
heads, live sets and ``read_sets`` read it, and ``simulate`` walks it.
"""

from __future__ import annotations

import logging
import random
from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Iterator, KeysView

from . import frontend as fe
from . import pure_logic as pl

log = logging.getLogger(__name__)


class SummaryInconclusive(Exception):
    """A loop admitted no conclusive termination argument."""


class UnsupportedProgram(Exception):
    """Program shape outside the analyzable fragment (e.g. recursion)."""


# ---------------------------------------------------------------------------
# The effect language
# ---------------------------------------------------------------------------


class Re:
    __slots__ = ()


@dataclass(frozen=True)
class Bot(Re):
    def __str__(self) -> str:
        return "_|_"


@dataclass(frozen=True)
class Eps(Re):
    def __str__(self) -> str:
        return "e"


@dataclass(frozen=True)
class LoopMark(Re):
    """Internal marker: a loop body path came back to its loop head or, with
    ``brk``, left the loop through a ``break``."""

    brk: bool = False

    def __str__(self) -> str:
        return "<break>" if self.brk else "<loop>"


@dataclass(frozen=True)
class Ev(Re):
    """An event: sequential assignments, then a constraint, then relations."""

    s: int
    assigns: tuple[tuple[str, pl.Term], ...] = ()
    constraint: pl.Pure = pl.TRUE
    rels: tuple[pl.Rel, ...] = ()

    def __str__(self) -> str:
        parts = [f"{v}={t}" for v, t in self.assigns]
        if not isinstance(self.constraint, pl.TrueP):
            parts.append(str(self.constraint))
        parts.extend(str(r) for r in self.rels)
        return f"({', '.join(parts) if parts else 'T'})@{self.s}"


@dataclass(frozen=True)
class Guard(Re):
    pi: pl.Pure
    s: int

    def __str__(self) -> str:
        return f"[{self.pi}]@{self.s}"


@dataclass(frozen=True)
class Seq(Re):
    items: tuple[Re, ...]

    def __str__(self) -> str:
        return "·".join(map(_paren, self.items))


@dataclass(frozen=True)
class OrRe(Re):
    alts: tuple[Re, ...]

    def __str__(self) -> str:
        return " \\/ ".join(map(str, self.alts))


@dataclass(frozen=True)
class Omega(Re):
    body: Re

    def __post_init__(self) -> None:
        if linear_form(self.body)[1]:
            raise ValueError("omega body must not accept the empty trace")

    def __str__(self) -> str:
        return f"({self.body})^w"


BOT = Bot()
EPS = Eps()
CONTINUE = LoopMark()
BREAK = LoopMark(brk=True)


def _paren(re: Re) -> str:
    return f"({re})" if isinstance(re, OrRe) else str(re)


def seq(*items: Re) -> Re:
    """The sequence of ``items``: nested sequences are spliced in and ``Eps``
    dropped, and a ``Bot`` anywhere makes the whole ``Bot``."""
    flat: list[Re] = []
    for item in items:
        if isinstance(item, Bot):
            return BOT
        if isinstance(item, Seq):
            flat.extend(item.items)
        elif not isinstance(item, Eps):
            flat.append(item)
    if len(flat) > 1:
        return Seq(tuple(flat))
    return flat[0] if flat else EPS


def or_(*alts: Re) -> Re:
    """The choice among ``alts``: nested choices are spliced in and ``Bot``
    dropped."""
    flat: list[Re] = []
    for alt in alts:
        if isinstance(alt, OrRe):
            flat.extend(alt.alts)
        elif not isinstance(alt, Bot):
            flat.append(alt)
    if len(flat) > 1:
        return OrRe(tuple(flat))
    return flat[0] if flat else BOT


def _items(re: Re) -> list[Re]:
    """``re`` read as a sequence: its items, none for ``Eps``."""
    if isinstance(re, Seq):
        return list(re.items)
    return [] if isinstance(re, Eps) else [re]


# ---------------------------------------------------------------------------
# The linear form
# ---------------------------------------------------------------------------


def linear_form(re: Re) -> tuple[list[tuple[Re, Re]], bool]:
    """Each leading segment of ``re`` (an event, a guard or an omega block)
    paired with what remains of ``re`` after it, and whether ``re`` accepts
    the empty trace (the linear form of Antimirov, TCS 1996).

    A segment comes once, where it first occurs left to right; equal
    segments are one, and their rests are joined.  An omega block is never
    left, so it pairs with ``BOT``.  A sequence's rest is the rest of the
    item the segment starts followed by the items after it; an item fully
    consumed leaves those items as they stand."""
    if isinstance(re, (Ev, Guard)):
        return [(re, EPS)], False
    if isinstance(re, Omega):
        return [(re, BOT)], False
    if isinstance(re, (Eps, LoopMark)):
        return [], True
    if isinstance(re, Bot):
        return [], False
    segs: list[Re] = []
    rests: list[list[Re]] = []

    def add(seg: Re, rest: Re) -> None:
        for known, group in zip(segs, rests):
            if known is seg or known == seg:
                group.append(rest)
                return
        segs.append(seg)
        rests.append([rest])

    if isinstance(re, OrRe):
        nullable = False
        for alt in re.alts:
            pairs, alt_nullable = linear_form(alt)
            for seg, rest in pairs:
                add(seg, rest)
            nullable = nullable or alt_nullable
    elif isinstance(re, Seq):
        # a segment can start any item up to and including the first that
        # is not nullable; the sequence is nullable if no item is not
        for i, item in enumerate(re.items):
            pairs, nullable = linear_form(item)
            after = re.items[i + 1 :]
            for seg, head in pairs:
                if isinstance(head, Eps):
                    add(seg, Seq(after) if len(after) > 1 else after[0] if after else EPS)
                else:
                    add(seg, seq(head, *after))
            if not nullable:
                break
    else:
        raise TypeError(f"not an effect: {re!r}")
    return [(seg, or_(*group)) for seg, group in zip(segs, rests)], nullable


def _parts(re: Re) -> tuple[Re, ...]:
    """The effects directly inside ``re``."""
    if isinstance(re, Seq):
        return re.items
    if isinstance(re, OrRe):
        return re.alts
    if isinstance(re, Omega):
        return (re.body,)
    return ()


def _leaves(*roots: Re, again: list[Re] | None = None) -> Iterator[Ev | Guard]:
    """Events and guards of ``roots`` in syntactic left-to-right order,
    omega bodies included, each node walked once: a node reached again is
    skipped, since its leaves came first in a tree's order too, and added
    to ``again``."""
    seen: set[int] = set()
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if id(node) in seen:
            if again is not None:
                again.append(node)
            continue
        seen.add(id(node))
        if isinstance(node, (Ev, Guard)):
            yield node
        else:
            stack.extend(reversed(_parts(node)))


def shared_states(re: Re) -> set[int]:
    """The states that label two or more leaves of ``re`` read as a tree:
    those of two leaf nodes, and those under a node that two edges enter,
    which occurs twice in the tree."""
    again: list[Re] = []
    counts = Counter(leaf.s for leaf in _leaves(re, again=again))
    return {s for s, n in counts.items() if n > 1} | {leaf.s for leaf in _leaves(*again)}


def postorder(root: Re, seen) -> Iterator[Re]:
    """The nodes of ``root`` whose ``id`` is not a key of ``seen``, each
    after its parts, on an explicit stack.  The caller records each node in
    ``seen`` before it asks for the next, so a shared node comes once."""
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in seen:
            stack.pop()
            continue
        pending = [part for part in _parts(node) if id(part) not in seen]
        if pending:
            stack += reversed(pending)
            continue
        stack.pop()
        yield node


def _tree_size(re: Re) -> tuple[int, int]:
    """How many nodes ``re`` has, and how many leaves it has read as a
    tree; each node is walked once."""
    leaves: dict[int, int] = {}
    for node in postorder(re, leaves):
        parts = _parts(node)
        if parts:
            leaves[id(node)] = sum(leaves[id(part)] for part in parts)
        else:
            leaves[id(node)] = int(isinstance(node, (Ev, Guard)))
    return len(leaves), leaves[id(re)]


def _rewrite(re: Re, fn: Callable[[Re], Re | None]) -> Re:
    """``re`` with each node that ``fn`` maps to an effect replaced by it,
    and every other node rebuilt from the images of its parts; a shared node
    is rewritten once, and its image is shared as it was.  ``fn`` is asked of
    each node after its parts, so of the parts of a node it replaces too."""
    done: dict[int, Re] = {}
    for node in postorder(re, done):
        out = fn(node)
        if out is None:
            if isinstance(node, Seq):
                out = seq(*(done[id(item)] for item in node.items))
            elif isinstance(node, OrRe):
                out = or_(*(done[id(alt)] for alt in node.alts))
            elif isinstance(node, Omega):
                out = Omega(done[id(node.body)])
            else:
                out = node
        done[id(node)] = out
    return done[id(re)]


def states_of(re: Re) -> list[int]:
    """All state ids, in syntactic left-to-right order, deduplicated."""
    return list(dict.fromkeys(leaf.s for leaf in _leaves(re)))


def pure_of_gwre(re: Re) -> list[pl.Pure]:
    """Guard payloads and event constraints, flattened to atomic conjuncts."""
    out: list[pl.Pure] = []
    for leaf in _leaves(re):
        pi = leaf.pi if isinstance(leaf, Guard) else leaf.constraint
        for conj in pl.conjuncts(pi):
            if isinstance(conj, pl.Bop) and conj not in out:
                out.append(conj)
    return out


def _assigned_vars(re: Re) -> set[str]:
    return {v for leaf in _leaves(re) if isinstance(leaf, Ev) for v, _ in leaf.assigns}


def _map_states(re: Re, mapping: dict[int, int]) -> Re:
    """``re`` with the state of every event and guard mapped by ``mapping``."""
    return _rewrite(
        re,
        lambda node: replace(node, s=mapping.get(node.s, node.s)) if isinstance(node, (Ev, Guard)) else None,
    )


# ---------------------------------------------------------------------------
# The linear-form automaton
# ---------------------------------------------------------------------------


@dataclass
class Automaton:
    """Antimirov's partial-derivative automaton: each state a distinct
    derivative of the effect, each edge a pair of its ``linear_form``.  A
    state is a key that equal effects share: a leaf is keyed by its type,
    its state and ``==`` against the leaves keyed there; a sequence by its
    first item and the key of the others, so a suffix's key is known; any
    other effect by its parts' keys."""

    start: int  # the state of the effect itself
    # per state: each pair (segment, the segment's key, next state), in
    # linear_form's order, where an omega block, never left, goes on to its
    # body's state; and whether it may end
    pairs: dict[int, tuple[tuple[Re, int, int], ...]]
    nullable: dict[int, bool]


def automaton(phi: Re) -> Automaton:
    """The linear-form automaton of ``phi``: the states its pairs reach."""
    keys: dict[object, int] = {}  # per structure, its key
    known: dict[int, tuple[Re, int]] = {}  # per id() of a keyed node, the node, kept alive, and its key
    leaves: dict[tuple[type, int], list[Re]] = {}  # per (type, state), its unequal leaves
    tails: dict[int, int] = {}  # per key of a sequence, that of its items but the first

    def key(root: Re) -> int:
        for node in () if id(root) in known else postorder(root, known):
            cls = type(node)
            if cls is Seq:
                k = known[id(node.items[-1])][1]
                for item in reversed(node.items[:-1]):
                    cell = keys.setdefault((Seq, known[id(item)][1], k), len(keys))
                    tails[cell], k = k, cell
            elif cls is Ev or cls is Guard:
                same = leaves.setdefault((cls, node.s), [])
                i = next((i for i, leaf in enumerate(same) if leaf is node or leaf == node), len(same))
                if i == len(same):
                    same.append(node)
                k = keys.setdefault((cls, node.s, i), len(keys))
            elif cls is OrRe or cls is Omega:
                k = keys.setdefault((cls, *(known[id(part)][1] for part in _parts(node))), len(keys))
            else:  # Eps, Bot, LoopMark
                k = keys.setdefault(node, len(keys))
            known[id(node)] = (node, k)
        return known[id(root)][1]

    a = Automaton(key(phi), {}, {})
    todo = [(a.start, phi)]
    while todo:
        q, re = todo.pop()
        if q in a.pairs:
            continue
        if type(re) is Seq and isinstance(re.items[0], (Ev, Guard)):  # one pair, to re's items but the first
            rest = Seq(re.items[1:]) if len(re.items) > 2 else re.items[1]
            known.setdefault(id(rest), (rest, tails[q]))
            a.pairs[q], a.nullable[q] = ((re.items[0], known[id(re.items[0])][1], tails[q]),), False
            todo.append((tails[q], rest))
            continue
        form, a.nullable[q] = linear_form(re)
        form = [(seg, seg.body if isinstance(seg, Omega) else rest) for seg, rest in form]
        a.pairs[q] = pairs = tuple((seg, known[id(seg)][1], key(rest)) for seg, rest in form)
        todo += ((n, rest) for (_, _, n), (_, rest) in zip(pairs, form))
    return a


# ---------------------------------------------------------------------------
# State renumbering
# ---------------------------------------------------------------------------


def _paths(re: Re) -> list[list[Re]]:
    """Fully distribute disjunction: every alternative as a segment list."""
    if isinstance(re, Bot):
        return []
    if isinstance(re, (LoopMark, Ev, Guard, Omega)):
        return [[re]]
    if isinstance(re, OrRe):
        return [path for alt in re.alts for path in _paths(alt)]
    if not isinstance(re, (Seq, Eps)):
        raise TypeError(f"not an effect: {re!r}")
    out: list[list[Re]] = [[]]
    for item in _items(re):
        out = [a + b for a in out for b in _paths(item)]
    return out


def renumber(re: Re) -> tuple[Re, dict[int, int]]:
    """Assign consecutive state ids in a breadth-first, sharing-aware order.

    Chains are walked left to right; alternatives of a disjunction are
    queued breadth-first.  A state occurring on several alternatives defers
    the remainder of the current chain until the level is exhausted, so
    shared continuations are numbered after the branch-specific states.

    A chain identical, item by item, to one already processed in the same
    phase is skipped: in the first phase a shared state is never mapped,
    and in the second nothing is deferred, so a repeat would map nothing
    new.  Chains are keyed by the ids of their items, each kept alive by
    the chain stored under its key.
    """
    shared = shared_states(re)
    mapping: dict[int, int] = {}  # ids are handed out 1, 2, ... in order
    queue: deque[list[Re]] = deque([_items(re)])
    deferred: list[list[Re]] = []
    processed: dict[tuple[int, ...], list[Re]] = {}

    def process(chain: list[Re], assigning_shared: bool) -> None:
        for i, item in enumerate(chain):
            if isinstance(item, OrRe):
                # Queue all but the last alternative as one choice, then the
                # last: the id order was set on choices folded left two at a
                # time, and this split keeps every state's id.
                tail = chain[i + 1 :]
                for alt in (or_(*item.alts[:-1]), item.alts[-1]):
                    queue.append(_items(alt) + tail)
                return
            if not isinstance(item, (Ev, Guard, Omega)):
                continue
            # an omega block is entered at the head of its body
            head = [seg for seg, _ in linear_form(item.body)[0][:1]] if isinstance(item, Omega) else [item]
            if (
                not assigning_shared
                and head
                and head[0].s in shared
                and head[0].s not in mapping
            ):
                deferred.append(chain[i:])
                return
            if isinstance(item, Omega):
                queue.append(_items(item.body))
            else:
                mapping.setdefault(item.s, len(mapping) + 1)

    assigning_shared = False
    while queue or deferred:
        if not queue:
            queue.extend(deferred)
            deferred.clear()
            processed.clear()
            assigning_shared = True
        chain = queue.popleft()
        key = tuple(map(id, chain))
        if key not in processed:
            processed[key] = chain
            process(chain, assigning_shared)

    return _map_states(re, mapping), mapping


# ---------------------------------------------------------------------------
# Loop summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseInfo:
    rf: pl.Term
    pi_t: pl.Pure
    pi_nt: pl.Pure


@dataclass
class SummaryInfo:
    join: int
    guard: pl.Pure
    # termination argument, empty only under a T guard; immutable, as the
    # summaries of two analyses that share a ``pl.Memo`` may share it
    phases: tuple[PhaseInfo, ...]
    always_terminates: bool
    omega_condition: pl.Pure  # entry condition of the non-terminating disjunct


@dataclass(frozen=True)
class Origin:
    kind: str  # stmt | guard | summary-guard | exit-event | loop-event | leak-event | return | entry
    node: int | None = None
    join: int | None = None
    proc: str = ""


@dataclass
class GwreResult:
    phi: Re
    origins: dict[int, Origin]
    summaries: list[SummaryInfo]
    entry_state: int


def _disjuncts(pi: pl.Pure) -> list[pl.Pure]:
    if isinstance(pi, pl.Or):
        return _disjuncts(pi.left) + _disjuncts(pi.right)
    return [pi]


def _prune_disjuncts(pi: pl.Pure, memo: pl.Memo) -> pl.Pure:
    """Drop disjuncts subsumed by another one (e.g. two spellings of the
    same comparison), so guards stay encodable as single comparisons."""
    ds = _disjuncts(pi)
    if len(ds) == 1:
        return pi
    kept: list[pl.Pure] = []
    for i, d in enumerate(ds):
        if not any(
            i != j and pl.entails(d, other, memo) and (other in kept or j > i)
            for j, other in enumerate(ds)
        ):
            kept.append(d)
    return reduce(pl.mk_or, kept, pl.FALSE)


def prune_conjuncts(pi: pl.Pure, memo: pl.Memo, drop_refuted: bool = False) -> pl.Pure:
    """Drop conjuncts entailed by the remaining ones (guard cosmetics) and,
    with ``drop_refuted``, a conjunct's disjuncts that the remaining ones
    refute, so the encoder never reads an ``A /\\ ~A`` branch.  Remembered
    in ``memo.derived`` by ``pi``'s node id."""
    key = ("pruned", pl.node_id(pi, memo), drop_refuted)
    if key not in memo.derived:
        memo.derived[key] = _pruned(pi, drop_refuted, memo)
    return memo.derived[key]


def _pruned(pi: pl.Pure, drop_refuted: bool, memo: pl.Memo) -> pl.Pure:
    pi = pl.simplify(pi)
    if isinstance(pi, pl.FalseP):
        return pl.FALSE
    cs = [_prune_disjuncts(c, memo) for c in pl.conjuncts(pi)]
    changed = True
    while changed and len(cs) > 1:
        changed = False
        for i, c in enumerate(cs):
            rest = cs[:i] + cs[i + 1 :]
            others = reduce(pl.mk_and, rest, pl.TRUE)
            if pl.entails(others, c, memo):
                cs = rest
                changed = True
                break
            if not drop_refuted:
                continue
            ds = _disjuncts(c)
            kept = [d for d in ds if pl.satisfiable(pl.mk_and(others, d), memo)]
            if kept and len(kept) < len(ds):
                cs[i] = reduce(pl.mk_or, kept, pl.FALSE)
                changed = True
                break
    return reduce(pl.mk_and, cs, pl.TRUE)


def _loop_branch(segs: list[Re]) -> tuple[pl.Pure, dict[str, pl.Term]]:
    """A loop branch's guard over the entry store and its parallel
    substitution (the new value of each assigned variable, over the entry
    store, with every wildcard kept), up to its first omega block (nothing
    after one runs) or ``BREAK``.

    For the guard, each wildcard assigned on the way is read as one symbol,
    and the guard says that some value of it fits: a conjunct ``symbol = t``
    (coefficient +-1) puts ``t`` in its place, and otherwise each read stays
    a wildcard of its own."""
    env: dict[str, pl.Term] = {}
    guard: pl.Pure = pl.TRUE
    moves: dict[str, pl.Term] = {}
    symbols: list[str] = []

    def fresh() -> pl.Term:
        symbols.append(f"*{len(symbols)}")
        return pl.Var(symbols[-1])

    for seg in segs:
        if isinstance(seg, (Omega, LoopMark)):
            break
        if isinstance(seg, Guard):
            guard = pl.mk_and(guard, pl.subst_pure(seg.pi, env))
        elif isinstance(seg, Ev):
            for v, t in seg.assigns:
                env[v] = pl.subst_term(t, env, fresh)
                moves[v] = pl.subst_term(t, moves)
            if not isinstance(seg.constraint, pl.TrueP):
                guard = pl.mk_and(guard, pl.subst_pure(seg.constraint, env))
        else:
            raise TypeError(f"unexpected segment in loop branch: {seg!r}")
    for symbol in symbols:
        values = (_solved_for(symbol, conj) for conj in pl.conjuncts(guard))
        value = next((t for t in values if t is not None), pl.Wildcard())
        guard = pl.subst_pure(guard, {symbol: value})
    return guard, moves


def _solved_for(v: str, pi: pl.Pure) -> pl.Term | None:
    """``t`` where ``pi`` is an equation ``v = t`` up to a linear
    rearrangement, else None."""
    if not (isinstance(pi, pl.Bop) and pi.op == pl.EQ):
        return None
    lin = pl.linearize(pl.Sub(pi.left, pi.right))
    if lin is None or lin[0].get(v) not in (1, -1):
        return None
    c = lin[0][v]
    return pl.term_of_linear({w: -c * a for w, a in lin[0].items() if w != v}, -c * lin[1])


def _reads_of_ev(ev: Ev) -> KeysView[str]:
    """The variables an event reads: its right-hand sides, its constraint
    and its relation arguments (``pl.names``)."""
    return pl.names(
        *(t for _, t in ev.assigns), ev.constraint, *(a for r in ev.rels for a in r.args)
    )


def pretty_nonneg(rf: pl.Term) -> pl.Pure:
    """``rf >= 0`` rendered with variables split across the comparison."""
    lin = pl.linearize(rf)
    if lin is None:
        return pl.Bop(pl.GTEQ, rf, pl.Const(0))
    coeffs, const = lin
    pos = {v: c for v, c in coeffs.items() if c > 0}
    neg = {v: -c for v, c in coeffs.items() if c < 0}
    if pos and neg:
        if const == 0:
            return pl.Bop(pl.GTEQ, pl.term_of_linear(pos, 0), pl.term_of_linear(neg, 0))
        if const == -1:
            return pl.Bop(pl.GT, pl.term_of_linear(pos, 0), pl.term_of_linear(neg, 0))
    return pl.Bop(pl.GTEQ, pl.term_of_linear(coeffs, const), pl.Const(0))


def _term_region(phases: tuple[PhaseInfo, ...], pi_res: pl.Pure, memo: pl.Memo) -> pl.Pure:
    """Where an entered loop terminates through its guard (D2): where the
    one phase's rf drops, or wherever a chain's run leaves ``pi_res``."""
    if len(phases) == 1:
        return phases[0].pi_t
    return prune_conjuncts(pl.negate(pi_res), memo)


def _closed(pre: pl.Pure, post: pl.Pure, clean_ga, memo: pl.Memo) -> bool:
    """Whether every clean branch taken from ``pre`` ends in ``post``: each
    is the (guard, parallel substitution) pair of ``_loop_branch``."""
    return all(
        pl.entails(pl.mk_and(pre, guard), pl.subst_pure(post, moves), memo)
        for guard, moves in clean_ga
    )


_PHASE_BOUND = 4


class _Builder:
    def __init__(self, program: fe.Program, memo: pl.Memo):
        self.program = program
        self.memo = memo
        top = max(
            (nid for proc in program.procedures.values() for nid in proc.nodes),
            default=0,
        )
        self.counter = top + 1
        self.origins: dict[int, Origin] = {}
        self.summaries: list[SummaryInfo] = []
        self.remembered = 0  # loop rankings that memo.derived answered
        self.event_cache: dict[tuple[int, str], int] = {}
        self.inline_stack: list[str] = []
        self.walks: dict[tuple[str, int, tuple[int, ...]], Re] = {}  # per walk's key

    def fresh(self, origin: Origin) -> int:
        sid = self.counter
        self.counter += 1
        self.origins[sid] = origin
        return sid

    def cached_event(self, join: int, kind: str, proc: str) -> int:
        key = (join, kind)
        if key not in self.event_cache:
            self.event_cache[key] = self.fresh(Origin(kind, join=join, proc=proc))
        return self.event_cache[key]

    # -- CFG traversal ------------------------------------------------------

    def walk(self, proc: fe.Procedure, nid: int, loop: tuple[int, ...] = ()) -> Re:
        """The effect of the CFG from ``nid``: the straight-line run of
        statements and guards, then what ends it; only a ``Join`` recurses.
        ``loop`` is the innermost loop's ``(join, after)``, or ``()`` at top
        level: a path ends in ``CONTINUE`` at the join and in ``BREAK`` at
        the node after the loop, which only a ``break`` reaches from inside.
        Memoised on ``(proc.name, nid, loop)``, so a node walked from two
        paths yields one object."""
        key = (proc.name, nid, loop)
        if key in self.walks:
            return self.walks[key]
        run: list[Re] = []
        while nid not in loop:
            node = proc.nodes[nid]
            succs = proc.trans[nid]
            if isinstance(node, fe.ExitNode):
                tail = EPS
                break
            if isinstance(node, fe.Return):
                self.origins[nid] = Origin("return", node=nid, proc=proc.name)
                args = (node.x,) if node.x is not None else ()
                tail = Omega(Ev(s=nid, rels=(pl.Rel("Exit", args),)))
                break
            if isinstance(node, fe.Join):
                if nid in proc.loop_insert:
                    tail = self.summarize(proc, nid, loop)
                else:
                    tail = or_(*(self.walk(proc, s, loop) for s in succs))
                break
            if isinstance(node, fe.Assign):
                self.origins[nid] = Origin("stmt", node=nid, proc=proc.name)
                run.append(Ev(s=nid, assigns=((node.x, node.t),)))
            elif isinstance(node, fe.Call):
                run.append(self.inline_call(proc, node))
            elif isinstance(node, fe.Prune):
                self.origins[nid] = Origin("guard", node=nid, proc=proc.name)
                run.append(Guard(node.pi, nid))
            elif not isinstance(node, fe.Start):
                raise TypeError(f"unknown CFG node: {node!r}")
            nid = succs[0]
        else:
            tail = BREAK if nid == loop[1] else CONTINUE
        self.walks[key] = seq(*run, tail)
        return self.walks[key]

    # -- interprocedural inlining -------------------------------------------

    def inline_call(self, proc: fe.Procedure, node: fe.Call) -> Re:
        self.origins[node.s] = Origin("stmt", node=node.s, proc=proc.name)
        callee = self.program.procedures.get(node.p)
        if callee is None:
            havoc = self.fresh(Origin("stmt", node=node.s, proc=proc.name))
            return seq(
                Ev(s=node.s, rels=(pl.Rel(node.p, node.args),)),
                Ev(s=havoc, assigns=((node.r, pl.Wildcard()),)),
            )
        if node.p in self.inline_stack or node.p == proc.name:
            raise UnsupportedProgram(f"recursive call to {node.p!r} is not supported")
        self.inline_stack.append(node.p)
        try:
            body = self.walk(callee, callee.entry)
        finally:
            self.inline_stack.pop()
        # Freshen the callee's local names and states per call site, and make
        # each Exit block an assignment of the returned value to the result.
        rename = {
            v: f"{v}__{node.s}"
            for v in (_assigned_vars(body) | set(callee.params))
        }
        env = {v: pl.Var(n) for v, n in rename.items()}
        remap = {
            s: self.fresh(Origin("stmt", node=node.s, proc=proc.name))
            for s in states_of(body)
        }

        def freshen(part: Re) -> Re | None:
            if isinstance(part, Guard):
                return Guard(pl.subst_pure(part.pi, env), remap[part.s])
            if isinstance(part, Ev):
                return Ev(
                    s=remap[part.s],
                    assigns=tuple((rename.get(v, v), pl.subst_term(t, env)) for v, t in part.assigns),
                    constraint=pl.subst_pure(part.constraint, env),
                    rels=tuple(pl.Rel(r.name, tuple(pl.subst_term(a, env) for a in r.args)) for r in part.rels),
                )
            # The walk goes inside omega blocks, as freshening must, and so
            # replaces every Exit block.  That is exact: an Exit block never
            # sits inside another omega block, since the encoder rejects
            # nested omega blocks and a summary puts none in a clean branch.
            exit_ev = part.body if isinstance(part, Omega) else None
            if isinstance(exit_ev, Ev) and exit_ev.rels and exit_ev.rels[0].name == "Exit":
                args = exit_ev.rels[0].args
                value = pl.subst_term(args[0], env) if args else pl.Wildcard()
                return Ev(s=remap[exit_ev.s], assigns=((node.r, value),))
            return None

        body = _rewrite(body, freshen)
        prefix: list[Re] = []
        for formal, actual in zip(callee.params, node.args):
            sid = self.fresh(Origin("stmt", node=node.s, proc=proc.name))
            prefix.append(Ev(s=sid, assigns=((rename[formal], actual),)))
        inlined = seq(*prefix, body)
        return self._peephole_chain(inlined)

    def _peephole_chain(self, re: Re) -> Re:
        """Simplify a straight-line inlined chain of plain assignments."""
        items = _items(re)
        if not all(isinstance(seg, Ev) and not seg.rels and isinstance(seg.constraint, pl.TrueP) and len(seg.assigns) == 1 for seg in items):
            return re
        # Fuse a trailing copy r := u by renaming u to r throughout.
        if items:
            last = items[-1]
            (r, t) = last.assigns[0]
            if isinstance(t, pl.Var) and t.name != r:
                u = t.name
                env = {u: pl.Var(r)}
                items = [
                    replace(
                        ev,
                        assigns=tuple((r if v == u else v, pl.subst_term(rhs, env)) for v, rhs in ev.assigns),
                    )
                    for ev in items
                ]
        # Drop identity copies and dead leading writes.
        items = [ev for ev in items if ev.assigns[0][1] != pl.Var(ev.assigns[0][0])]
        out: list[Ev] = []
        for i, ev in enumerate(items):
            v = ev.assigns[0][0]
            dead = False
            for later in items[i + 1 :]:
                if v in pl.names(later.assigns[0][1]):
                    break
                if later.assigns[0][0] == v:
                    dead = True
                    break
            if not dead:
                out.append(ev)
        return seq(*out)

    # -- loop summarization ---------------------------------------------------

    def summarize(self, proc: fe.Procedure, join: int, loop: tuple[int, ...]) -> Re:
        # the lowering links a loop's Join to its body's Prune, then its exit's
        p_true, p_false = proc.trans[join]
        nondet = proc.nodes[p_true].nondet
        pi_g = pl.TRUE if nondet else proc.nodes[p_true].pi
        after = proc.trans[p_false][0]
        phi_rest = self.walk(proc, after, loop)
        phi_cycle = self.walk(proc, proc.trans[p_true][0], (join, after))

        # Hoist per-iteration havoc events of loop-constant variables out of
        # the cycle: they behave as symbols fixed for the whole loop.
        hoisted, phi_cycle = self._hoist(phi_cycle, pi_g)

        branches = _paths(phi_cycle)
        clean = [b[:-1] for b in branches if b and b[-1] == CONTINUE]
        leaks = [b for b in branches if b and b[-1] != CONTINUE]

        # an inlined callee may run forever, so a body path may never come back
        if any(isinstance(seg, Omega) for b in clean for seg in b):
            raise SummaryInconclusive(f"a branch of the loop at node {join} may never return")
        # a branch whose own path refutes its guard never runs; each one kept
        # would double the case split of every entailment over the branches
        clean_ga = [ga for ga in map(_loop_branch, clean) if pl.satisfiable(ga[0], self.memo)]
        enabled = reduce(pl.mk_or, (guard for guard, _ in clean_ga), pl.FALSE)
        assigned = list(dict.fromkeys(v for _, moves in clean_ga for v in moves))

        disjuncts: list[Re] = []

        def guard_seg(pi: pl.Pure) -> Guard:
            return Guard(pi, self.fresh(Origin("summary-guard", join=join, proc=proc.name)))

        # D1: the loop guard fails on entry.
        not_g = pl.TRUE if nondet else pl.negate(pi_g)
        if not isinstance(not_g, pl.FalseP):
            disjuncts.append(seq(guard_seg(not_g), phi_rest))

        chosen = None if nondet else self.ranking(pi_g, clean_ga, enabled, leaks)
        guard_is_true = isinstance(pi_g, pl.TrueP)

        rf = steps = None
        if chosen is not None:
            phases, pi_res, term = chosen
            rf = phases[0].rf
            always_terminates = isinstance(pi_res, pl.FalseP)
            omega_condition = pl.FALSE
            steps = _exact_steps(pi_g, term, clean_ga, phases, assigned, self.memo)
            # D2: the loop is entered and terminates through the guard, no
            # leak firing on the way when every variable moves by a fixed
            # step; without one, D2 may hold states where a leak fires.
            if not guard_is_true:
                region = pl.mk_and(term, _no_leak(enabled, leaks, rf, steps))
                d2_guard = prune_conjuncts(pl.mk_and(pi_g, region), self.memo)
                if not isinstance(d2_guard, pl.FalseP) and pl.satisfiable(d2_guard, self.memo):
                    exit_ev = self._exit_event(join, proc, pi_g, assigned, rf, steps)
                    disjuncts.append(seq(guard_seg(d2_guard), exit_ev, phi_rest))
            # D3: the loop is entered and repeats forever.
            if not always_terminates:
                omega_condition = prune_conjuncts(pl.mk_and(pi_g, pi_res), self.memo, drop_refuted=True)
                w = self.cached_event(join, "loop-event", proc.name)
                body = Ev(s=w, constraint=pretty_nonneg(rf))
                disjuncts.append(seq(guard_seg(omega_condition), Omega(body)))
        else:
            if not guard_is_true:  # a nondeterministic guard is T too
                raise SummaryInconclusive(
                    f"no conclusive termination argument for the loop at node {join}"
                )
            # Fallback for always-true guards: the clean body may repeat
            # forever; leaks below cover every way out.
            phases, always_terminates, omega_condition = (), False, pi_g
            bodies = [seq(*b) for b in clean]
            bodies = [b for b in bodies if not isinstance(b, (Eps, Bot))]
            if bodies:
                disjuncts.append(Omega(or_(*bodies)))
            else:
                w = self.cached_event(join, "loop-event", proc.name)
                disjuncts.append(Omega(Ev(s=w)))

        # D4: leaking branches (break / return / inner non-termination), each
        # after the clean iterations that can come before it.
        before = self._leak_event(join, proc, pi_g, assigned, rf, steps) if leaks else EPS
        for leak in leaks:
            content = seq(before, *leak[:-1], phi_rest) if leak[-1] == BREAK else seq(before, *leak)
            if not guard_is_true:
                content = seq(guard_seg(pi_g), content)
            disjuncts.append(content)

        self.summaries.append(SummaryInfo(join, pi_g, phases, always_terminates, omega_condition))
        if not disjuncts:
            # every entry skips the loop, leaves it or stays in it, so a
            # summary without behaviour is a wrong termination argument
            raise SummaryInconclusive(
                f"the summary of the loop at node {join} admits no behaviour"
            )
        return seq(*hoisted, or_(*disjuncts))

    def _hoist(self, phi_cycle: Re, pi_g: pl.Pure) -> tuple[list[Re], Re]:
        """Pull leading one-shot havoc events of loop-constant vars out; a
        var that the loop guard ``pi_g`` reads is not loop-constant."""
        # The hoistable window is the common top-level prefix before any Or.
        items = _items(phi_cycle)
        k = 0
        while k < len(items) and isinstance(items[k], (Ev, Guard)):
            k += 1
        chain_head = items[:k]
        remainder = seq(*items[k:])
        assigned_later = _assigned_vars(remainder)
        hoisted: list[Re] = []
        kept: list[Re] = []
        read_so_far = set(pl.names(pi_g))
        for i, seg in enumerate(chain_head):
            hoistable = (
                isinstance(seg, Ev)
                and len(seg.assigns) == 1
                and isinstance(seg.assigns[0][1], pl.Wildcard)
                and isinstance(seg.constraint, pl.TrueP)
                and not seg.rels
                and seg.assigns[0][0] not in read_so_far
                and seg.assigns[0][0] not in assigned_later
                and not any(
                    isinstance(o, Ev) and seg.assigns[0][0] in {v for v, _ in o.assigns}
                    for j, o in enumerate(chain_head)
                    if j != i
                )
            )
            if hoistable:
                hoisted.append(seg)
            else:
                kept.append(seg)
            if isinstance(seg, Ev):
                read_so_far.update(_reads_of_ev(seg))
            elif isinstance(seg, Guard):
                read_so_far.update(pl.names(seg.pi))
        if not hoisted:
            return [], phi_cycle
        return hoisted, seq(*kept, remainder)

    def ranking(self, pi_g, clean_ga, enabled, leaks):
        """``_find_ranking``, remembered in ``memo.derived`` by the node ids
        of all it reads: the guard, each clean branch's guard and moves (by
        variable name) and each leak's ``_loop_branch`` guard.  ``enabled``
        is the disjunction of the clean guards."""
        leak_guards = [guard for guard, _ in map(_loop_branch, leaks)]
        memo, nid = self.memo, pl.node_id
        branches = tuple(
            (nid(g, memo), *((v, nid(moves[v], memo)) for v in sorted(moves))) for g, moves in clean_ga
        )
        key = ("ranking", nid(pi_g, memo), branches, tuple(nid(g, memo) for g in leak_guards))
        if key in memo.derived:
            self.remembered += 1
        else:
            memo.derived[key] = self._find_ranking(pi_g, clean_ga, enabled, leak_guards)
        return memo.derived[key]

    def _find_ranking(self, pi_g, clean_ga, enabled, leak_guards):
        """The phase chain, ``pi_res`` and D2 region of the first candidate
        whose chain is conclusive and whose first phase can run, else of the
        first conclusive one.  A chain is conclusive if no clean branch
        leaves its D2 region but through the guard."""
        candidates = pl.candidate_rfs(pi_g)
        for guard, _ in clean_ga:
            candidates += pl.candidate_rfs(guard)
        for guard in leak_guards:
            for conj in pl.conjuncts(guard):
                if isinstance(conj, pl.Bop):
                    candidates += pl.candidate_rfs(pl.negate(conj))

        fallback = None
        for rf in dict.fromkeys(candidates):
            chain = self._phase_chain([rf], pi_g, clean_ga, enabled)
            if chain is None:
                continue
            phases, pi_res = chain
            term = _term_region(phases, pi_res, self.memo)
            if not _closed(pl.mk_and(pi_g, term), pl.mk_or(pl.negate(pi_g), term), clean_ga, self.memo):
                continue
            chain = phases, pi_res, term
            if pl.satisfiable(pl.mk_and(pi_g, phases[0].pi_t), self.memo):
                return chain
            if fallback is None:
                fallback = chain
        return fallback

    def _phase_chain(self, cands, pi_g, clean_ga, enabled):
        """A multiphase termination argument: each round adds the first
        candidate that splits the guarded ``pi_res`` into ``pi_t`` and
        ``pi_nt`` (a later phase's ``pi_t`` reachable, and ``rf >= 0``
        wherever a clean branch is ``enabled`` in ``pi_t``) and narrows
        ``pi_res`` by ``pi_nt``, whose candidates the next round tries.  Returns
        (phases, F) once no run stays, (phases, pi_res) once the guarded
        ``pi_res`` is recurrent (no clean branch leaves it), else None."""
        phases: list[PhaseInfo] = []
        pi_res: pl.Pure = pl.TRUE
        for _ in range(_PHASE_BOUND):
            region = pl.mk_and(pi_g, pi_res)
            for rf in cands:
                pi_t, pi_nt = pl.wp_delta(rf, clean_ga)
                if isinstance(pi_t, pl.FalseP) and isinstance(pi_nt, pl.FalseP):
                    continue
                if not pl.entails(region, pl.mk_or(pi_t, pi_nt), self.memo):
                    continue
                if phases and not pl.satisfiable(pl.mk_and(region, pi_t), self.memo):
                    continue
                bounded = pl.Bop(pl.GTEQ, rf, pl.Const(0))
                if not pl.entails(pl.mk_and(pl.mk_and(region, pi_t), enabled), bounded, self.memo):
                    continue
                break
            else:
                return None
            phases.append(PhaseInfo(rf, pi_t, pi_nt))
            pi_res = pl.mk_and(pi_res, pi_nt)
            if not pl.satisfiable(pl.mk_and(pi_g, pi_res), self.memo):
                return tuple(phases), pl.FALSE
            region = pl.mk_and(pi_g, pi_res)
            if _closed(region, region, clean_ga, self.memo):
                return tuple(phases), prune_conjuncts(pi_res, self.memo)
            cands = pl.candidate_rfs(pi_nt)
        return None

    def _exit_event(self, join, proc, pi_g, assigned, rf, steps) -> Ev:
        """The state change of running the loop to guard-exit: exact after
        ``rf + 1`` iterations when every variable moves by a fixed step."""
        sid = self.cached_event(join, "exit-event", proc.name)
        if steps:
            assigns = _order_assignments(list(_after(rf, steps, 1).items()))
        else:
            assigns = [(v, pl.Wildcard()) for v in assigned]
        return Ev(s=sid, assigns=tuple(assigns), constraint=pl.negate(pi_g))

    def _leak_event(self, join, proc, pi_g, assigned, rf, steps) -> Ev:
        """The state change of the clean iterations before a leak, after
        which the guard holds: ``k`` of them for a fresh ``k >= 0`` when
        every variable moves by a fixed step, else a havoc of the
        clean-assigned variables.  Clean iteration ``k - 1`` runs where
        ``rf >= 0``, so ``k >= 1`` gives ``k <= rf + 1``; ``k = 0`` (a leak on
        the first iteration) has no bound, and a guard that gives the bound
        makes it redundant."""
        sid = self.cached_event(join, "leak-event", proc.name)
        if not steps:
            havoc = tuple((v, pl.Wildcard()) for v in assigned)
            return Ev(s=sid, assigns=havoc, constraint=pi_g)
        k = pl.Var(f"k__{join}")
        moves = _after(k, steps, 0).items()
        in_range = pl.Bop(pl.GTEQ, k, pl.Const(0))
        bound = pretty_nonneg(pl.Add(rf, pl.Const(1)))
        if not pl.entails(pi_g, bound, self.memo):
            in_range = pl.mk_and(in_range, pl.mk_or(pl.Bop(pl.EQ, k, pl.Const(0)), bound))
        return Ev(s=sid, assigns=((k.name, pl.Wildcard()), *moves), constraint=pl.mk_and(in_range, pi_g))


def _exact_steps(pi_g, term, clean_ga, phases, assigned, memo: pl.Memo) -> dict[str, int] | None:
    """Each ``assigned`` variable's step per iteration, when the one phase's
    rf steps down by one on every branch, every branch moves every assigned
    variable ``v`` to ``v + c_v`` with the same ``c_v``, and the guard holds
    from ``term`` up to iteration ``rf``, so a run exits after exactly
    ``rf + 1`` iterations; else None."""
    if len(phases) != 1:
        return None
    rf = phases[0].rf
    steps: dict[str, int] = {}
    for _, moves in clean_ga:
        delta = pl._delta_of_branch(rf, moves)
        if delta is None or delta[0] or delta[1] != 1:
            return None
        for v in assigned:
            lin = pl.linearize(moves.get(v, pl.Var(v)))
            if lin is None or lin[0] != {v: 1} or steps.setdefault(v, lin[1]) != lin[1]:
                return None
    last = _after(rf, steps, 0)
    if not pl.entails(pl.mk_and(pi_g, term), _throughout(pi_g, last), memo):
        return None
    return steps


def _after(rf: pl.Term, steps: dict[str, int], k: int) -> dict[str, pl.Term]:
    """The store after ``rf + k`` iterations: ``v + c_v * (rf + k)``."""
    rf_lin = pl.linearize(rf)
    return {
        v: pl.term_of_linear(*pl.lin_combine(({v: 1}, c * k), rf_lin, c))
        for v, c in steps.items()
    }


def _throughout(pi: pl.Pure, last: dict[str, pl.Term]) -> pl.Pure:
    """A condition under which ``pi`` holds on every store from the entry to
    ``last`` when each variable moves linearly between them: a comparison
    holds at both ends, with ``!=`` on the same side at both."""
    if isinstance(pi, (pl.And, pl.Or)):
        join = pl.mk_and if isinstance(pi, pl.And) else pl.mk_or
        return join(_throughout(pi.left, last), _throughout(pi.right, last))
    if not isinstance(pi, pl.Bop):
        return pi
    if pi.op != pl.NEQ:
        return pl.mk_and(pi, pl.subst_pure(pi, last))
    sides = (pl.Bop(op, pi.left, pi.right) for op in (pl.LT, pl.GT))
    return pl.mk_or(*(pl.mk_and(side, pl.subst_pure(side, last)) for side in sides))


def _no_leak(enabled: pl.Pure, leaks, rf: pl.Term, steps: dict[str, int] | None) -> pl.Pure:
    """Where a run moving by ``steps`` can take a clean branch on every
    iteration ``i = 0 .. rf`` (one clean guard ``_throughout``), as a run
    that no leak ends must; in a body without ``*``, where no leak's guard
    holds on the way.  T without leaks or without exact steps (a branch
    guard that reads a wildcard has none: the wildcard was assigned)."""
    if not leaks or not steps:
        return pl.TRUE
    return _throughout(enabled, _after(rf, steps, 0))


def _order_assignments(assigns: list[tuple[str, pl.Term]]):
    """Topologically order parallel updates so reads see entry values."""
    remaining = list(assigns)
    ordered: list[tuple[str, pl.Term]] = []
    while remaining:
        progressed = False
        # pick an assignment whose variable is not read by any other rhs
        for i, (v, t) in enumerate(remaining):
            read_by_others = any(
                v in pl.names(t2) for u, t2 in remaining if u != v
            )
            if not read_by_others:
                ordered.append(remaining.pop(i))
                progressed = True
                break
        if not progressed:
            return [(v, pl.Wildcard()) for v, _ in assigns]  # cyclic: havoc
    return ordered


# ---------------------------------------------------------------------------
# Top-level construction
# ---------------------------------------------------------------------------


def cfg_to_gwre(program: fe.Program, memo: pl.Memo) -> GwreResult:
    """Summarize ``main`` into a guarded effect with renumbered states."""
    proc = program.procedures.get("main")
    if proc is None:
        raise UnsupportedProgram("no procedure named 'main'")
    give_ups = memo.counts["row_limit"]
    builder = _Builder(program, memo)
    try:
        phi = builder.walk(proc, proc.entry)
    except SummaryInconclusive:
        log.debug(
            "gwre: inconclusive, %d rankings from the memo, %d row-limit give-ups in fresh work",
            builder.remembered, memo.counts["row_limit"] - give_ups,
        )
        raise
    pairs, nullable = linear_form(phi)
    if len(pairs) != 1 or nullable or isinstance(pairs[0][0], Omega):
        entry = builder.fresh(Origin("entry", proc=proc.name))
        phi = seq(Ev(s=entry), phi)
    phi, mapping = renumber(phi)
    if log.isEnabledFor(logging.DEBUG):
        a = automaton(phi)
        log.debug(
            "gwre: %d CFG nodes, %d effect nodes, %d leaves as a tree, "
            "%d summaries, %d rankings from the memo, %d states, "
            "%d row-limit give-ups in fresh work, %d automaton states, %d automaton edges",
            sum(len(p.nodes) for p in program.procedures.values()), *_tree_size(phi),
            len(builder.summaries), builder.remembered, len(mapping),
            memo.counts["row_limit"] - give_ups, len(a.pairs), sum(map(len, a.pairs.values())),
        )
    return GwreResult(
        phi=phi,
        origins={mapping[s]: builder.origins[s] for s in mapping},
        summaries=builder.summaries,
        entry_state=linear_form(phi)[0][0][0].s,
    )


# ---------------------------------------------------------------------------
# Trace simulation
# ---------------------------------------------------------------------------


@dataclass
class SimResult:
    trace: list[tuple[int, str]]
    status: str  # "end" | "stuck" | "fuel"
    store: dict[str, int]


def simulate(phi: Re, fuel: int, rng: random.Random) -> SimResult:
    """Draw one concrete trace of at most ``fuel`` steps from an effect's
    ``automaton`` (choices and wildcards via ``rng``).  In an omega block, a
    state that may end may also start the block again, after its pairs."""
    a = automaton(phi)
    store: dict[str, int] = {}
    trace: list[tuple[int, str]] = []

    def draw() -> int:
        return rng.randint(-8, 8)

    q, block = a.start, None  # block: the pair that entered the omega block the run is in
    for _ in range(fuel):
        options = [p for p in a.pairs[q] if not isinstance(p[0], Guard) or pl.eval_pure(p[0].pi, store, draw)]
        options += [block] if block is not None and a.nullable[q] else []
        if not options:
            return SimResult(trace, "end" if a.nullable[q] else "stuck", store)
        f, k, q = rng.choice(options)
        if isinstance(f, Omega):
            block = (f, k, q)
            continue
        if isinstance(f, Ev):
            for v, t in f.assigns:
                store[v] = pl.eval_term(t, store, draw)
            if not pl.eval_pure(f.constraint, store, draw):
                return SimResult(trace, "stuck", store)
        trace.append((f.s, str(f)))
    return SimResult(trace, "fuel", store)
