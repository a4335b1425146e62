"""Encoding of guarded effects into Datalog facts and flow rules.

States of the effect become nodes of a transition relation ``flow``;
assignments drive a symbolic store whose entailed/undecided comparisons are
emitted as abstract facts at each state.  An undecided comparison emits both
itself and its complement (a closure pair), modeling the two futures of a
nondeterministic value.  Guards become conditional flow rules whose bodies
consult the facts of the predecessor state.

A tracked comparison is decided at state ``s`` only where a fact of it could
be read (the per-location predicates of "Lazy Abstraction", Henzinger et
al., POPL 2002):

- its fact shape, or its complement's, is in the read set of ``s``: the
  conjuncts of every guard that can follow ``s``, the omega terminal →
  head edges included (``read_sets``, a union over the automaton's edges);
- its shape, or its complement's, is a property atom, which the property's
  rules read at every state;
- ``s`` is the ``def_state`` of one of its variables.  Nothing may read
  that member, but it is where the family is created and the member that
  stands for the family in a repair, so families, their order and the
  ``xi`` names do not depend on which later states read them.

The walk is one loop over an explicit stack over ``gw.automaton``, built
once per encoding, whose edges are the pairs of each state's linear form (a
leading segment and the state after it).  It goes in this order (the
lists of facts, rules and families follow it):

- depth first over the edges of each state, in ``gw.linear_form``'s order;
- a segment's store update, incoming flow and emitted facts come before
  what remains after it is walked;
- an omega block walks its body, collecting the states where the body may
  end (its terminals), then adds the flow from each terminal back to each
  head of the body.  Nested omega blocks raise ``TypeError``.

After the walk each state gets a ``State`` fact, and each target of a back
edge of a depth-first search over every potential flow edge (the ``flow``
facts and the guard rules' heads; roots in walk order) a ``Cyc`` fact.

The path constraint is kept as blocks of conjuncts linked by shared
symbols (constraint independence, Cadar, Dunbar & Engler, OSDI 2008).  A
store is feasible when every block is satisfiable, and a comparison is
decided against the blocks that share a symbol with its substituted form.
Both are exact: Fourier-Motzkin never combines rows of symbol-disjoint
blocks, so the others change no answer, short of ``pure_logic``'s counted
row-limit give-ups.  A store known to be feasible asks only the blocks
built since, as ``pl.satisfiable`` gives a block the same answer each time.

A comparison's decision, each tracked atom's facts and the symbols of
each term or constraint are remembered in the ``pl.Memo`` passed to
``abstract_facts``, by the node ids they are worked out from, so that the
re-analyses of one repair, which share its memo, work each out once.  The
row-limit give-ups that ``abstract_facts`` logs count fresh work only, as
``pl.entails`` counts only the questions it answers anew.

Paths that rejoin are walked once from there (the state merging of RWset,
Boonstoppel, Cadar & Engler, TACAS 2008).  At an event or guard outside an
omega block whose state labels two or more leaves of the effect read as a
tree (``gw.shared_states``, counted on the DAG), or has been entered before
(it then starts a rest of the effect that two paths share), the walk adds
the incoming ``flow`` fact or guard rule, then skips the entry if it has
walked the same edge from an equivalent store.  The merge key is the
segment's key and the state it leads to (equal up to structure, so
``==`` effects share them), then the live store.  Two stores are
equivalent when:

- each live variable has the same term (hash-consed node id) and the same
  ``def_state`` in both, or is unset in both.  A variable is live when the
  segment or a segment reachable from the state it leads to mentions it
  (assignments and their right-hand sides, constraints, guards, relation
  arguments), when a property atom or the read set of one of their states
  names it, or when a tracked comparison has it beside a live variable,
  since ``emit`` decides that comparison at its variable's def state;
- the constraint blocks that share a symbol with the live terms are the
  same, in order.  No later query reads the others;
- both constraints are satisfiable, or neither is: ``emit`` emits nothing
  from an unsatisfiable store, so an infeasible path must not stand for a
  feasible one.

All the skipped walk would add is then already there: nothing reads a
variable that is not live, and since a state occurs at most once on a path
outside omega blocks, no later state is its def state.  Only
``fact_family``, where an atom of two families belongs to the one written
last, is written again as the first walk left it.  The walk order, and the
order of facts, rules and families that follows it, is that of a walk
without merging.  Fresh symbols ``$1, $2, ...`` are numbered per path
(``SymStore.symbols``), so paths with the same havocs name them alike; the
first path names them as one counter for the whole walk would.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

from . import ctl as ctl_mod
from . import gwre as gw
from . import pure_logic as pl
from .datalog_engine import Atom, Literal, Rule

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# Symbolic store
# ---------------------------------------------------------------------------


@dataclass
class SymStore:
    env: dict[str, pl.Term] = field(default_factory=dict)
    def_state: dict[str, int] = field(default_factory=dict)
    symbols: int = 0  # fresh symbols named on this path so far
    # the path constraint, its conjuncts split into blocks linked by shared
    # symbols: (the block's symbols, the conjunction of its conjuncts)
    blocks: tuple[tuple[frozenset[str], pl.Pure], ...] = ()
    feasible: bool | None = None  # every block satisfiable, once asked
    checked: int = 0  # the leading blocks satisfiable when last feasible

    def copy(self) -> "SymStore":
        return SymStore(
            dict(self.env), dict(self.def_state), self.symbols, self.blocks, self.feasible,
            self.checked,
        )

    def fresh(self) -> pl.Term:
        self.symbols += 1
        return pl.Var(f"${self.symbols}")


def _shape(pi: pl.Pure) -> tuple | None:
    """What a rule body matches of the facts of one comparison: all but the
    state, or None if the comparison has no fact shape."""
    atom = ctl_mod.pure_atom(pi, None)
    return None if atom is None else (atom.predicate, atom.args[:-1])


class FamilyKey(NamedTuple):
    predicate: str
    args: tuple
    def_states: tuple[int, ...]


@dataclass
class Family:
    key: FamilyKey
    pure: pl.Pure  # the comparison this family abstracts
    var: str | None  # primary (left) variable, if any
    members: list[Atom] = field(default_factory=list)
    read: bool = False  # some member is read by a rule at its state

    @property
    def def_state(self) -> int:
        return self.key.def_states[0] if self.key.def_states else -1


@dataclass
class EncodeResult:
    facts: list[Atom]
    rules: list[Rule]
    families: dict[FamilyKey, Family]
    fact_family: dict[Atom, FamilyKey]
    pair_of: dict[FamilyKey, FamilyKey]


@dataclass(frozen=True)
class _Fact:
    """A tracked comparison and what its facts are made of, worked out once."""

    pure: pl.Pure
    shape: tuple  # _shape(pure)
    var: str | None  # the variable its facts constrain (ctl.fact_var)
    variables: tuple[str, ...]  # its variable arguments, whose def states key its family


def _fact(pi: pl.Pure) -> _Fact:
    shape = _shape(pi)
    variables = tuple(a for a in shape[1] if isinstance(a, str))
    return _Fact(pi, shape, ctl_mod.fact_var(Atom(*shape)), variables)


def _tracked(pi: pl.Pure, memo: pl.Memo) -> tuple[_Fact, _Fact, frozenset[str], tuple[str, ...]] | None:
    """The facts of ``pi`` and of its complement, and its variables as a
    set and by name, or None if ``pi`` has no fact shape; remembered in
    ``memo.derived`` by ``pi``'s node id."""
    key = ("tracked", pl.node_id(pi, memo))
    if key not in memo.derived:
        tracked = None
        if _shape(pi) is not None:
            names = frozenset(pl.names(pi))
            tracked = _fact(pi), _fact(pl.negate(pi)), names, tuple(sorted(names))
        memo.derived[key] = tracked
    return memo.derived[key]


# what emit decides of a tracked comparison: its fact holds, its
# complement's does, or neither is entailed and both are emitted
_HOLDS, _FAILS, _OPEN = "holds", "fails", "open"


_ENTER, _CLOSE, _DONE = "enter", "close", "done"  # work-item steps of _Encoder.walk


@dataclass
class _Walk:
    """The walk from a segment entry that ``_Encoder.merge`` keyed."""

    store: SymStore  # the store it starts from
    live: tuple[str, ...]  # the variables read from the entry on
    start: int  # where its writes of fact_family start in _Encoder.writes
    end: int = -1  # and end, once the walk is done
    connected: tuple[int, ...] | None = None  # _Encoder.connected, once worked out
    last: dict[Atom, FamilyKey] | None = None  # the last write of each atom


class _Encoder:
    def __init__(
        self,
        atoms: list[pl.Pure],
        reads: dict[int, set[tuple]],
        property_shapes: set[tuple],
        memo: pl.Memo,
    ):
        self.memo = memo
        # atomic comparisons worth tracking, each with its complement and
        # its variables, as a set and by name
        self.tracked = [t for t in (_tracked(pi, memo) for pi in atoms) if t is not None]
        self.reads = reads  # per state, the shapes its guard rules read
        self.property_shapes = property_shapes
        # the indexes in tracked of the comparisons read at each state, of
        # those with each fact shape (their own or their complement's), and
        # of those over each variable
        self.read_at: dict[int, list[int]] = {}
        self.with_shape: dict[tuple, set[int]] = {}
        self.over: dict[str, list[int]] = {}
        for i, (fact, neg, _, ordered) in enumerate(self.tracked):
            for shape in (fact.shape, neg.shape):
                self.with_shape.setdefault(shape, set()).add(i)
            for v in ordered:
                self.over.setdefault(v, []).append(i)
        self.decided = 0  # comparisons decided, over all emits
        self.remembered = 0  # of them, those memo.derived answered
        # each output once, in first-insertion order
        self.facts: dict[Atom, None] = {}
        self.rules: dict[Rule, None] = {}
        self.states: dict[int, None] = {}
        self.families: dict[FamilyKey, Family] = {}
        self.fact_family: dict[Atom, FamilyKey] = {}
        self.pair_of: dict[FamilyKey, FamilyKey] = {}
        # what entry_key reads: the variables every state reads, and per
        # variable those of the tracked comparisons over it
        self.always_live = _shape_vars(property_shapes)
        self.partners = {
            v: frozenset().union(*(self.tracked[i][2] for i in over)) for v, over in self.over.items()
        }
        # the automaton walked, and the states whose entries walk keys: those
        # that label two or more leaves, and those it has entered before
        self.automaton: gw.Automaton | None = None
        self.shared: set[int] = set()
        # every fact_family write, in walk order, a merged entry's replayed
        self.writes: list[tuple[Atom, FamilyKey]] = []
        # per entry_key, its walks by match (a key's first walk by None)
        self.walked: dict[tuple[int, ...], dict] = {}
        self.merged = 0  # segment entries skipped as already walked
        # caches of entry_key: the variables of each state (state_vars) and
        # the live variables of each (segment, next state)
        self.state_vars_of: dict[int, frozenset[str]] = {}
        self.live: dict[tuple[int, int], tuple[str, ...]] = {}

    # -- bookkeeping ----------------------------------------------------------

    def add_flow(self, a: int, b: int) -> None:
        self.facts[Atom("flow", (a, b))] = None

    # -- store transitions ------------------------------------------------------

    def apply_event(self, ev: gw.Ev, store: SymStore) -> SymStore:
        out = store.copy()
        for v, t in ev.assigns:
            out.env[v] = pl.subst_term(t, out.env, out.fresh)
            out.def_state[v] = ev.s
        if not isinstance(ev.constraint, pl.TrueP):
            self.conjoin(out, pl.subst_pure(ev.constraint, out.env))
        return out

    def apply_guard(self, g: gw.Guard, store: SymStore) -> SymStore:
        out = store.copy()
        for conj in dict.fromkeys(pl.conjuncts(g.pi)):
            if out.env.keys() >= self.symbols(conj):
                self.conjoin(out, pl.subst_pure(conj, out.env))
        return out

    def conjoin(self, store: SymStore, pi: pl.Pure) -> None:
        """Add ``pi`` to the constraint of ``store``: each conjunct joins
        the blocks it shares a symbol with into one, at the end."""
        blocks, checked = store.blocks, store.checked
        for conj in pl.conjuncts(pi):
            names = self.symbols(conj)
            kept = []
            joined = None
            known = 0  # the kept blocks of the checked prefix, still leading
            for i, block in enumerate(blocks):
                if block[0].isdisjoint(names):
                    kept.append(block)
                    known += i < checked
                else:
                    names = names | block[0]
                    joined = block[1] if joined is None else pl.mk_and(joined, block[1])
            kept.append((names, conj if joined is None else pl.mk_and(joined, conj)))
            blocks, checked = tuple(kept), known
            store.feasible = None
        store.blocks, store.checked = blocks, checked

    def feasible(self, store: SymStore) -> bool:
        """Whether the constraint of ``store`` is satisfiable: whether each
        of its blocks is, remembered on the store.  Only the blocks after
        ``store.checked``, those built since the store was last known to be
        feasible, are asked: ``pl.satisfiable`` said yes to the others, and
        gives a block the same answer each time."""
        if store.feasible is None:
            blocks = store.blocks
            store.feasible = all(pl.satisfiable(pi, self.memo) for _, pi in blocks[store.checked :])
            if store.feasible:
                store.checked = len(blocks)
        return store.feasible

    def slice(self, store: SymStore, names: frozenset[str]) -> pl.Pure:
        """The conjunction of the blocks of ``store`` that share a symbol
        with the terms of ``names``: what a comparison over ``names`` is
        decided against."""
        if not store.blocks:
            return pl.TRUE
        reached = frozenset().union(*(self.symbols(store.env[v]) for v in names))
        pi = pl.TRUE
        for block_names, block in store.blocks:
            if not block_names.isdisjoint(reached):
                pi = pl.mk_and(pi, block)
        return pi

    # -- fact emission ----------------------------------------------------------

    def is_read(self, shape: tuple | None, s: int) -> bool:
        return shape in self.property_shapes or shape in self.reads.get(s, ())

    def to_decide(self, s: int, store: SymStore) -> list[tuple]:
        """The tracked comparisons over set variables that a fact at ``s``
        could be read of (``read_at``), or that have a variable defined at
        ``s``, in ``tracked`` order."""
        read = self.read_at.get(s)
        if read is None:
            shapes = self.property_shapes.union(self.reads.get(s, ()))
            read = self.read_at[s] = sorted(
                set().union(*(self.with_shape.get(shape, ()) for shape in shapes))
            )
        here = [v for v in self.over if store.def_state.get(v) == s]
        if here:
            read = sorted(set(read).union(*(self.over[v] for v in here)))
        known = store.env.keys()
        return [self.tracked[i] for i in read if known >= self.tracked[i][2]]

    def emit(self, s: int, store: SymStore, rels: tuple[pl.Rel, ...] = ()) -> None:
        self.states[s] = None
        decide = self.to_decide(s, store) if self.tracked else ()
        if not (rels or decide) or not self.feasible(store):
            return
        self.decided += len(decide)
        for rel in rels:
            self.facts[Atom(rel.name, (s,))] = None
        slices: dict[frozenset[str], pl.Pure] = {}
        for fact, neg, names, ordered in decide:
            sliced = slices.get(names)
            if sliced is None:
                sliced = slices[names] = self.slice(store, names)
            key = self.decision_key(sliced, fact, ordered, store)
            decision = self.memo.derived.get(key)
            if decision is None:
                decision = self.memo.derived[key] = self.decision(sliced, fact, neg, store)
            else:
                self.remembered += 1
            if decision is _HOLDS:
                self.record(fact, s, store)
            elif decision is _OPEN:
                key = self.record(fact, s, store)
                neg_key = self.record(neg, s, store)
                self.pair_of[neg_key] = key
                self.pair_of[key] = neg_key

    def decision_key(
        self, sliced: pl.Pure, fact: _Fact, ordered: tuple[str, ...], store: SymStore
    ) -> tuple:
        """What ``decision`` reads, as node ids: the slice, the comparison
        and the term of each of its variables, ``ordered`` by name."""
        nid, memo = pl.node_id, self.memo
        terms = (nid(store.env[v], memo) for v in ordered)
        return ("decide", nid(sliced, memo), nid(fact.pure, memo), *terms)

    def decision(self, sliced: pl.Pure, fact: _Fact, neg: _Fact, store: SymStore) -> str:
        """Whether ``sliced`` entails ``fact``, its complement, or neither."""
        if pl.entails(sliced, pl.subst_pure(fact.pure, store.env), self.memo):
            return _HOLDS
        if pl.entails(sliced, pl.subst_pure(neg.pure, store.env), self.memo):
            return _FAILS
        return _OPEN

    def record(self, fact: _Fact, s: int, store: SymStore) -> FamilyKey:
        predicate, args = fact.shape
        atom = Atom(predicate, (*args, s))
        self.facts[atom] = None
        key = FamilyKey(predicate, args, tuple(store.def_state.get(v, -1) for v in fact.variables))
        fam = self.families.get(key)
        if fam is None:
            fam = self.families[key] = Family(key, fact.pure, fact.var)
        if atom not in fam.members:
            fam.members.append(atom)
            fam.read = fam.read or self.is_read(fact.shape, s)
        self.fact_family[atom] = key
        self.writes.append((atom, key))
        return key

    # -- guard rules --------------------------------------------------------------

    def guard_rule(self, prev: int, seg: gw.Ev | gw.Guard) -> None:
        """The flow from state ``prev`` into ``seg``: a ``flow`` fact, or a
        rule whose body reads the facts of ``seg``'s guard at ``prev``."""
        if prev < 0:
            return
        atoms = (ctl_mod.pure_atom(c, prev) for c in pl.conjuncts(seg.pi)) if isinstance(seg, gw.Guard) else ()
        body = tuple(Literal(atom) for atom in atoms if atom is not None)
        if not body:
            self.add_flow(prev, seg.s)
        else:
            self.rules[Rule(Atom("flow", (prev, seg.s)), body)] = None

    # -- traversal ----------------------------------------------------------------

    def walk(self, a: gw.Automaton, shared: set[int]) -> None:
        """Walk ``a`` from its start; see the module docstring for the
        order.  ``shared`` holds the states whose entries merge."""
        # A work item is (step, key, rest, prev, store, terminals): _ENTER
        # enters state key from prev, a segment step keyed key leads to state
        # rest, and _CLOSE closes the omega block whose body is state key.
        # terminals is None outside omega bodies, else the enclosing body's
        # terminal list.  _DONE ends the _Walk key.
        self.automaton, self.shared = a, shared
        work: list[tuple] = [(_ENTER, a.start, None, -1, SymStore(), None)]
        while work:
            step, key, rest, prev, store, terminals = work.pop()
            if step is _CLOSE:
                for t in terminals:
                    for h, _, _ in a.pairs[key]:
                        self.guard_rule(t, h)
            elif step is _ENTER:
                if a.nullable[key] and prev >= 0:
                    if terminals is None:
                        self.add_flow(prev, prev)
                    elif prev not in terminals:
                        terminals.append(prev)
                work.extend((f, k, n, prev, store, terminals) for f, k, n in reversed(a.pairs[key]))
            elif step is _DONE:
                key.end = len(self.writes)
            elif isinstance(step, gw.Omega):
                if terminals is not None:
                    raise TypeError("nested omega blocks are not supported")
                body_terminals: list[int] = []
                work.append((_CLOSE, rest, None, -1, None, body_terminals))
                work.append((_ENTER, rest, None, prev, store, body_terminals))
            else:
                self.guard_rule(prev, step)
                if terminals is None and step.s in self.shared:
                    earlier, walk = self.merge(step, key, rest, store)
                    if earlier is not None:
                        self.merged += 1
                        self.replay(earlier)
                        continue
                    work.append((_DONE, walk, None, -1, None, None))
                elif terminals is None:
                    self.shared.add(step.s)  # entered again, it is shared
                if isinstance(step, gw.Ev):
                    store = self.apply_event(step, store)
                    self.emit(step.s, store, step.rels)
                else:
                    store = self.apply_guard(step, store)
                    self.emit(step.s, store)
                work.append((_ENTER, rest, None, step.s, store, terminals))

    # -- merging ----------------------------------------------------------------

    def merge(
        self, step: gw.Ev | gw.Guard, seg: int, rest: int, store: SymStore
    ) -> tuple[_Walk | None, _Walk]:
        """The earlier walk that the walk from the entry of ``step``, keyed
        ``seg`` and leading to state ``rest``, would repeat from ``store`` (or
        None), and this entry's walk, recorded when there is none.  The two
        stores must agree on ``entry_key``, then on ``match``: the walks of
        one key are indexed by it, which is exact because a walk is only
        recorded when no earlier one matches.  The first walk of a key is
        matched only when a second one comes, so ``match`` is worked out
        only where a key repeats."""
        key, live = self.entry_key(step, seg, rest, store)
        walk = _Walk(store, live, len(self.writes))
        walks = self.walked.setdefault(key, {})
        if not walks:
            walks[None] = walk
            return None, walk
        first = walks.pop(None, None)
        if first is not None:
            walks[self.match(first)] = first
        earlier = walks.setdefault(self.match(walk), walk)
        return (None if earlier is walk else earlier), walk

    def match(self, walk: _Walk) -> tuple[tuple[int, ...], bool]:
        """What two walks of one ``entry_key`` must agree on: ``connected``,
        and whether the constraint is satisfiable."""
        return self.connected(walk), self.feasible(walk.store)

    def entry_key(
        self, step: gw.Ev | gw.Guard, seg: int, rest: int, store: SymStore
    ) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """``step``'s key ``seg`` and the state ``rest`` it leads to, then
        the term id and definition state of each live variable in ``store``
        (-1, -1 where it has none); and the live variables, in that order."""
        shape = (seg, rest)
        live = self.live.get(shape)
        if live is None:
            read = self.always_live | self.leaf_vars(step) | self.state_vars(rest)
            live = self.live[shape] = tuple(
                sorted(read.union(*(self.partners.get(v, ()) for v in read)))
            )
        key = list(shape)
        nid, memo = pl.node_id, self.memo
        for v in live:
            term = store.env.get(v)
            key += (-1, -1) if term is None else (nid(term, memo), store.def_state[v])
        return tuple(key), live

    def connected(self, walk: _Walk) -> tuple[int, ...]:
        """The ids of the constraint blocks of ``walk`` that share a symbol
        with its live terms, in order: the conjuncts connected to them
        through shared symbols, transitively."""
        if walk.connected is None:
            store = walk.store
            reached: set[str] = set()
            for v in walk.live:
                term = store.env.get(v)
                reached |= {v} if term is None else self.symbols(term)
            blocks = (block for names, block in store.blocks if not names.isdisjoint(reached))
            walk.connected = tuple(pl.node_id(block, self.memo) for block in blocks)
        return walk.connected

    def replay(self, walk: _Walk) -> None:
        """Write ``fact_family`` as ``walk`` left it: an atom of two families
        belongs to the one that the walk wrote last."""
        if walk.last is None:
            walk.last = dict(self.writes[walk.start : walk.end])
        self.fact_family.update(walk.last)
        self.writes += walk.last.items()

    def state_vars(self, q: int) -> frozenset[str]:
        """The variables of the segments reachable from state ``q``, omega
        bodies included (``leaf_vars``), worked out once per state, after
        the states its segments lead to."""
        a, known, stack = self.automaton, self.state_vars_of, [q]
        while stack:
            after = [n for _, _, n in a.pairs[stack[-1]]]
            pending = [n for n in after if n not in known]
            if pending:
                stack += pending
                continue
            top = stack.pop()
            leaves = (self.leaf_vars(f) for f, _, _ in a.pairs[top] if not isinstance(f, gw.Omega))
            known[top] = frozenset().union(*leaves, *(known[n] for n in after))
        return known[q]

    def leaf_vars(self, leaf: gw.Ev | gw.Guard) -> frozenset[str]:
        """The variables an event or guard mentions, and those read at its state."""
        read = _shape_vars(self.reads.get(leaf.s, ()))
        if isinstance(leaf, gw.Guard):
            return read.union(pl.names(leaf.pi))
        return read.union((v for v, _ in leaf.assigns), gw._reads_of_ev(leaf))

    def symbols(self, root: pl.Term | pl.Pure) -> frozenset[str]:
        """``pl.names`` of a term or constraint, remembered by node id for
        every node under it: stores share terms and conjuncts, and a term
        that extends a remembered one, as an update of ``x`` from ``x``
        does, costs its new nodes only."""
        memo, nid = self.memo, pl.node_id
        table, root_id = memo.symbols, nid(root, memo)
        names = table.get(root_id)
        if names is not None:
            return names
        stack = [root]
        while stack:
            node = stack[-1]
            node_id = nid(node, memo)
            if node_id in table:
                stack.pop()
                continue
            children = pl._parts(node)[1]
            known = []
            for child in children:
                names = table.get(nid(child, memo))
                if names is None:
                    stack.append(child)
                else:
                    known.append(names)
            if len(known) == len(children):
                stack.pop()
                table[node_id] = frozenset().union(*known) if children else frozenset(pl.names(node))
        return table[root_id]


def _shape_vars(shapes) -> frozenset[str]:
    """The variables named by fact shapes."""
    return frozenset(a for _, args in shapes for a in args if isinstance(a, str))


def read_sets(a: gw.Automaton) -> dict[int, set[tuple]]:
    """Per state, the fact shapes that a guard rule out of it reads: the
    conjuncts of each guard that can follow it, over the automaton's edges.
    Each event or guard reads the leading guards of the state it leads to
    (an omega block's are its body's), and each terminal of an omega body
    (an edge to a state that may end) the leading guards of the body."""
    heads: dict[int, set] = {}  # per state, the shapes its leading guards read

    def leading(q: int) -> set:
        if q not in heads:
            heads[q] = set().union(*(
                leading(n) if isinstance(f, gw.Omega)
                else map(_shape, pl.conjuncts(f.pi)) if isinstance(f, gw.Guard) else ()
                for f, _, n in a.pairs[q]
            )) - {None}
        return heads[q]

    edges = [(f.s, n) for pairs in a.pairs.values() for f, _, n in pairs if not isinstance(f, gw.Omega)]
    for body in {n for pairs in a.pairs.values() for f, _, n in pairs if isinstance(f, gw.Omega)}:
        inside, todo = set(), [body]  # the states reachable from the body
        while todo:
            q = todo.pop()
            if q not in inside:
                inside.add(q)
                todo += (n for f, _, n in a.pairs[q] if not isinstance(f, gw.Omega))
        edges += ((f.s, body) for q in inside for f, _, n in a.pairs[q] if a.nullable[n])
    reads: dict[int, set[tuple]] = {}
    for s, q in edges:
        if leading(q):
            reads.setdefault(s, set()).update(leading(q))
    return reads


def abstract_facts(
    result: gw.GwreResult, ctl_pures: list[pl.Bop | pl.Rel], memo: pl.Memo
) -> EncodeResult:
    """Encode an effect into facts, flow rules, and fact families.

    ``ctl_pures`` are the property's atomic payloads; together with the
    effect's own guard/constraint atoms they form the tracked comparison set.
    """
    atoms = gw.pure_of_gwre(result.phi)
    property_shapes: set[tuple] = set()
    for pure in ctl_pures:
        if isinstance(pure, pl.Bop):
            property_shapes.add(_shape(pure))
            if pure not in atoms:
                atoms.append(pure)
    property_shapes.discard(None)
    give_ups = memo.counts["row_limit"]
    automaton = gw.automaton(result.phi)
    enc = _Encoder(atoms, read_sets(automaton), property_shapes, memo)
    enc.walk(automaton, gw.shared_states(result.phi))
    for s in enc.states:
        enc.facts[Atom("State", (s,))] = None
    edges = [f.args for f in enc.facts if f.predicate == "flow"]
    for b in ctl_mod.cycle_heads(edges + [r.head.args for r in enc.rules], enc.states):
        enc.facts[Atom("Cyc", (b,))] = None
    log.debug(
        "encode: %d states, %d facts, %d rules, %d families, "
        "%d comparisons decided, %d of them from the memo (states x tracked atoms: %d x %d), "
        "%d segment entries merged, %d row-limit give-ups in fresh work",
        len(enc.states), len(enc.facts), len(enc.rules), len(enc.families), enc.decided,
        enc.remembered, len(enc.states), len(enc.tracked), enc.merged,
        memo.counts["row_limit"] - give_ups,
    )
    return EncodeResult(
        facts=list(enc.facts),
        rules=list(enc.rules),
        families=enc.families,
        fact_family=enc.fact_family,
        pair_of=enc.pair_of,
    )
