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
  head edges included (``read_sets``);
- its shape, or its complement's, is a property atom, which the property's
  rules read at every state;
- ``s`` is the ``def_state`` of one of its variables.  Nothing may read
  that member, but it is where the family is created and the member that
  stands for the family in a repair, so families, their order and the
  ``xi`` names do not depend on which later states read them.

The walk is one loop over an explicit stack, in this order (the lists of
facts, rules and families follow it):

- depth first over the pairs of each effect's linear form
  (``gw.linear_form``: a leading segment and what remains after it), in
  its order;
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
walked the same segment, with a structurally equal rest of the effect, from
an equivalent store.  Two stores are equivalent when:

- each live variable has the same term (hash-consed node id) and the same
  ``def_state`` in both, or is unset in both.  A variable is live when the
  segment or the rest mentions it (assignments and their right-hand sides,
  constraints, guards, relation arguments), when a property atom or the
  read set of one of their states names it, or when a tracked comparison
  has it beside a live variable, since ``emit`` decides that comparison at
  its variable's def state;
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


@dataclass(frozen=True)
class FamilyKey:
    predicate: str
    args: tuple
    def_states: tuple[int, ...]
    # the dataclass hash, computed once, as Atom's
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.predicate, self.args, self.def_states)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild rather than restore: a str hash is only valid in the
        # process that computed it
        return FamilyKey, (self.predicate, self.args, self.def_states)


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
        # states whose entries walk keys: those that label two or more
        # leaves, and those it has entered before
        self.shared: set[int] = set()
        # every fact_family write, in walk order, a merged entry's replayed
        self.writes: list[tuple[Atom, FamilyKey]] = []
        # per entry_key, its walks by match (a key's first walk by None)
        self.walked: dict[tuple[int, ...], dict] = {}
        self.merged = 0  # segment entries skipped as already walked
        # caches of entry_key, for one walk: interned effect shapes and the
        # variables of each; per id() of an effect node the node, kept alive,
        # and its shape id; per sequence shape that of its items but the
        # first; and the live variables of each (step, rest)
        self.effect_ids: dict[object, int] = {}
        self.effect_vars: list[frozenset[str]] = []
        self.effects: dict[int, tuple[gw.Re, int]] = {}
        self.tails: dict[int, int] = {}
        self.live: dict[tuple[int, int], tuple[str, ...]] = {}
        self.nil = self.effect_id(gw.EPS)  # the empty sequence

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

    def guard_rule(self, prev: int, s: int, pi: pl.Pure) -> None:
        if prev < 0:
            return
        body: list[Literal] = []
        for conj in pl.conjuncts(pi):
            atom = ctl_mod.pure_atom(conj, prev)
            if atom is not None:
                body.append(Literal(atom))
        if not body:
            self.add_flow(prev, s)
        else:
            self.rules[Rule(Atom("flow", (prev, s)), tuple(body))] = None

    # -- traversal ----------------------------------------------------------------

    def walk(self, phi: gw.Re) -> None:
        """Walk ``phi`` from the entry; see the module docstring for the order."""
        # A work item is (step, phi, rest, prev, store, terminals): step
        # _ENTER enters phi reached from prev, a leading segment of phi takes
        # it and leaves rest, and _CLOSE closes the omega block whose body is
        # phi.  terminals is None outside omega bodies, else the enclosing
        # body's terminal list.  _DONE ends the _Walk phi.
        self.shared = gw.shared_states(phi)
        work: list[tuple] = [(_ENTER, phi, None, -1, SymStore(), None)]
        while work:
            step, phi, rest, prev, store, terminals = work.pop()
            if step is _CLOSE:
                heads = [h for h, _ in gw.linear_form(phi)[0]]
                for t in terminals:
                    for h in heads:
                        if isinstance(h, gw.Ev):
                            self.add_flow(t, h.s)
                        else:
                            self.guard_rule(t, h.s, h.pi)
            elif step is _ENTER:
                pairs, nullable = gw.linear_form(phi)
                if nullable and prev >= 0:
                    if terminals is None:
                        self.add_flow(prev, prev)
                    elif prev not in terminals:
                        terminals.append(prev)
                work.extend((f, phi, rest, prev, store, terminals) for f, rest in reversed(pairs))
            elif step is _DONE:
                phi.end = len(self.writes)
            elif isinstance(step, gw.Omega):
                if terminals is not None:
                    raise TypeError("nested omega blocks are not supported")
                body_terminals: list[int] = []
                work.append((_CLOSE, step.body, None, -1, None, body_terminals))
                work.append((_ENTER, step.body, None, prev, store, body_terminals))
            else:
                if isinstance(step, gw.Ev):
                    if prev >= 0:
                        self.add_flow(prev, step.s)
                else:
                    self.guard_rule(prev, step.s, step.pi)
                if terminals is None and step.s in self.shared:
                    earlier, walk = self.merge(step, phi, rest, store)
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
        self, step: gw.Ev | gw.Guard, phi: gw.Re, rest: gw.Re, store: SymStore
    ) -> tuple[_Walk | None, _Walk]:
        """The earlier walk that the walk from the entry of ``step`` into
        ``phi``, with ``rest`` left after it, would repeat from ``store`` (or
        None), and this entry's walk, recorded when there is none.  The two
        stores must agree on ``entry_key``, then on ``match``: the walks of
        one key are indexed by it, which is exact because a walk is only
        recorded when no earlier one matches.  The first walk of a key is
        matched only when a second one comes, so ``match`` is worked out
        only where a key repeats."""
        key, live = self.entry_key(step, phi, rest, store)
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
        self, step: gw.Ev | gw.Guard, phi: gw.Re, rest: gw.Re, store: SymStore
    ) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """The shape ids of ``step`` and ``rest``, then the term id and
        definition state of each live variable in ``store`` (-1, -1 where it
        has none); and the live variables, in that order."""
        if type(phi) is gw.Seq and phi.items[0] is step:
            # rest is phi's items after step, which a long sequence keeps
            # from one entry to the next: its id is phi's tail
            rest_id = self.tails[self.effect_id(phi)]
            self.effects[id(rest)] = (rest, rest_id)
        else:
            rest_id = self.effect_id(rest)
        shape = (self.effect_id(step), rest_id)
        live = self.live.get(shape)
        if live is None:
            read = self.always_live | self.effect_vars[shape[0]] | self.effect_vars[shape[1]]
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

    def effect_id(self, root: gw.Re) -> int:
        """The interned id of ``root``'s shape: structurally equal effects
        share it.  One ``gw.postorder`` walk keys the nodes not keyed yet; a
        new shape gets the variables that its leaves mention or read at
        their states (``effect_vars``)."""
        effects, nid, memo = self.effects, pl.node_id, self.memo
        for node in gw.postorder(root, effects):
            cls = type(node)
            parts = gw._parts(node)
            if cls is gw.Seq:
                sid = self.nil
                for part in reversed(parts):
                    sid = self.cons(effects[id(part)][1], sid)
                effects[id(node)] = (node, sid)
                continue
            if cls is gw.Ev:
                shape = (
                    cls, node.s, tuple((v, nid(t, memo)) for v, t in node.assigns),
                    nid(node.constraint, memo),
                    tuple((r.name, *(nid(a, memo) for a in r.args)) for r in node.rels),
                )
            elif cls is gw.Guard:
                shape = (cls, node.s, nid(node.pi, memo))
            elif parts:
                shape = (cls, *(effects[id(part)][1] for part in parts))
            else:  # Eps, Bot, LoopMark
                shape = node
            sid = self.effect_ids.get(shape)
            if sid is None:
                sid = self.effect_ids[shape] = len(self.effect_vars)
                self.effect_vars.append(
                    self.leaf_vars(node) if cls in (gw.Ev, gw.Guard)
                    else frozenset().union(*(self.effect_vars[effects[id(p)][1]] for p in parts))
                )
            effects[id(node)] = (node, sid)
        return effects[id(root)][1]

    def cons(self, head: int, tail: int) -> int:
        """The shape id of the sequence of ``head`` then ``tail``: a sequence
        is its first item followed by the sequence of the others, so that
        what ``gw.linear_form`` leaves of it after its first item is its entry
        in ``tails``."""
        if tail == self.nil:
            return head
        shape = (gw.Seq, head, tail)
        sid = self.effect_ids.get(shape)
        if sid is None:
            sid = self.effect_ids[shape] = len(self.effect_vars)
            self.effect_vars.append(self.effect_vars[head] | self.effect_vars[tail])
            self.tails[sid] = tail
        return sid

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


def read_sets(phi: gw.Re) -> dict[int, set[tuple]]:
    """Per state, the fact shapes that a guard rule out of it reads.

    A guard rule out of state ``s`` reads the conjuncts of a guard that can
    follow ``s``; a state on several paths reads the union.  One
    ``gw.postorder`` pass gives each node whether it is nullable, the
    shapes its leading guards read and the states it can end at; a ``Seq``
    adds the follow step from the ends of each prefix of its items to the
    leading guards of the next item, and an ``Omega`` the step from its
    body's ends (the terminals) to its body's leading guards (the heads).
    """
    reads: dict[int, set[tuple]] = {}
    # id of a node -> (nullable, shapes its leading guards read, end states)
    info: dict[int, tuple[bool, frozenset, frozenset]] = {}
    none = frozenset()

    def follow(ends: frozenset, shapes: frozenset) -> None:
        if shapes:
            for s in ends:
                reads.setdefault(s, set()).update(shapes)

    for node in gw.postorder(phi, info):
        if isinstance(node, gw.Ev):
            info[id(node)] = (False, none, frozenset((node.s,)))
        elif isinstance(node, gw.Guard):
            shapes = frozenset(map(_shape, pl.conjuncts(node.pi))) - {None}
            info[id(node)] = (False, shapes, frozenset((node.s,)))
        elif isinstance(node, gw.Seq):
            # fold left: each item follows the ends of the items before it
            nul, heads, ends = info[id(node.items[0])]
            for item in node.items[1:]:
                item_nul, item_heads, item_ends = info[id(item)]
                follow(ends, item_heads)
                heads = heads | item_heads if nul else heads
                ends = item_ends | ends if item_nul else item_ends
                nul = nul and item_nul
            info[id(node)] = (nul, heads, ends)
        elif isinstance(node, gw.OrRe):
            nuls, heads, ends = zip(*(info[id(alt)] for alt in node.alts))
            info[id(node)] = (any(nuls), none.union(*heads), none.union(*ends))
        elif isinstance(node, gw.Omega):
            _, bf, bl = info[id(node.body)]
            follow(bl, bf)
            info[id(node)] = (False, bf, none)  # an omega block is never left
        else:  # Eps, LoopMark, Bot
            info[id(node)] = (not isinstance(node, gw.Bot), none, none)
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
    enc = _Encoder(atoms, read_sets(result.phi), property_shapes, memo)
    enc.walk(result.phi)
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
