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

- depth first over the derivatives, taking the leading segments of an
  effect in ``gw.first`` order;
- a segment's store update, incoming flow and emitted facts come before
  its derivative is walked;
- an omega block walks its body, collecting the states where the body may
  end (its terminals), then adds the flow from each terminal back to each
  head of the body.  Nested omega blocks raise ``TypeError``.

After the walk each state gets a ``State`` fact, and each target of a back
edge of a depth-first search over every potential flow edge (the ``flow``
facts and the guard rules' heads; roots in walk order) a ``Cyc`` fact.
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
    constraint: pl.Pure = pl.TRUE
    def_state: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "SymStore":
        return SymStore(dict(self.env), self.constraint, dict(self.def_state))


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


_ENTER, _CLOSE = "enter", "close"  # work-item steps of _Encoder.walk


class _Encoder:
    def __init__(
        self,
        atoms: list[pl.Pure],
        reads: dict[int, set[tuple]],
        property_shapes: set[tuple],
    ):
        # atomic comparisons worth tracking, each with its variables, its
        # complement, and the fact shapes of both
        self.tracked = [
            (pi, pl.pure_vars(pi), pl.negate(pi), (_shape(pi), _shape(pl.negate(pi))))
            for pi in atoms
            if _shape(pi) is not None
        ]
        self.reads = reads  # per state, the shapes its guard rules read
        self.property_shapes = property_shapes
        self.decided = 0  # comparisons decided, over all emits
        # each output once, in first-insertion order
        self.facts: dict[Atom, None] = {}
        self.rules: dict[Rule, None] = {}
        self.states: dict[int, None] = {}
        self.families: dict[FamilyKey, Family] = {}
        self.fact_family: dict[Atom, FamilyKey] = {}
        self.pair_of: dict[FamilyKey, FamilyKey] = {}
        self.sym_counter = 0

    # -- bookkeeping ----------------------------------------------------------

    def add_flow(self, a: int, b: int) -> None:
        self.facts[Atom("flow", (a, b))] = None

    def fresh_symbol(self) -> pl.Term:
        self.sym_counter += 1
        return pl.Var(f"${self.sym_counter}")

    # -- store transitions ------------------------------------------------------

    def apply_event(self, ev: gw.Ev, store: SymStore) -> SymStore:
        out = store.copy()
        for v, t in ev.assigns:
            out.env[v] = pl.subst_term(pl.dewildcard(t, self.fresh_symbol), out.env)
            out.def_state[v] = ev.s
        if not isinstance(ev.constraint, pl.TrueP):
            pi = pl.subst_pure(ev.constraint, out.env)
            out.constraint = pl.mk_and(out.constraint, pi)
        return out

    def apply_guard(self, g: gw.Guard, store: SymStore) -> SymStore:
        out = store.copy()
        known = dict.fromkeys(
            conj
            for conj in pl.conjuncts(g.pi)
            if pl.pure_vars(conj) <= set(out.env)
        )
        pi = pl.TRUE
        for conj in known:
            pi = pl.mk_and(pi, conj)
        out.constraint = pl.mk_and(out.constraint, pl.subst_pure(pi, out.env))
        return out

    # -- fact emission ----------------------------------------------------------

    def is_read(self, shape: tuple | None, s: int) -> bool:
        return shape in self.property_shapes or shape in self.reads.get(s, ())

    def emit(self, s: int, store: SymStore, rels: tuple[pl.Rel, ...] = ()) -> None:
        self.states[s] = None
        known = set(store.env)
        decide = [
            (pi, neg)
            for pi, names, neg, shapes in self.tracked
            if names <= known
            and (
                any(self.is_read(shape, s) for shape in shapes)
                or any(store.def_state.get(v) == s for v in names)
            )
        ]
        if not (rels or decide) or not pl.satisfiable(store.constraint):
            return
        self.decided += len(decide)
        for rel in rels:
            self.facts[Atom(rel.name, (s,))] = None
        for pi, neg in decide:
            atom = ctl_mod.pure_atom(pi, s)
            if pl.entails(store.constraint, pl.subst_pure(pi, store.env)):
                self.record(pi, atom, store, pair=None)
                continue
            if pl.entails(store.constraint, pl.subst_pure(neg, store.env)):
                continue
            neg_atom = ctl_mod.pure_atom(neg, s)
            self.record(pi, atom, store, pair=None)
            if neg_atom is not None:
                self.record(neg, neg_atom, store, pair=pi)

    def record(self, pi: pl.Pure, atom: Atom, store: SymStore, pair: pl.Pure | None) -> None:
        self.facts[atom] = None
        key = self.family_key(atom, store)
        if key not in self.families:
            self.families[key] = Family(key, pi, ctl_mod.fact_var(atom))
        fam = self.families[key]
        if atom not in fam.members:
            fam.members.append(atom)
            fam.read = fam.read or self.is_read(_shape(pi), atom.args[-1])
        self.fact_family[atom] = key
        if pair is not None:
            pair_atom = ctl_mod.pure_atom(pair, atom.args[-1])
            if pair_atom is not None:
                pair_key = self.family_key(pair_atom, store)
                if pair_key in self.families:
                    self.pair_of[key] = pair_key
                    self.pair_of[pair_key] = key

    def family_key(self, atom: Atom, store: SymStore) -> FamilyKey:
        var_args = [a for a in atom.args[:-1] if isinstance(a, str)]
        return FamilyKey(
            atom.predicate,
            atom.args[:-1],
            tuple(store.def_state.get(v, -1) for v in var_args),
        )

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
        # A work item is (step, phi, prev, store, terminals): step _ENTER
        # enters phi reached from prev, a leading segment of phi takes it,
        # and _CLOSE closes the omega block whose body is phi.  terminals is
        # None outside omega bodies, else the enclosing body's terminal list.
        work: list[tuple] = [(_ENTER, phi, -1, SymStore(), None)]
        while work:
            step, phi, prev, store, terminals = work.pop()
            if step is _CLOSE:
                heads = gw.first(phi)
                for t in terminals:
                    for h in heads:
                        if isinstance(h, gw.Ev):
                            self.add_flow(t, h.s)
                        else:
                            self.guard_rule(t, h.s, h.pi)
            elif step is _ENTER:
                if gw.nullable(phi) and prev >= 0:
                    if terminals is None:
                        self.add_flow(prev, prev)
                    elif prev not in terminals:
                        terminals.append(prev)
                work.extend((f, phi, prev, store, terminals) for f in reversed(gw.first(phi)))
            elif isinstance(step, gw.Omega):
                if terminals is not None:
                    raise TypeError("nested omega blocks are not supported")
                body_terminals: list[int] = []
                work.append((_CLOSE, step.body, -1, None, body_terminals))
                work.append((_ENTER, step.body, prev, store, body_terminals))
            else:
                if isinstance(step, gw.Ev):
                    store = self.apply_event(step, store)
                    if prev >= 0:
                        self.add_flow(prev, step.s)
                    self.emit(step.s, store, step.rels)
                else:
                    store = self.apply_guard(step, store)
                    self.guard_rule(prev, step.s, step.pi)
                    self.emit(step.s, store)
                work.append((_ENTER, gw.derivative(step, phi), step.s, store, terminals))


def read_sets(phi: gw.Re) -> dict[int, set[tuple]]:
    """Per state, the fact shapes that a guard rule out of it reads.

    A guard rule out of state ``s`` reads the conjuncts of a guard that can
    follow ``s``; a state on several paths reads the union.  One postorder
    pass, on an explicit stack, gives each node whether it is nullable, the
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

    stack: list[tuple[gw.Re, bool]] = [(phi, False)]
    while stack:
        node, children_done = stack.pop()
        if id(node) in info:
            continue
        if not children_done and isinstance(node, (gw.Seq, gw.OrRe, gw.Omega)):
            parts = (
                node.items if isinstance(node, gw.Seq)
                else node.alts if isinstance(node, gw.OrRe) else (node.body,)
            )
            stack += [(node, True)] + [(part, False) for part in parts]
            continue
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
            info[id(node)] = (gw.nullable(node), none, none)
    return reads


def abstract_facts(
    result: gw.GwreResult, ctl_pures: list[pl.Bop | pl.Rel]
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
    enc = _Encoder(atoms, read_sets(result.phi), property_shapes)
    enc.walk(result.phi)
    for s in enc.states:
        enc.facts[Atom("State", (s,))] = None
    edges = [f.args for f in enc.facts if f.predicate == "flow"]
    for b in ctl_mod.cycle_heads(edges + [r.head.args for r in enc.rules], enc.states):
        enc.facts[Atom("Cyc", (b,))] = None
    log.debug(
        "encode: %d states, %d facts, %d rules, %d families, "
        "%d comparisons decided (states x tracked atoms: %d x %d)",
        len(enc.states), len(enc.facts), len(enc.rules), len(enc.families),
        enc.decided, len(enc.states), len(enc.tracked),
    )
    return EncodeResult(
        facts=list(enc.facts),
        rules=list(enc.rules),
        families=enc.families,
        fact_family=enc.fact_family,
        pair_of=enc.pair_of,
    )
