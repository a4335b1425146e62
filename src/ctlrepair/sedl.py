"""Symbolic execution of stratified Datalog.

The extensional database may contain two kinds of unknowns:

* symbolic constants (``Alpha``) standing for argument values yet to be
  chosen, approximated by finite domains plus placeholder constants
  (``#n1`` ...) representing fresh values; and
* sign symbols (``xi``) marking facts whose presence is undecided.

``symbolic_execute`` characterizes, as a disjunction of constraints over the
alphas and xis, exactly which instantiations and fact subsets make a target
atom derivable.  By default the alphas range over the product of their finite
domains and every sign world is inspected; callers may restrict both.  One
fixpoint answers them all: every atom carries a mask with one bit per pair of
a valuation and a sign world (the provenance annotation of Green,
Karvounarakis & Tannen, "Provenance Semirings", PODS 2007, over sets of
worlds).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .datalog_engine import Atom, DVar, Rule, _fixpoint


@dataclass(frozen=True)
class Alpha:
    """A symbolic constant appearing in extensional facts."""

    name: str

    def __str__(self) -> str:
        return self.name


def placeholder(i: int) -> str:
    return f"#n{i}"


def is_placeholder(value) -> bool:
    return isinstance(value, str) and value.startswith("#n")


@dataclass
class SymbolicFact:
    atom: Atom  # args may contain Alpha
    xi: str | None = None  # sign symbol name, or None for a definite fact


@dataclass
class SymbolicEdb:
    facts: list[SymbolicFact] = field(default_factory=list)

    def alphas(self) -> list[Alpha]:
        out: list[Alpha] = []
        for f in self.facts:
            for a in f.atom.args:
                if isinstance(a, Alpha) and a not in out:
                    out.append(a)
        return out

    def xis(self) -> list[str]:
        out: list[str] = []
        for f in self.facts:
            if f.xi is not None and f.xi not in out:
                out.append(f.xi)
        return out


class SignBudgetExceeded(Exception):
    """More sign symbols than the search budget allows."""


# ---------------------------------------------------------------------------
# Dependency analysis: which constants can matter at which positions
# ---------------------------------------------------------------------------


def _position_classes(rules: list[Rule]):
    """Union-find over predicate positions sharing a variable in some rule."""
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for rule in rules:
        var_positions: dict[str, list[tuple[str, int]]] = {}
        atoms = [rule.head] + [lit.atom for lit in rule.body]
        for atom in atoms:
            for i, a in enumerate(atom.args):
                if isinstance(a, DVar):
                    var_positions.setdefault(a.name, []).append((atom.predicate, i))
        for positions in var_positions.values():
            for other in positions[1:]:
                union(positions[0], other)
    return find


def compute_depend(rules: list[Rule], edb: SymbolicEdb) -> set[tuple[str, int, object]]:
    """Constants (and placeholders) that may matter at each predicate position.

    Seeds: one placeholder per symbolic argument position; the concrete
    arguments of every fact; the constants written in rule literals.  The
    seeds then propagate between positions connected by a shared variable in
    some rule (head included); variables under negation participate too, so
    the result over-approximates the positive-only closure.
    """
    find = _position_classes(rules)
    alphas = edb.alphas()
    ph_of = {a: placeholder(i + 1) for i, a in enumerate(alphas)}
    seeds: dict[tuple[str, int], set] = {}

    def seed(pred: str, i: int, c) -> None:
        seeds.setdefault(find((pred, i)), set()).add(c)

    for f in edb.facts:
        for i, a in enumerate(f.atom.args):
            if isinstance(a, Alpha):
                seed(f.atom.predicate, i, ph_of[a])
            else:
                seed(f.atom.predicate, i, a)
    for rule in rules:
        for atom in [rule.head] + [lit.atom for lit in rule.body]:
            for i, a in enumerate(atom.args):
                if not isinstance(a, DVar):
                    seed(atom.predicate, i, a)

    positions: set[tuple[str, int]] = set()
    for f in edb.facts:
        positions.update((f.atom.predicate, i) for i in range(len(f.atom.args)))
    for rule in rules:
        for atom in [rule.head] + [lit.atom for lit in rule.body]:
            positions.update((atom.predicate, i) for i in range(len(atom.args)))

    out: set[tuple[str, int, object]] = set()
    for pos in positions:
        for c in seeds.get(find(pos), set()):
            out.add((pos[0], pos[1], c))
    return out


def domain_of(
    alpha: Alpha,
    dep: set[tuple[str, int, object]],
    edb: SymbolicEdb,
) -> list:
    """Finite domain of one symbolic constant: every constant sharing a
    position with the constant's placeholder (placeholders included)."""
    alphas = edb.alphas()
    ph = placeholder(alphas.index(alpha) + 1)
    pos = {(p, i) for (p, i, c) in dep if c == ph}
    values = {c for (p, i, c) in dep if (p, i) in pos}
    return sorted(values, key=repr)


# ---------------------------------------------------------------------------
# Sign search via world-annotated evaluation
# ---------------------------------------------------------------------------


def annotated_eval(
    rules: list[Rule],
    facts: list[tuple[Atom, int]],
    full: int,
) -> dict[Atom, int]:
    """Fixpoint where every atom carries the set of worlds deriving it.

    A world is a bit position of ``full``, and an atom's annotation is an
    integer bitmask over the worlds.  Each input fact comes with the mask
    of the worlds it holds in; a fact listed twice holds in the union.
    """
    masks: dict[Atom, int] = {}
    for atom, mask in facts:
        masks[atom] = masks.get(atom, 0) | mask
    return _fixpoint(rules, masks, full)


def _world_signs(w: int, xi_names: list[str]) -> tuple[list[str], list[str]]:
    true_, false_ = [], []
    for i, name in enumerate(xi_names):
        (true_ if (w >> i) & 1 else false_).append(name)
    return true_, false_


# ---------------------------------------------------------------------------
# Full symbolic execution
# ---------------------------------------------------------------------------


@dataclass
class Disjunct:
    alpha: dict[str, object]
    bindings: dict[str, object]
    sign_true: list[str]
    sign_false: list[str]

    def to_json(self) -> dict:
        resolved = {
            str(k): self.bindings.get(v, v) if is_placeholder(v) else v
            for k, v in self.alpha.items()
        }
        return {
            "alpha_bindings": resolved,
            "sign_true": list(self.sign_true),
            "sign_false": list(self.sign_false),
        }


@dataclass
class Psi:
    disjuncts: list[Disjunct]
    truncated: bool = False


def _unify_args(args, target_args):
    """Match derived args against a ground target, binding placeholders."""
    bindings: dict[str, object] = {}
    for a, t in zip(args, target_args):
        if is_placeholder(a):
            if a in bindings and bindings[a] != t:
                return None
            bindings[a] = t
        elif a != t or type(a) is not type(t):
            return None
    return bindings


def _target_variants(masks: dict[Atom, int], target: Atom):
    """The placeholder bindings under which derived atoms unify with the
    target, each with the union of those atoms' masks, sorted by bindings:
    an order that does not depend on the order of derivation."""
    out: dict[tuple, int] = {}
    for fact, mask in masks.items():
        if fact.predicate != target.predicate or len(fact.args) != len(target.args):
            continue
        bindings = _unify_args(fact.args, target.args)
        if bindings is not None:
            key = tuple(sorted(bindings.items(), key=repr))
            out[key] = out.get(key, 0) | mask
    return sorted(out.items(), key=lambda variant: repr(variant[0]))


_MAX_DISJUNCTS = 4096


def symbolic_execute(
    rules: list[Rule],
    edb: SymbolicEdb,
    target: Atom,
    budget: int = 16,
    valuations: list[dict[str, object]] | None = None,
    candidate_worlds: list[int] | None = None,
) -> Psi:
    """Constraint over alphas and signs under which the target holds.

    A valuation maps alpha names to values.  Without ``valuations`` every
    combination of the alphas' ``domain_of`` domains is tried; callers may
    pass a narrower list.  With ``candidate_worlds`` the sign search inspects
    only the given worlds (an intentional restriction used by callers that
    bound edit sizes); otherwise every world is enumerated, ascending.  A
    sign world ``w`` sets bit ``i`` when sign ``edb.xis()[i]`` is true.

    One annotated fixpoint answers every valuation: bit ``v * n + j`` of a
    mask stands for valuation ``v`` in world ``worlds[j]`` (``n`` worlds).
    A plain fact holds in its sign's worlds in every valuation's block, and
    a fact with alphas gets one instance per valuation, confined to that
    valuation's block.  Disjuncts are read valuation by valuation, then by
    the target variant's bindings, then world by world.
    """
    xi_names: list[str] = edb.xis()
    k = len(xi_names)
    if k > budget:
        raise SignBudgetExceeded(f"{k} sign symbols exceed the budget of {budget}")
    if valuations is None:
        alphas = edb.alphas()
        dep = compute_depend(rules, edb)
        domains = [domain_of(a, dep, edb) for a in alphas]
        valuations = [
            {a.name: v for a, v in zip(alphas, combo)}
            for combo in itertools.product(*domains)
        ]
    worlds = candidate_worlds if candidate_worlds is not None else range(1 << k)
    n = len(worlds)
    block = (1 << n) - 1
    tile = sum(1 << (v * n) for v in range(len(valuations)))  # bit 0 of each block
    in_world = {
        name: sum(1 << j for j, w in enumerate(worlds) if (w >> i) & 1)
        for i, name in enumerate(xi_names)
    }
    facts: list[tuple[Atom, int]] = []
    for f in edb.facts:
        mask = block if f.xi is None else in_world[f.xi]
        if not any(isinstance(a, Alpha) for a in f.atom.args):
            facts.append((f.atom, mask * tile))
            continue
        for v, alpha_map in enumerate(valuations):
            args = tuple(
                alpha_map[a.name] if isinstance(a, Alpha) else a for a in f.atom.args
            )
            facts.append((Atom(f.atom.predicate, args), mask << (v * n)))
    variants = _target_variants(annotated_eval(rules, facts, block * tile), target)
    disjuncts: list[Disjunct] = []
    seen = set()
    for v, alpha_map in enumerate(valuations):
        alpha_key = tuple(sorted(alpha_map.items(), key=repr))
        for bindings, mask in variants:
            here = (mask >> (v * n)) & block
            for j, w in enumerate(worlds):
                if not (here >> j) & 1 or (alpha_key, bindings, w) in seen:
                    continue
                seen.add((alpha_key, bindings, w))
                true_, false_ = _world_signs(w, xi_names)
                disjuncts.append(Disjunct(dict(alpha_map), dict(bindings), true_, false_))
                if len(disjuncts) >= _MAX_DISJUNCTS:
                    return Psi(disjuncts, truncated=True)
    return Psi(disjuncts)
