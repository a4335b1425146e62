"""Symbolic execution of stratified Datalog.

The input facts may contain two kinds of unknowns:

* symbolic constants (``Alpha``) standing for argument values yet to be
  chosen; a valuation gives each one a value, which may be a placeholder
  constant (``#n1`` ...) standing for a fresh value; and
* sign symbols (``xi``) marking facts whose presence is undecided; a sign
  world is the set of signs it sets false.

``symbolic_execute`` characterizes, as a disjunction of constraints over the
alphas and xis, exactly which of the given valuations and sign worlds make a
target atom derivable.  The caller names both.  One fixpoint answers them
all: every atom carries a mask with one bit per pair of a valuation and a
sign world (the provenance annotation of Green, Karvounarakis & Tannen,
"Provenance Semirings", PODS 2007, over sets of worlds).  ``compute_depend``
gives the constants that may meet at each predicate position, from which a
caller can draw its valuations.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def compute_depend(rules: list[Rule], facts: list[Atom]) -> dict[tuple[str, int], tuple]:
    """Constants that may matter at each predicate position, sorted by
    ``repr``.

    Seeds: the arguments of every fact and the constants written in rule
    literals.  The seeds then propagate between positions connected by a
    shared variable in some rule (head included); variables under negation
    participate too, so the result over-approximates the positive-only
    closure.
    """
    find = _position_classes(rules)
    seeds: dict[tuple[str, int], set] = {}
    positions: set[tuple[str, int]] = set()
    atoms = list(facts) + [a for r in rules for a in (r.head, *(lit.atom for lit in r.body))]
    for atom in atoms:
        for i, a in enumerate(atom.args):
            positions.add((atom.predicate, i))
            if not isinstance(a, DVar):
                seeds.setdefault(find((atom.predicate, i)), set()).add(a)
    ordered = {root: tuple(sorted(consts, key=repr)) for root, consts in seeds.items()}
    return {pos: ordered.get(find(pos), ()) for pos in positions}


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
    facts: list[SymbolicFact],
    target: Atom,
    budget: int,
    valuations: list[dict[str, object]],
    worlds: list[frozenset[str]],
) -> Psi:
    """Constraint over alphas and signs under which the target holds.

    A valuation maps alpha names to values, and a world is the set of signs
    it sets false; only the given valuations and worlds are inspected.  The
    signs are numbered in the order they are met on ``facts``, and the
    worlds are read in the order of their key, the number whose bit ``i``
    is set when sign ``i`` is true, so the result does not depend on the
    order of ``worlds``.  A name that no fact carries is ignored, and
    worlds with one key are one world.  More than ``budget`` signs raise
    ``SignBudgetExceeded``.

    One annotated fixpoint answers every valuation: bit ``v * n + j`` of a
    mask stands for valuation ``v`` in the ``j``-th world (``n`` worlds).
    A plain fact holds in its sign's worlds in every valuation's block, and
    a fact with alphas gets one instance per valuation, confined to that
    valuation's block.  Disjuncts are read valuation by valuation, then by
    the target variant's bindings, then world by world; each lists its
    signs in the order they are met.
    """
    signs = list(dict.fromkeys(f.xi for f in facts if f.xi is not None))
    if len(signs) > budget:
        raise SignBudgetExceeded(f"{len(signs)} sign symbols exceed the budget of {budget}")
    met = frozenset(signs)
    worlds = sorted(
        {off & met for off in worlds},
        key=lambda off: sum(1 << i for i, name in enumerate(signs) if name not in off),
    )
    n = len(worlds)
    block = (1 << n) - 1
    tile = sum(1 << (v * n) for v in range(len(valuations)))  # bit 0 of each block
    in_world = {
        name: sum(1 << j for j, off in enumerate(worlds) if name not in off)
        for name in signs
    }
    masked: list[tuple[Atom, int]] = []
    for f in facts:
        mask = block if f.xi is None else in_world[f.xi]
        if not any(isinstance(a, Alpha) for a in f.atom.args):
            masked.append((f.atom, mask * tile))
            continue
        for v, alpha_map in enumerate(valuations):
            args = tuple(
                alpha_map[a.name] if isinstance(a, Alpha) else a for a in f.atom.args
            )
            masked.append((Atom(f.atom.predicate, args), mask << (v * n)))
    variants = _target_variants(annotated_eval(rules, masked, block * tile), target)
    disjuncts: list[Disjunct] = []
    seen = set()
    for v, alpha_map in enumerate(valuations):
        alpha_key = tuple(sorted(alpha_map.items(), key=repr))
        for bindings, mask in variants:
            here = (mask >> (v * n)) & block
            for j, off in enumerate(worlds):
                if not (here >> j) & 1 or (alpha_key, bindings, off) in seen:
                    continue
                seen.add((alpha_key, bindings, off))
                true_ = [name for name in signs if name not in off]
                false_ = [name for name in signs if name in off]
                disjuncts.append(Disjunct(dict(alpha_map), dict(bindings), true_, false_))
                if len(disjuncts) >= _MAX_DISJUNCTS:
                    return Psi(disjuncts, truncated=True)
    return Psi(disjuncts)
