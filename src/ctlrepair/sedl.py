"""Symbolic execution of stratified Datalog.

The input facts may contain two kinds of unknowns:

* symbolic constants (``Alpha``) standing for argument values yet to be
  chosen; a valuation gives each one a value, which may be a placeholder
  constant (``#n1`` ...) standing for a fresh value; and
* sign symbols (``xi``) marking facts whose presence is undecided; a sign
  world is the set of signs it sets false.

A sign search (``SignSearch``) asks, as a disjunction of constraints over
the alphas and xis, exactly which of the given valuations and sign worlds
make a target atom derivable.  One fixpoint answers a whole batch of
searches over the same rules and target (``sign_batch``): every atom
carries a mask with one bit per triple of a search, a valuation and a sign
world (the provenance annotation of Green, Karvounarakis & Tannen,
"Provenance Semirings", PODS 2007, over sets of worlds), and each search
owns one contiguous block of bits.  Worlds never meet in the fixpoint, so
a block holds what the search alone would derive, and
``symbolic_execute`` reads one search's answer out of its block.
``compute_depend`` gives the constants that may meet at each predicate
position, from which a caller can draw its valuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    facts: Iterable[tuple[Atom, int]],
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


@dataclass
class SignSearch:
    """The facts of one search, and the valuations and sign worlds it
    inspects.  A valuation maps alpha names to values, and a world is the
    set of signs it sets false."""

    facts: list[SymbolicFact]
    valuations: list[dict[str, object]]
    worlds: list[frozenset[str]]


@dataclass
class _Block:
    """A search's place in a batch: its signs in the order met, its worlds
    in key order, and the first of its bits (None when it has more signs
    than the budget, so no bits)."""

    signs: list[str]
    worlds: list[frozenset[str]]
    offset: int | None


@dataclass
class SignBatch:
    """The searches of one fixpoint, with the target's variants over it."""

    searches: list[SignSearch]
    budget: int
    blocks: list[_Block]
    variants: list[tuple[tuple, int]]  # _target_variants over every block
    bits: int  # the width of the batch: the bits of every block together


def sign_batch(
    rules: list[Rule], target: Atom, searches: list[SignSearch], budget: int
) -> SignBatch:
    """One annotated fixpoint for every search with at most ``budget`` signs.

    The signs of a search are numbered in the order they are met on its
    facts, and its worlds are kept in the order of their key, the number
    whose bit ``i`` is set when sign ``i`` is true, so the result does not
    depend on the order of ``worlds``.  A name that no fact carries is
    ignored, and worlds with one key are one world.

    Searches get consecutive blocks in the order given.  Within a block
    starting at bit ``o``, bit ``o + v * n + j`` stands for valuation ``v``
    in the ``j``-th world (``n`` worlds).  One pass over the blocks builds
    the table of input facts, each with its mask, that ``annotated_eval``
    starts from: a plain fact holds in its sign's worlds in every valuation
    of its search, and a fact with alphas gets one instance per valuation,
    confined to that valuation's worlds.  An atom enters the table where it
    is first met, and an atom that several searches or instances share
    holds in the union of their bits.
    Joins intersect masks bit by bit and negation complements within the
    whole width, so every block derives what its search would alone.  A
    search over the budget gets no block, and no fixpoint runs when no
    search has a bit.
    """
    blocks: list[_Block] = []
    masks: dict[Atom, int] = {}
    offset = 0
    for search in searches:
        signs = list(dict.fromkeys(f.xi for f in search.facts if f.xi is not None))
        if len(signs) > budget:
            blocks.append(_Block(signs, [], None))
            continue
        met = frozenset(signs)
        worlds = sorted(
            {off & met for off in search.worlds},
            key=lambda off: sum(1 << i for i, name in enumerate(signs) if name not in off),
        )
        blocks.append(_Block(signs, worlds, offset))
        n = len(worlds)
        in_world = {
            name: sum(1 << j for j, off in enumerate(worlds) if name not in off) for name in signs
        }
        tile = sum(1 << (offset + v * n) for v in range(len(search.valuations)))
        for f in search.facts:
            mask = (1 << n) - 1 if f.xi is None else in_world[f.xi]
            if not any(isinstance(a, Alpha) for a in f.atom.args):
                masks[f.atom] = masks.get(f.atom, 0) | mask * tile
                continue
            for v, alpha_map in enumerate(search.valuations):
                args = tuple(alpha_map[a.name] if isinstance(a, Alpha) else a for a in f.atom.args)
                atom = Atom(f.atom.predicate, args)
                masks[atom] = masks.get(atom, 0) | mask << (offset + v * n)
        offset += len(search.valuations) * n
    variants = []
    if offset:
        variants = _target_variants(annotated_eval(rules, masks.items(), (1 << offset) - 1), target)
    return SignBatch(searches, budget, blocks, variants, offset)


def symbolic_execute(batch: SignBatch, i: int) -> Psi:
    """Constraint over alphas and signs under which the target holds, for
    the ``i``-th search of ``batch``; ``SignBudgetExceeded`` if it has more
    signs than the budget.

    Disjuncts are read valuation by valuation, then by the target variant's
    bindings, then world by world, and at most ``_MAX_DISJUNCTS`` of them;
    each lists its signs in the order they are met.
    """
    search, block = batch.searches[i], batch.blocks[i]
    if block.offset is None:
        raise SignBudgetExceeded(
            f"{len(block.signs)} sign symbols exceed the budget of {batch.budget}"
        )
    n = len(block.worlds)
    every = (1 << n) - 1
    window = (1 << (len(search.valuations) * n)) - 1
    variants = [
        (bindings, mine)
        for bindings, mask in batch.variants
        if (mine := (mask >> block.offset) & window)
    ]
    disjuncts: list[Disjunct] = []
    seen = set()
    for v, alpha_map in enumerate(search.valuations):
        alpha_key = tuple(sorted(alpha_map.items(), key=repr))
        for bindings, mask in variants:
            here = (mask >> (v * n)) & every
            for j, off in enumerate(block.worlds):
                if not (here >> j) & 1 or (alpha_key, bindings, off) in seen:
                    continue
                seen.add((alpha_key, bindings, off))
                true_ = [name for name in block.signs if name not in off]
                false_ = [name for name in block.signs if name in off]
                disjuncts.append(Disjunct(dict(alpha_map), dict(bindings), true_, false_))
                if len(disjuncts) >= _MAX_DISJUNCTS:
                    return Psi(disjuncts, truncated=True)
    return Psi(disjuncts)
