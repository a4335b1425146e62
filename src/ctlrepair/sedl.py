"""Symbolic execution of stratified Datalog.

The extensional database may contain two kinds of unknowns:

* symbolic constants (``Alpha``) standing for argument values yet to be
  chosen, approximated by finite domains plus placeholder constants
  (``#n1`` ...) representing fresh values; and
* sign symbols (``xi``) marking facts whose presence is undecided.

``symbolic_execute`` characterizes, as a disjunction of constraints over the
alphas and xis, exactly which instantiations and fact subsets make a target
atom derivable (or non-derivable, in "disable" mode).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .datalog_engine import (
    Atom,
    DatalogProgram,
    DVar,
    Literal,
    Rule,
    _fixpoint,
    evaluate,
)


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
# Valuation pruning via a widened meta-program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Valuation:
    alpha: tuple[tuple[str, object], ...]  # alpha name -> chosen value
    bindings: tuple[tuple[str, object], ...]  # placeholder -> bound constant

    def alpha_dict(self) -> dict[str, object]:
        return dict(self.alpha)

    def bindings_dict(self) -> dict[str, object]:
        return dict(self.bindings)


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


def prune_valuations(
    rules: list[Rule],
    edb: SymbolicEdb,
    targets: list[Atom],
    domains: dict[Alpha, list] | None = None,
) -> list[Valuation]:
    """Alpha instantiations that can possibly derive a target atom.

    Every predicate is widened with one column per alpha plus a definiteness
    indicator (0 = holds regardless of signs, 1 = requires a sign-marked
    fact).  Negative literals require the absence of any definite fact and
    split on whether a sign-marked fact could be present.  Valuations are
    read off the widened target rows, binding placeholders as needed.
    """
    alphas = edb.alphas()
    m = len(alphas)
    if m == 0:
        return [Valuation((), ())]
    if domains is None:
        dep = compute_depend(rules, edb)
        domains = {a: domain_of(a, dep, edb) for a in alphas}
    cvars = tuple(DVar(f"__C{i + 1}") for i in range(m))
    dom_lits = tuple(
        Literal(Atom(f"__dom{i + 1}", (cvars[i],))) for i in range(m)
    )

    def widen_args(args, alpha_cols, ind):
        new_args = tuple(
            cvars[alphas.index(a)] if isinstance(a, Alpha) else a for a in args
        )
        return new_args + alpha_cols + (ind,)

    meta = DatalogProgram()
    for i, a in enumerate(alphas):
        for value in domains[a]:
            meta.facts.append(Atom(f"__dom{i + 1}", (value,)))
    for f in edb.facts:
        ind = 1 if f.xi is not None else 0
        head = Atom(f.atom.predicate, widen_args(f.atom.args, cvars, ind))
        meta.rules.append(Rule(head, dom_lits))
    fresh = itertools.count(1)
    for rule in rules:
        negatives = [lit for lit in rule.body if not lit.positive]
        for choice in itertools.product((0, 1), repeat=len(negatives)):
            # A head is definite (indicator 0) only when every positive
            # premise is definite and no negation relied on the absence of a
            # merely optional fact; any contingent premise makes the head
            # itself optional (indicator 1), so later negations over it stay
            # sound.
            head_inds = (1,) if any(choice) else (0, 1)
            for head_ind in head_inds:
                body: list[Literal] = []
                ni = 0
                for lit in rule.body:
                    if lit.positive:
                        ind = 0 if head_ind == 0 else DVar(f"__I{next(fresh)}")
                        body.append(
                            Literal(Atom(lit.atom.predicate, widen_args(lit.atom.args, cvars, ind)))
                        )
                    else:
                        definite = Atom(lit.atom.predicate, widen_args(lit.atom.args, cvars, 0))
                        optional = Atom(lit.atom.predicate, widen_args(lit.atom.args, cvars, 1))
                        body.append(Literal(definite, positive=False))
                        if choice[ni]:
                            body.append(Literal(optional))
                        else:
                            body.append(Literal(optional, positive=False))
                        ni += 1
                body.extend(dom_lits)
                head = Atom(rule.head.predicate, widen_args(rule.head.args, cvars, head_ind))
                meta.rules.append(Rule(head, tuple(body)))
    idb = evaluate(meta)
    out: list[Valuation] = []
    seen = set()
    for target in targets:
        arity = len(target.args)
        for fact in idb:
            if fact.predicate != target.predicate or len(fact.args) != arity + m + 1:
                continue
            bindings = _unify_args(fact.args[:arity], target.args)
            if bindings is None:
                continue
            alpha_map = tuple(
                (alphas[i].name, fact.args[arity + i]) for i in range(m)
            )
            val = Valuation(alpha_map, tuple(sorted(bindings.items())))
            key = (alpha_map, val.bindings)
            if key not in seen:
                seen.add(key)
                out.append(val)
    out.sort(key=repr)
    return out


# ---------------------------------------------------------------------------
# Sign search via truth-table-annotated evaluation
# ---------------------------------------------------------------------------


def _pattern(i: int, k: int) -> int:
    """Mask over 2^k worlds selecting those where sign bit ``i`` is true."""
    block = 1 << i
    unit = ((1 << block) - 1) << block
    out = 0
    for j in range(1 << (k - i - 1)):
        out |= unit << (j * 2 * block)
    return out


def annotated_eval(
    rules: list[Rule],
    plain_facts: list[Atom],
    xi_facts: list[tuple[Atom, int]],
    k: int,
) -> tuple[dict[Atom, int], int]:
    """Fixpoint where every atom carries the set of sign-worlds deriving it.

    A world is one of the 2^k assignments to the sign symbols, encoded as a
    bit position; an atom's annotation is an integer bitmask over worlds.
    Plain facts hold in every world, the fact of sign ``i`` in the worlds
    where bit ``i`` is set.
    """
    full = (1 << (1 << k)) - 1
    masks = dict.fromkeys(plain_facts, full)
    for atom, i in xi_facts:
        masks[atom] = masks.get(atom, 0) | _pattern(i, k)
    return _fixpoint(rules, masks, full), full


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


def _instantiate_edb(edb: SymbolicEdb, alpha_map: dict[str, object]):
    plain: list[Atom] = []
    xi_facts: list[tuple[Atom, str]] = []
    for f in edb.facts:
        args = tuple(
            alpha_map[a.name] if isinstance(a, Alpha) else a for a in f.atom.args
        )
        atom = Atom(f.atom.predicate, args)
        if f.xi is None:
            plain.append(atom)
        else:
            xi_facts.append((atom, f.xi))
    return plain, xi_facts


def _target_variants(masks: dict[Atom, int], target: Atom):
    """Derived atoms unifying with the target up to placeholder binding."""
    out = []
    for fact, mask in masks.items():
        if fact.predicate != target.predicate or len(fact.args) != len(target.args):
            continue
        bindings = _unify_args(fact.args, target.args)
        if bindings is not None and mask:
            out.append((bindings, mask))
    return out


def symbolic_execute(
    rules: list[Rule],
    edb: SymbolicEdb,
    target: Atom,
    mode: str = "enable",
    budget: int = 16,
    domains: dict[Alpha, list] | None = None,
    valuations: list[Valuation] | None = None,
    candidate_worlds: list[int] | None = None,
    max_disjuncts: int = 4096,
) -> Psi:
    """Constraint over alphas and signs under which the target holds.

    With ``candidate_worlds`` the sign search inspects only the given worlds
    (an intentional restriction used by callers that bound edit sizes);
    otherwise every world is enumerated, ascending.
    """
    xi_names: list[str] = edb.xis()
    k = len(xi_names)
    if k > budget:
        raise SignBudgetExceeded(f"{k} sign symbols exceed the budget of {budget}")
    if valuations is None:
        valuations = prune_valuations(rules, edb, [target], domains)
    disjuncts: list[Disjunct] = []
    seen = set()
    truncated = False
    for val in valuations:
        alpha_map = val.alpha_dict()
        plain, xi_facts = _instantiate_edb(edb, alpha_map)
        indexed = [(atom, xi_names.index(name)) for atom, name in xi_facts]
        masks, full = annotated_eval(rules, plain, indexed, k)
        variants = _target_variants(masks, target)
        if mode == "disable":
            all_mask = 0
            for _, m in variants:
                all_mask |= m
            variants = [({}, full & ~all_mask)]
        for bindings, mask in variants:
            merged = dict(val.bindings_dict())
            merged.update(bindings)
            worlds = candidate_worlds if candidate_worlds is not None else range(1 << k)
            for w in worlds:
                if not (mask >> w) & 1:
                    continue
                true_, false_ = _world_signs(w, xi_names)
                key = (
                    tuple(sorted(alpha_map.items(), key=repr)),
                    tuple(sorted(merged.items(), key=repr)),
                    w,
                )
                if key in seen:
                    continue
                seen.add(key)
                disjuncts.append(Disjunct(dict(alpha_map), merged, true_, false_))
                if len(disjuncts) >= max_disjuncts:
                    truncated = True
                    break
            if truncated:
                break
        if truncated:
            break
    return Psi(disjuncts, truncated)
