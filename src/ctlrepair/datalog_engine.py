"""Stratified Datalog with negation.

A deliberately small engine: tagged constants (strings and integers), no
arithmetic in rule bodies, no existential heads, no aggregation.  Programs
are stratified by SCC condensation of the predicate dependency graph
(recursion through negation is rejected), then evaluated stratum by stratum
with a semi-naive fixpoint.  Iteration is insertion-ordered throughout so
dumps and evaluation results are deterministic.

One evaluator, ``_fixpoint``, serves both plain and world-annotated
evaluation.  Every atom carries a mask: an integer bitmask over a set of
worlds, bit w set when the atom is derivable in world w; ``full`` has
every world's bit set.  For ``sedl`` a world is a triple of a sign
search, an alpha valuation and a sign world, for ``repair``'s candidate
check one candidate.  Joins intersect masks, alternative derivations union
them, and negation complements a lower stratum's final mask within
``full``, so each world derives what it would alone.
Plain evaluation (``evaluate``) is the one-world case: every fact at mask
1 and ``full=1``.

The join, ``_firings``, is indexed.  Each rule's body is put in binding
order (positive literals first) and planned once per evaluation: every
literal gets the argument positions already bound when it is reached, its
constants and the variables of earlier positive literals.  A positive
literal then looks its bound values up in a hash table for its predicate
and those positions, built on first use and extended as facts are derived;
the semi-naive literal looks them up in the same kind of table over the
previous round's facts.  Indexing changes no result and no order: tables
list facts in the order they first entered the mask table, firings are
depth first in that order, and ``_match`` still checks every candidate, so
hash-equal constants of different types (``1`` and ``True``) stay apart.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Sequence

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DVar:
    """A rule variable (atom arguments are DVar | str-constant | int)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    args: tuple = ()
    # the dataclass hash, computed once: atoms are looked up far more often
    # than they are built
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild rather than restore: a str hash is only valid in the
        # process that computed it
        return Atom, (self.predicate, self.args)

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(_arg_str(a) for a in self.args)})"

    def is_ground(self) -> bool:
        return not any(isinstance(a, DVar) for a in self.args)


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"!{self.atom}"


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Literal, ...]

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(map(str, self.body))}."


def _arg_str(a) -> str:
    if isinstance(a, DVar):
        return a.name
    if isinstance(a, str):
        return f'"{a}"'
    return str(a)


class DatalogError(ValueError):
    pass


@dataclass
class DatalogProgram:
    rules: list[Rule] = field(default_factory=list)
    facts: list[Atom] = field(default_factory=list)

    def validate(self) -> None:
        """Enforce range restriction / safety and ground facts."""
        for fact in self.facts:
            if not fact.is_ground():
                raise DatalogError(f"non-ground fact: {fact}")
        for rule in self.rules:
            positive_vars: set[str] = set()
            for lit in rule.body:
                if lit.positive:
                    positive_vars |= {a.name for a in lit.atom.args if isinstance(a, DVar)}
            for a in rule.head.args:
                if isinstance(a, DVar) and a.name not in positive_vars:
                    raise DatalogError(f"unsafe head variable {a.name} in rule: {rule}")
            for lit in rule.body:
                if not lit.positive:
                    for a in lit.atom.args:
                        if isinstance(a, DVar) and a.name not in positive_vars:
                            raise DatalogError(
                                f"unsafe variable {a.name} in negative literal of: {rule}"
                            )

    def dump(self) -> str:
        """Text form: one clause per line, facts after rules."""
        lines = [str(r) for r in self.rules]
        lines += [f"{f}." for f in self.facts]
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<skip>\s+|%[^\n]*)"  # a comment runs to the end of its line
    r'|(?P<tok>:-|[(),.!]|"[^"]*"|-?\d+|[A-Za-z_][A-Za-z0-9_]*)'
    r"|(?P<bad>.)"
)
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a predicate or a variable


def _tokenize(text: str) -> list[str]:
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "skip":
            continue
        if m.lastgroup == "bad":
            raise DatalogError(f"bad character at offset {m.start()}: {m.group()!r}")
        tokens.append(m.group())
    return tokens


def parse_program(text: str) -> DatalogProgram:
    """Parse the engine's text dump format back into a program."""
    tokens = _tokenize(text)
    i = 0

    def peek() -> str:
        if i >= len(tokens):
            raise DatalogError("unexpected end of input")
        return tokens[i]

    def parse_atom():
        nonlocal i
        name = peek()
        if not _NAME.fullmatch(name):
            raise DatalogError(f"expected a predicate, found {name!r}")
        i += 1
        args = []
        if i < len(tokens) and tokens[i] == "(":
            i += 1
            while peek() != ")":
                if args:
                    if peek() != ",":
                        raise DatalogError(f"expected ',' or ')' in the arguments of {name}, found {peek()!r}")
                    i += 1
                tok = peek()
                if tok.startswith('"'):
                    args.append(tok[1:-1])
                elif re.fullmatch(r"-?\d+", tok):
                    args.append(int(tok))
                elif _NAME.fullmatch(tok):
                    args.append(DVar(tok))
                else:
                    raise DatalogError(f"expected an argument of {name}, found {tok!r}")
                i += 1
            i += 1
        return Atom(name, tuple(args))

    program = DatalogProgram()
    while i < len(tokens):
        head = parse_atom()
        if peek() == ".":
            i += 1
            program.facts.append(head)
            continue
        if peek() != ":-":
            raise DatalogError(f"expected ':-' or '.' after {head}")
        i += 1
        body = []
        while True:
            positive = True
            if peek() == "!":
                positive = False
                i += 1
            body.append(Literal(parse_atom(), positive))
            if peek() == ",":
                i += 1
                continue
            if peek() == ".":
                i += 1
                break
            raise DatalogError(f"expected ',' or '.' in rule body near token {peek()!r}")
        program.rules.append(Rule(head, tuple(body)))
    program.validate()
    return program


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


def stratify(program: DatalogProgram) -> list[list[str]]:
    """Order predicates into strata (lists of predicate names).

    One pass of Tarjan's algorithm over the predicate dependency graph, its
    roots and each predicate's dependencies in first-mention order, the DFS
    path kept as ``ctl.cycle_heads`` keeps it; a component is emitted after
    every component it depends on.  A negative edge inside a component
    (recursion through negation) is rejected.
    """
    deps: dict[str, list[str]] = {}  # each predicate's body predicates
    for fact in program.facts:
        deps.setdefault(fact.predicate, [])
    for rule in program.rules:
        targets = deps.setdefault(rule.head.predicate, [])
        for lit in rule.body:
            deps.setdefault(lit.atom.predicate, [])
            targets.append(lit.atom.predicate)

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    comp_of: dict[str, int] = {}  # an indexed predicate without one is on the stack
    stack: list[str] = []
    strata: list[list[str]] = []
    for root in deps:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        path = {root: iter(deps[root])}  # the DFS path, in order
        while path:
            node = next(reversed(path))
            dep = next(path[node], None)
            if dep is None:
                path.popitem()
                if path:
                    parent = next(reversed(path))
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    at = stack.index(node)
                    comp, stack[at:] = stack[at:], []
                    comp_of.update(dict.fromkeys(comp, len(strata)))
                    strata.append(sorted(comp))
            elif dep not in index:
                index[dep] = low[dep] = len(index)
                stack.append(dep)
                path[dep] = iter(deps[dep])
            elif dep not in comp_of:
                low[node] = min(low[node], index[dep])

    for rule in program.rules:
        for lit in rule.body:
            if not lit.positive and comp_of[lit.atom.predicate] == comp_of[rule.head.predicate]:
                raise DatalogError(
                    "not stratifiable: negation cycle through "
                    f"{rule.head.predicate} and {lit.atom.predicate}"
                )
    return strata


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _match(atom: Atom, fact: Atom, env: dict[str, object]) -> dict[str, object] | None:
    if atom.predicate != fact.predicate or len(atom.args) != len(fact.args):
        return None
    out = env
    for pat, val in zip(atom.args, fact.args):
        if isinstance(pat, DVar):
            bound = out.get(pat.name, _UNSET)
            if bound is _UNSET:
                if out is env:
                    out = dict(env)
                out[pat.name] = val
            elif bound != val or type(bound) is not type(val):
                return None
        elif pat != val or type(pat) is not type(val):
            return None
    return out


_UNSET = object()


def _instantiate(atom: Atom, env: dict[str, object]) -> Atom:
    return Atom(
        atom.predicate,
        tuple(env[a.name] if isinstance(a, DVar) else a for a in atom.args),
    )


def _ordered_body(body: tuple[Literal, ...]) -> tuple[Literal, ...]:
    """Positive literals first so negatives are ground when checked."""
    return tuple(l for l in body if l.positive) + tuple(l for l in body if not l.positive)


def _binding_plan(body: tuple[Literal, ...]) -> tuple[tuple[Literal, tuple[int, ...], tuple], ...]:
    """Each literal of an ordered body with the argument positions bound
    when the join reaches it (its constants and the variables of earlier
    positive literals) and its arguments at those positions."""
    bound: set[str] = set()
    plan = []
    for lit in body:
        args = lit.atom.args
        positions = tuple(
            i for i, a in enumerate(args) if not isinstance(a, DVar) or a.name in bound
        )
        plan.append((lit, positions, tuple(args[i] for i in positions)))
        if lit.positive:
            bound |= {a.name for a in args if isinstance(a, DVar)}
    return tuple(plan)


class _Index:
    """Facts per predicate in insertion order, and per predicate the hash
    tables built on first lookup: for a tuple of bound argument positions,
    the values at those positions -> the facts holding them, in insertion
    order.  ``add`` appends a fact to its predicate's list and tables."""

    def __init__(self, facts) -> None:
        self.by_pred: dict[str, list[Atom]] = {}
        self.tables: dict[str, dict[tuple[int, ...], dict[tuple, list[Atom]]]] = {}
        for fact in facts:
            self.by_pred.setdefault(fact.predicate, []).append(fact)

    def add(self, fact: Atom) -> None:
        self.by_pred.setdefault(fact.predicate, []).append(fact)
        tables = self.tables.get(fact.predicate)
        if tables:
            for positions, table in tables.items():
                _index_fact(table, positions, fact)

    def lookup(self, predicate: str, positions: tuple[int, ...], key: tuple) -> Sequence[Atom]:
        if not positions:
            return self.by_pred.get(predicate, ())
        tables = self.tables.get(predicate)
        if tables is None:
            tables = self.tables[predicate] = {}
        table = tables.get(positions)
        if table is None:
            table = tables[positions] = {}
            for fact in self.by_pred.get(predicate, ()):
                _index_fact(table, positions, fact)
        return table.get(key, ())

    def table_count(self) -> int:
        return sum(map(len, self.tables.values()))


def _index_fact(table: dict[tuple, list[Atom]], positions: tuple[int, ...], fact: Atom) -> None:
    # positions ascend; a shorter fact matches no literal using this table
    if len(fact.args) > positions[-1]:
        table.setdefault(tuple(fact.args[i] for i in positions), []).append(fact)


def _firings(
    plan: tuple[tuple[Literal, tuple[int, ...], tuple], ...],
    delta_at: int,
    delta: _Index | None,
    facts: _Index,
    masks: dict[Atom, int],
    full: int,
) -> list[tuple[dict[str, object], int]]:
    """Every (environment, nonzero mask) satisfying the planned body, depth
    first in fact order; plan[delta_at] must match a ``delta`` fact
    (semi-naive restriction), -1 disables it.  A positive literal looks up
    the facts agreeing with its bound positions; ``_match`` then checks each
    one, which also keeps apart hash-equal constants such as 1 and True."""
    results: list[tuple[dict[str, object], int]] = []
    stack: list[tuple[int, dict[str, object], int]] = [(0, {}, full)]
    while stack:
        idx, env, mask = stack.pop()
        if mask == 0:
            continue
        if idx == len(plan):
            results.append((env, mask))
            continue
        lit, positions, key_args = plan[idx]
        if lit.positive:
            key = tuple(env[a.name] if isinstance(a, DVar) else a for a in key_args)
            index = delta if idx == delta_at else facts
            children = []
            for fact in index.lookup(lit.atom.predicate, positions, key):
                env2 = _match(lit.atom, fact, env)
                if env2 is not None:
                    children.append((idx + 1, env2, mask & masks[fact]))
            stack.extend(reversed(children))
        else:
            ground = _instantiate(lit.atom, env)
            stack.append((idx + 1, env, mask & (full & ~masks.get(ground, 0))))
    return results


def _fixpoint(rules: Sequence[Rule], masks: dict[Atom, int], full: int) -> dict[Atom, int]:
    """Extend ``masks`` (initial fact -> world mask) to the least fixpoint.

    Strata are evaluated in order, each by semi-naive rounds in which one
    in-stratum positive literal must match a fact whose mask grew in the
    previous round.  A body's mask is the intersection of its positive
    facts' masks and the complements (within ``full``) of its negated
    atoms' masks, which are final because they lie in a lower stratum; a
    head's mask is the union over its derivations.

    Joins use the rule's binding plan (``_binding_plan``) and hash indexes
    (``_Index``) over all facts and, per round, over the previous round's
    facts; neither changes the order of derivation.  Firings are depth
    first in fact order, where fact order is the order in which facts first
    entered ``masks``, and each round collects a rule's firings before
    adding them.  An atom enters ``masks`` (insertion-ordered, updated in
    place and returned) when it is first derived.
    """
    n_input = len(masks)
    facts = _Index(masks)
    # first-insertion position: a round's delta is visited in this order,
    # since a grown delta fact can be older than facts grown before it
    seq = {fact: i for i, fact in enumerate(masks)}

    def put(fact: Atom, mask: int) -> bool:
        old = masks.get(fact)
        if old is None:
            masks[fact] = mask
            seq[fact] = len(seq)
            facts.add(fact)
            return mask != 0
        new = old | mask
        if new != old:
            masks[fact] = new
            return True
        return False

    rules = [Rule(r.head, _ordered_body(r.body)) for r in rules]
    strata = stratify(DatalogProgram(rules=rules, facts=list(masks)))
    stratum_of = {p: i for i, comp in enumerate(strata) for p in comp}
    rounds = delta_tables = 0

    for level, comp in enumerate(strata):
        level_rules = [
            (r.head, _binding_plan(r.body)) for r in rules if stratum_of[r.head.predicate] == level
        ]
        if not level_rules:
            continue
        in_stratum = set(comp)
        grown: set[Atom] = set()
        for head, plan in level_rules:
            for env, mask in _firings(plan, -1, None, facts, masks, full):
                fact = _instantiate(head, env)
                if put(fact, mask):
                    grown.add(fact)
        while grown:
            rounds += 1
            delta = _Index(sorted(grown, key=seq.__getitem__))
            grown = set()
            for head, plan in level_rules:
                for pos, (lit, _, _) in enumerate(plan):
                    if not lit.positive or lit.atom.predicate not in in_stratum:
                        continue
                    for env, mask in _firings(plan, pos, delta, facts, masks, full):
                        fact = _instantiate(head, env)
                        if put(fact, mask):
                            grown.add(fact)
            delta_tables += delta.table_count()
    log.debug(
        "fixpoint: %d rules, %d strata, %d input facts, %d derived, "
        "%d semi-naive rounds, %d index tables",
        len(rules), len(strata), n_input, len(masks) - n_input,
        rounds, facts.table_count() + delta_tables,
    )
    return masks


def evaluate(program: DatalogProgram) -> set[Atom]:
    """All ground atoms derivable from the program (EDB plus IDB): the
    one-world fixpoint, every fact at mask 1."""
    program.validate()
    return set(_fixpoint(program.rules, dict.fromkeys(program.facts, 1), 1))
