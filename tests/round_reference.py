"""Earlier implementations of two steps of a repair round, kept verbatim as
references for the code that replaced them (`test_round_reference.py`).

* ``_alpha_valuations`` is `repair._alpha_valuations` as a closure that
  pushes each new valuation until the budget is hit.
* ``_placed`` and ``masks`` are how `sedl.sign_batch` gave
  `sedl.annotated_eval` its input: a generator of (fact, mask) pairs per
  block, unioned by atom in the order met.
"""

from __future__ import annotations

import itertools

from ctlrepair import sedl
from ctlrepair.datalog_engine import Atom, DVar
from ctlrepair.repair import _body_literals
from ctlrepair.sedl import Alpha, SignSearch, _Block


def _alpha_valuations(shape, rules, consts_at, budget: int, counts) -> list[dict[str, object]]:
    """Instantiations worth trying: unify the injected fact against every
    rule literal of its shape, filling variable positions from the constants
    known to interact there (``consts_at``, from ``sedl.compute_depend``).
    At most ``budget`` of them: one that drops any adds one to ``counts``'
    ``alpha_budget_exceeded``."""
    pred, arity = shape
    vals: list[dict[str, object]] = []
    seen = set()
    dropped = False

    def push(args: tuple) -> None:
        nonlocal dropped
        key = tuple(args)
        if key in seen:
            return
        if len(vals) >= budget:
            dropped = True
            return
        seen.add(key)
        vals.append({f"alpha{i + 1}": a for i, a in enumerate(args)})

    for lit in _body_literals(rules):
        if lit.predicate != pred or len(lit.args) != arity:
            continue
        domains = [
            consts_at.get((pred, i), ()) if isinstance(a, DVar) else [a]
            for i, a in enumerate(lit.args)
        ]
        for combo in itertools.product(*domains):
            push(combo)
    push(tuple(sedl.placeholder(i + 1) for i in range(arity)))
    if dropped:
        counts["alpha_budget_exceeded"] += 1
    return vals


def _placed(search: SignSearch, block: _Block):
    """The facts of ``search``, each with its mask within ``block``."""
    n = len(block.worlds)
    every = (1 << n) - 1
    tile = sum(1 << (block.offset + v * n) for v in range(len(search.valuations)))
    in_world = {
        name: sum(1 << j for j, off in enumerate(block.worlds) if name not in off)
        for name in block.signs
    }
    for f in search.facts:
        mask = every if f.xi is None else in_world[f.xi]
        if not any(isinstance(a, Alpha) for a in f.atom.args):
            yield f.atom, mask * tile
            continue
        for v, alpha_map in enumerate(search.valuations):
            args = tuple(alpha_map[a.name] if isinstance(a, Alpha) else a for a in f.atom.args)
            yield Atom(f.atom.predicate, args), mask << (block.offset + v * n)


def masks(searches: list[SignSearch], blocks: list[_Block]) -> dict[Atom, int]:
    """The input facts of a sign batch's fixpoint, each with its mask."""
    facts = (
        fact
        for search, block in zip(searches, blocks)
        if block.offset is not None
        for fact in _placed(search, block)
    )
    masks: dict[Atom, int] = {}
    for atom, mask in facts:
        masks[atom] = masks.get(atom, 0) | mask
    return masks
