"""A repair round's valuations and sign-batch masks equal those of the
implementations they replaced (`round_reference.py`)."""

import random
from collections import Counter

import pytest

from ctlrepair import repair as rp
from ctlrepair import sedl
from ctlrepair.datalog_engine import Atom, DVar, Literal, Rule

import round_reference
from conftest import FIXTURES, PERFBENCH


def _random_valuation_case(rng: random.Random):
    """A shape, rules with literals of it and of other shapes, and the
    constants at each position; constants repeat, so combos repeat, and
    ``#n1`` may stand where the all-placeholder valuation would go."""
    pool = [0, 1, 2, -1, "y", "#n1", "#n2"]
    pred, arity = rng.choice("pq"), rng.randint(1, 3)
    rules = []
    for _ in range(rng.randint(0, 4)):
        body = []
        for _ in range(rng.randint(1, 3)):
            p, k = (pred, arity) if rng.random() < 0.7 else (rng.choice("pqr"), rng.randint(1, 3))
            args = tuple(DVar(f"V{i}") if rng.random() < 0.6 else rng.choice(pool) for i in range(k))
            body.append(Literal(Atom(p, args), rng.random() < 0.8))
        rules.append(Rule(Atom("t", ()), tuple(body)))
    consts_at = {
        (p, i): tuple(rng.sample(pool, rng.randint(0, 4)))
        for p in "pqr"
        for i in range(3)
        if rng.random() < 0.8
    }
    return (pred, arity), rules, consts_at


def test_valuations_equal_the_reference_on_random_shapes():
    rng = random.Random(7)
    hits = 0
    for _ in range(3000):
        shape, rules, consts_at = _random_valuation_case(rng)
        budget = rng.randint(1, 70)
        got, want = Counter(), Counter()
        vals = rp._alpha_valuations(shape, rules, consts_at, budget, got)
        assert vals == round_reference._alpha_valuations(shape, rules, consts_at, budget, want)
        assert got == want
        hits += got["alpha_budget_exceeded"]
    assert 100 < hits < 2900  # the budget is hit on some cases, not on all


def _sources() -> list[tuple[str, int]]:
    """(source, depth): the fixtures that analyse at depths 1 and 2, then
    ``repair-deep`` seeds 1-3 at depth 2."""
    broken = ("bad_syntax.imp", "no_property.imp")
    fixtures = [p.read_text() for p in sorted(FIXTURES.glob("*.imp")) if p.name not in broken]
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads

        deep = [p.source for seed in (1, 2, 3) for p in workloads.generate("repair-deep", seed)]
    return [(s, depth) for s in fixtures for depth in (1, 2)] + [(s, 2) for s in deep]


def test_sign_batch_masks_equal_the_reference(monkeypatch):
    annotated_eval, sign_batch = sedl.annotated_eval, sedl.sign_batch
    passed, rounds = [], []

    def capturing(rules, facts, full):
        passed.append(list(facts))
        return annotated_eval(rules, passed[-1], full)

    def recording(rules, target, searches, budget):
        passed.clear()
        batch = sign_batch(rules, target, searches, budget)
        rounds.append((batch, passed[0] if passed else None))
        return batch

    monkeypatch.setattr(sedl, "annotated_eval", capturing)
    monkeypatch.setattr(sedl, "sign_batch", recording)
    for source, depth in _sources():
        rp.repair_loop(source, rp.RepairConfig(depth=depth))
    assert len(rounds) > 50
    for batch, table in rounds:
        if not batch.bits:
            assert table is None  # no fixpoint for a batch without bits
            continue
        assert table == list(round_reference.masks(batch.searches, batch.blocks).items())
