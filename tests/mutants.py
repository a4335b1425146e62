"""A fixed catalogue of seeded faults (mutants), and which semantic check of
`oracle_programs.py` sees each one (ROADMAP item 29; reporting only).

Each mutant replaces one attribute of a `ctlrepair` module while its
context manager is open and puts it back on exit.  Every `repair.analyze`
starts a fresh `pl.Memo`, so nothing derived under a mutant outlives it.

    PYTHONPATH=src python tests/mutants.py --programs 30

runs the checks below on the programs of the seeds from
`oracle_programs.FIRST_SEED` on, first unmutated, then under each mutant:

- ``AF``: `check`, the `AF(Exit(_))` oracle;
- ``R1``: `check_repairs` at depth 1 on the programs `check` found
  `Violated`;
- ``C1``-``C6``: `check_ctl`, the exact oracle, under each of ``CTL``;
- ``F1``-``F3``: `fact_check` under each of ``FACTS``.

No golden and no digest is run.  A check kills a mutant when its counts or
flagged seeds differ from the unmutated run on the same programs; the
checks already report known failures unmutated, so "0 wrong" is not the
reference.  It prints the kill matrix and each mutant that no check kills,
and exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from typing import Callable, ContextManager, NamedTuple
from unittest import mock

from ctlrepair import ctl
from ctlrepair import encode as enc
from ctlrepair import gwre as gw

import oracle_programs as op

CTL = ("AG(x <= 3)", "AG(x >= -2)", "AG(y != 2)", "EF(y = 2)", "AF(Exit(_))", "AF(x >= 1)")
FACTS = (None, "AG(x <= 3)", "AG(y != 2)")  # None: AF(Exit(_)), x, y and z havocked
CHECKS = ("AF", "R1") + tuple(f"C{i}" for i in range(1, len(CTL) + 1)) + tuple(
    f"F{i}" for i in range(1, len(FACTS) + 1)
)


class Mutant(NamedTuple):
    name: str
    fault: str
    apply: Callable[[], ContextManager]


def _decision_open():
    decision = enc._Encoder.decision

    def mutant(self, *args):
        found = decision(self, *args)
        return enc._OPEN if found is enc._FAILS else found

    return mock.patch.object(enc._Encoder, "decision", mutant)


def _exit_one_short():
    exit_event, after = gw._Builder._exit_event, gw._after

    def mutant(self, *args):
        # the exact exit event asks for the store after rf + 1 iterations
        with mock.patch.object(gw, "_after", lambda rf, steps, k: after(rf, steps, k - 1)):
            return exit_event(self, *args)

    return mock.patch.object(gw._Builder, "_exit_event", mutant)


def _leak_keeps_store():
    leak_event = gw._Builder._leak_event

    def mutant(self, join, proc, pi_g, assigned, rf, steps):
        ev = leak_event(self, join, proc, pi_g, assigned, rf, steps)
        return ev if steps else dataclasses.replace(ev, assigns=())

    return mock.patch.object(gw._Builder, "_leak_event", mutant)


def _lasso_ignores_p():
    step = "T(S, S1) :- T(S, S2), !P(S2), flow(S2, S1)."
    rules = [
        r._replace(body=tuple(l for l in r.body if l.positive)) if str(r) == step else r
        for r in ctl._RULES[ctl.AF]
    ]
    assert rules != ctl._RULES[ctl.AF], step
    return mock.patch.object(ctl, "_RULES", {**ctl._RULES, ctl.AF: rules})


def _always_feasible():
    return mock.patch.object(enc._Encoder, "feasible", lambda self, store: True)


def _guard_drops_last():
    guard_rule = enc._Encoder.guard_rule

    def mutant(self, prev, seg):
        before = len(self.rules)
        guard_rule(self, prev, seg)
        if len(self.rules) > before:
            rule, _ = self.rules.popitem()
            if len(rule.body) > 1:
                self.rules[rule._replace(body=rule.body[:-1])] = None
            else:
                self.add_flow(prev, seg.s)

    return mock.patch.object(enc._Encoder, "guard_rule", mutant)


MUTANTS = (
    Mutant("M1", "encode._Encoder.decision answers OPEN for FAILS", _decision_open),
    Mutant("M2", "gwre exact exit event one iteration short", _exit_one_short),
    Mutant("M3", "gwre leak event without steps havocs nothing", _leak_keeps_store),
    Mutant("M4", "ctl AF lasso relation T ignores P on a cycle", _lasso_ignores_p),
    Mutant("M5", "encode._Encoder.feasible says every store is feasible", _always_feasible),
    Mutant("M6", "encode._Encoder.guard_rule drops a guard's last body literal", _guard_drops_last),
)


def observe(seeds) -> dict[str, tuple]:
    """Per check of ``CHECKS``, its counts and flagged seeds on the programs
    of ``seeds``."""
    counts, wrong, violated = op.check(seeds)
    repairs, wrong_repairs, cut = op.check_repairs(violated)
    seen = {"AF": (counts, wrong), "R1": (repairs, [seed for seed, _ in wrong_repairs], cut)}
    for i, ctl_text in enumerate(CTL, 1):
        counts, _, wrong = op.check_ctl(seeds, ctl_text)
        seen[f"C{i}"] = (counts, wrong)
    for i, ctl_text in enumerate(FACTS, 1):
        counts, flags = op.fact_check(seeds, ctl_text)
        seen[f"F{i}"] = (counts, sorted(flags))
    return seen


def matrix(seeds, mutants=MUTANTS) -> dict[str, list[str]]:
    """Per mutant, the checks that kill it on the programs of ``seeds``."""
    reference = observe(seeds)
    kills = {}
    for mutant in mutants:
        with mutant.apply():
            seen = observe(seeds)
        kills[mutant.name] = [check for check in CHECKS if seen[check] != reference[check]]
    return kills


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--programs", type=int, default=30)
    args = parser.parse_args(argv)
    # a skipped sign search changes R1's counts; it need not be logged too
    logging.getLogger("ctlrepair.repair").setLevel(logging.ERROR)
    seeds = range(op.FIRST_SEED, op.FIRST_SEED + args.programs)
    kills = matrix(seeds)
    print(f"kill matrix on seeds {seeds.start}-{seeds.stop - 1} (x: the check's counts or flags moved)")
    print("checks: AF check, R1 check_repairs --depth 1, "
          + ", ".join(f"C{i} check_ctl {c}" for i, c in enumerate(CTL, 1)) + ", "
          + ", ".join(f"F{i} fact_check {c or 'AF(Exit(_))'}" for i, c in enumerate(FACTS, 1)))
    print(f"{'mutant':<8}" + "".join(f"{check:>4}" for check in CHECKS) + "  fault")
    for mutant in MUTANTS:
        marks = "".join(f"{'x' if check in kills[mutant.name] else '.':>4}" for check in CHECKS)
        print(f"{mutant.name:<8}{marks}  {mutant.fault}")
    alive = [name for name, killed in kills.items() if not killed]
    print(f"killed by no check: {' '.join(alive) if alive else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
