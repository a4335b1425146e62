"""Concrete oracle: sampled runs of the program with `frontend.run_cfg`.

A `Verified` verdict for AF(Exit(_)) and every best patch are checked here,
never by the tool's own re-verification.  Runs draw wildcard values from a
seeded generator, so the check is deterministic for a given seed.
"""

from __future__ import annotations

import random

from ctlrepair import frontend as fe
from workloads import EXIT

RUNS = 64
FUEL = 10_000
# AF(var=value): a run that ends without the value at exit is replayed step
# by step up to this many steps to find the value on the way
REPLAY_FUEL = 400


def _run(program: fe.Program, seed: str, max_steps: int):
    return fe.run_cfg(program, "main", {}, random.Random(seed), max_steps=max_steps)


def _reaches(program: fe.Program, seed: str, var: str, value: int) -> bool:
    """Whether the run drawn from `seed` has `var == value` after some step.
    `run_cfg` returns the store after `max_steps` steps, and runs with the
    same seed draw the same values, so the prefixes replay one run."""
    for steps in range(1, REPLAY_FUEL + 1):
        status, _, store = _run(program, seed, steps)
        if store.get(var) == value:
            return True
        if status != "fuel":
            return False
    return False


def check(source: str, goal, seed: str) -> str | None:
    """None if every sampled run satisfies AF(goal), else the reason."""
    program = fe.build_cfg(fe.parse(source))
    for r in range(RUNS):
        run_seed = f"{seed}/{r}"
        status, _, store = _run(program, run_seed, FUEL)
        if goal == EXIT:
            if status == "fuel":
                return f"concrete run {r} did not exit within {FUEL} steps"
        else:
            var, value = goal
            if status != "fuel" and store.get(var) == value:
                continue
            if not _reaches(program, run_seed, var, value):
                return f"concrete run {r} never reached {var}={value}"
    return None
