"""Random-program oracle: no `Verified` for AF(Exit(_)) may have a run that
does not exit.

Each seed gives one program over `int x = *; int y = *; int z = *;` made of
assignments and `if`/`while` statements nested to depth 2, with guarded
`break` and `return` statements in `while` bodies and some `while (1)`
loops that open with a guarded `break`, then `return;`, under
`AF(Exit(_))`.  The program's verdict (`repair.analyze`, what
`ctlrepair verify` runs) is checked against sampled concrete runs
(`frontend.run_cfg`, wildcards drawn from a seeded generator): a `Verified`
program with a run that runs out of fuel is a wrong `Verified`.  A
`Violated` or `Unknown` program is never wrong here, since a divergent run
may lie outside the sample.

    PYTHONPATH=src python tests/oracle_programs.py --programs 2000

prints the verdict counts against the concrete runs, every wrong `Verified`
with its seed and source, and exits 1 if there is one.  With `--repair` it
also runs `repair_loop` at depth 1 (what `ctlrepair repair` runs; `--depth
N` for N rounds) on every `Violated` program, and runs the same sampled
runs on every patch of a `Repaired` result: a patched program with a run
that does not exit is a wrong `Repaired`, and also makes the exit status 1.
It prints how many `Unrepaired` results had a sign search cut by the sign
budget (`--xi-budget`).  The seed of each program, or repair, that ran
past ``TIMEOUT_S`` goes to stderr.

    PYTHONPATH=src python tests/oracle_programs.py --programs 200 --ctl 'AG(x <= 3)'

replaces the property, initialises `x`, `y` and `z` to 0, and prints one
`<seed> <verdict>` line per program, then the verdict counts, so that the
output of two checkouts can be diffed.  It also decides exactly each
program without `*`: such a program has one run, which exits or repeats a
(node, store) within ``FUEL`` steps or is left undecided, and on one path
`A` and `E` coincide, so labelling that lasso with the classic CTL
fixpoints (`explicit_check`) gives the verdict of every property.  The
property is read from the run's first step at which `x`, `y` and `z` are
all set.  On stderr it prints how many programs it decided, how many it
left to sampling (they draw values, or their run outlasts the fuel), and
the seeds of each wrong `Verified` and wrong `Violated`.  It never fails:
the encoding still has known soundness holes under other properties
(ROADMAP items 10 and 23).

    PYTHONPATH=src python tests/oracle_programs.py --programs 200 --facts --ctl 'AG(x <= 3)'

checks the encoder's output instead of its verdicts (`fact_check`): every
comparison a state claims must hold on each sampled run's visits that map
to that state, and consecutive visits must have a derived `flow`.  Without
`--ctl` it checks the `AF(Exit(_))` programs.  It prints the counts of
visits, of visits that map to no state and of flow pairs checked, then
each flagged program with its state, false claim and store, all on
stderr, and never fails.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import signal
import sys
from collections import Counter

from ctlrepair import ctl
from ctlrepair import frontend as fe
from ctlrepair import pure_logic as pl
from ctlrepair import repair as rp
from ctlrepair.datalog_engine import DatalogProgram, evaluate

VARS = ("x", "y", "z")
OPS = ("<", "<=", ">", ">=", "==", "!=")
RUNS = 16
FUEL = 2_000
TIMEOUT_S = 10.0
FIRST_SEED = 1000
FACT_STEPS = 400  # the steps of a run that the fact check follows
_STEPS = (fe.Assign, fe.Call, fe.Prune, fe.Return)  # statement, guard and return nodes


def _cond(rng: random.Random) -> str:
    v = rng.choice(VARS)
    other = rng.choice([w for w in VARS if w != v] + [str(rng.randint(-3, 3))] * 2)
    return f"{v} {rng.choice(OPS)} {other}"


def _assign(rng: random.Random) -> str:
    v, w = rng.sample(VARS, 2)
    rhs = rng.choice(
        [f"{v} + {rng.choice([1, 2])}", f"{v} - {rng.choice([1, 2])}", w,
         str(rng.randint(-3, 3)), "*", f"{v} + {w}", f"{v} - {w}"]
    )
    return f"{v} = {rhs};"


def _block(rng: random.Random, depth: int, indent: str, in_loop: bool = False) -> list[str]:
    lines: list[str] = []
    for _ in range(rng.randint(1, 3)):
        kinds = ["assign", "assign", "if", "while"] if depth < 2 else ["assign", "assign"]
        kind = rng.choice(kinds + ["break", "return"] if in_loop else kinds)
        if kind == "assign":
            lines.append(indent + _assign(rng))
            continue
        if kind in ("break", "return"):
            lines.append(indent + f"if ({_cond(rng)}) {{ {kind}; }}")
            continue
        if kind == "while" and rng.random() < 0.25:
            # a loop that only the guarded breaks and returns in it leave
            lines.append(indent + "while (1) {")
            lines.append(indent + f"  if ({_cond(rng)}) {{ break; }}")
            lines += _block(rng, depth + 1, indent + "  ", True)
            lines.append(indent + "}")
            continue
        head = f"{kind} ({_cond(rng)}) {{"
        lines.append(indent + head)
        inner = in_loop or kind == "while"
        lines += _block(rng, depth + 1, indent + "  ", inner)
        if kind == "if" and rng.random() < 0.5:
            lines.append(indent + "} else {")
            lines += _block(rng, depth + 1, indent + "  ", inner)
        lines.append(indent + "}")
    return lines


def program(seed: int, ctl: str | None = None) -> str:
    """The generated program of ``seed``: under `AF(Exit(_))` with `x`, `y`
    and `z` havocked, or under ``ctl`` with them initialised to 0."""
    rng = random.Random(seed)
    init = "*" if ctl is None else "0"
    body = [f"  int {v} = {init};" for v in VARS] + _block(rng, 0, "  ")
    header = f"//@ ctl: {ctl or 'AF(Exit(_))'}"
    return "\n".join([header, "void main() {", *body, "  return;", "}", ""])


def _timeout(signum, frame):
    raise TimeoutError


def _limited(call):
    """``call()``, or None when it runs past ``TIMEOUT_S``."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        return call()
    except TimeoutError:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def verdict(source: str) -> str:
    """`holds`, `violated`, `unknown` or `timeout`."""
    analysis = _limited(lambda: rp.analyze(source))
    if analysis is None:
        return "timeout"
    if analysis.unknown:
        return "unknown"
    return "holds" if analysis.holds else "violated"


def diverges(source: str, seed: int) -> bool:
    """Whether one of ``RUNS`` sampled runs does not exit within ``FUEL``."""
    cfg = fe.build_cfg(fe.parse(source))
    return any(
        fe.run_cfg(cfg, "main", {}, random.Random(f"{seed}/{r}"), max_steps=FUEL)[0] == "fuel"
        for r in range(RUNS)
    )


def check(seeds) -> tuple[Counter, list[int], list[int]]:
    """Counts of (verdict, some run diverges), the seeds whose `Verified`
    has a run that does not exit, and the seeds found `Violated`.  The seed
    of each program that runs past ``TIMEOUT_S`` goes to stderr."""
    counts: Counter = Counter()
    wrong: list[int] = []
    violated: list[int] = []
    for seed in seeds:
        source = program(seed)
        found, bad = verdict(source), diverges(source, seed)
        counts[found, bad] += 1
        if found == "timeout":
            print(f"timeout, seed {seed}", file=sys.stderr)
        if found == "holds" and bad:
            wrong.append(seed)
        if found == "violated":
            violated.append(seed)
    return counts, wrong, violated


def check_repairs(seeds, depth: int = 1) -> tuple[Counter, list[tuple[int, str]], int]:
    """Counts of the `repair --depth depth` verdicts (`timeout` past
    ``TIMEOUT_S``) on the programs of ``seeds``, the (seed, patched source)
    pairs of `Repaired` patches with a run that does not exit, and how many
    `Unrepaired` results had a sign search cut by the sign budget.  The seed
    of each repair that runs past ``TIMEOUT_S`` goes to stderr."""
    counts: Counter = Counter()
    wrong: list[tuple[int, str]] = []
    cut = 0
    for seed in seeds:
        result = _limited(lambda: rp.repair_loop(program(seed), rp.RepairConfig(depth=depth)))
        found = "timeout" if result is None else result.verdict
        counts[found] += 1
        if found == "timeout":
            print(f"repair timeout, seed {seed}", file=sys.stderr)
        if found == "Repaired":
            wrong += [(seed, p.source) for p in result.patches if diverges(p.source, seed)]
        if found == "Unrepaired" and result.stats.get("sign_budget_exceeded"):
            cut += 1
    return counts, wrong, cut


def explicit_check(phi, states, succ, holds, unknown: bool = False) -> set:
    """The states of an explicit structure at which the core formula
    ``phi`` (as ``ctl.parse_ctl`` gives it) holds, by the classic fixpoint labelling
    (Clarke, Emerson & Sistla, TOPLAS 1986).  ``succ[s]`` is the set of
    successors of ``s``, and ``holds(s, ap)`` says whether the atom ``ap``
    holds at ``s``: True, False, or None where it is unknown.  An unknown
    atom is read as ``unknown``, and under a negation as its opposite, so
    that ``unknown=False`` gives the states where ``phi`` holds whatever
    the unknown atoms are, and ``unknown=True`` those where it may hold
    (three-valued model checking, Bruns & Godefroid, CAV 1999)."""
    all_states = set(states)
    if isinstance(phi, ctl.AP):
        return {s for s in states if (value := holds(s, phi)) or (value is None and unknown)}
    if isinstance(phi, ctl.Not):
        return all_states - explicit_check(phi.operand, states, succ, holds, not unknown)
    if isinstance(phi, (ctl.CAnd, ctl.COr)):
        left = explicit_check(phi.left, states, succ, holds, unknown)
        right = explicit_check(phi.right, states, succ, holds, unknown)
        return left & right if isinstance(phi, ctl.CAnd) else left | right
    if isinstance(phi, ctl.EX):
        p = explicit_check(phi.operand, states, succ, holds, unknown)
        return {s for s in states if succ[s] & p}
    if isinstance(phi, (ctl.EF, ctl.AF, ctl.EU)):
        # the least fixpoint: x grows by the states whose successors reach it
        if isinstance(phi, ctl.EU):
            among = explicit_check(phi.left, states, succ, holds, unknown)
            x = explicit_check(phi.right, states, succ, holds, unknown)
        else:
            among, x = all_states, explicit_check(phi.operand, states, succ, holds, unknown)
        while True:
            if isinstance(phi, ctl.AF):
                nxt = x | {s for s in among if succ[s] <= x}
            else:
                nxt = x | {s for s in among if succ[s] & x}
            if nxt == x:
                return x
            x = nxt
    raise TypeError(phi)


def exact_verdict(source: str) -> str | None:
    """`holds` or `violated`, decided on the one run of a program without
    `*`, from its first step at which `x`, `y` and `z` are all set; None
    for a program with `*`.

    A run that exits loops at its last step, and one that repeats a (node,
    store) loops back to its first visit.  A run that does neither within
    ``FUEL`` steps goes on to one more step that stands for all it may do
    next: there every atom is unknown, and it loops to itself.  The verdict
    is then exact where it is the same whatever those atoms are, and None
    where it is not."""
    if "*" in source:
        return None
    ast = fe.parse(source)
    program = fe.build_cfg(ast)
    nodes = program.procedures["main"].nodes
    run = fe.steps(program, "main", {}, random.Random(0), max_steps=FUEL)
    trace: list[tuple[int, dict[str, int]]] = []
    seen: dict[tuple, int] = {}
    while True:
        try:
            node, store = next(run)
        except StopIteration as stop:
            # an exit loops at its last step; out of fuel, the run goes on
            # to the step past its end
            back = len(trace) if stop.value == "fuel" else len(trace) - 1
            break
        if not store.keys() >= set(VARS):
            continue
        back = seen.setdefault((node, tuple(sorted(store.items()))), len(trace))
        if back < len(trace):
            break
        trace.append((node, store))
    succ = {i: {i + 1} for i in range(len(trace) - 1)}
    succ[len(trace) - 1] = {back}
    if back == len(trace):
        succ[back] = {back}

    def holds(i: int, ap) -> bool | None:
        if i == len(trace):
            return None
        node, store = trace[i]
        if isinstance(ap.pure, pl.Rel):
            return ap.pure.name == "Exit" and isinstance(nodes[node], fe.Return)
        return pl.eval_pure(ap.pure, store, None)

    core = ctl.parse_ctl(ast.ctl)
    states = list(succ)
    if 0 in explicit_check(core, states, succ, holds):
        return "holds"
    if 0 not in explicit_check(core, states, succ, holds, unknown=True):
        return "violated"
    return None


def check_ctl(seeds, ctl_text: str, listing=None) -> tuple[Counter, Counter, dict]:
    """The verdict counts of the programs of ``seeds`` under ``ctl_text``
    (each ``<seed> <verdict>`` also printed to ``listing``), how many were
    decided exactly and how many left to sampling, and the seeds of each
    kind of wrong verdict: `Verified` or `Violated`."""
    counts: Counter = Counter()
    decided: Counter = Counter()
    wrong: dict[str, list[int]] = {"Verified": [], "Violated": []}
    for seed in seeds:
        source = program(seed, ctl_text)
        found = verdict(source)
        counts[found] += 1
        if listing is not None:
            print(seed, found, file=listing)
        exact = exact_verdict(source)
        decided["decided" if exact is not None else "sampled"] += 1
        if found in ("holds", "violated") and exact is not None and found != exact:
            wrong["Verified" if found == "holds" else "Violated"].append(seed)
    return counts, decided, wrong


def _loop_bodies(proc: fe.Procedure) -> dict[int, set[int]]:
    """Per loop ``Join`` of ``proc``, its natural loop: the ``Join`` and
    the nodes that reach a back edge into it without passing it, so its
    body up to the ``break`` and ``return`` paths out of it, and the bodies
    of the loops nested in it."""

    def reach(starts, succ, avoid: int) -> set[int]:
        seen, todo = set(), list(starts)
        while todo:
            n = todo.pop()
            if n != avoid and n not in seen:
                seen.add(n)
                todo += succ(n)
        return seen

    preds: dict[int, list[int]] = {}
    for n, succs in proc.trans.items():
        for m in succs:
            preds.setdefault(m, []).append(n)
    bodies = {}
    for join in proc.loop_insert:
        # the sources of back edges: the Join dominates them
        outside = reach([proc.entry], proc.trans.__getitem__, join)
        latches = [n for n in preds[join] if n not in outside]
        bodies[join] = {join} | reach(latches, lambda n: preds.get(n, []), join)
    return bodies


def _claims(enc) -> dict[int, list[pl.Bop]]:
    """Per state, the comparisons it claims: their fact is there and their
    complement's is not."""
    facts = set(enc.facts)
    claims: dict[int, list[pl.Bop]] = {}
    for fact in enc.facts:
        pure = ctl.fact_pure(fact)
        if pure is not None and ctl.pure_atom(pl.negate(pure), fact.args[-1]) not in facts:
            claims.setdefault(fact.args[-1], []).append(pure)
    return claims


def _false(claims: list[pl.Bop], store: dict[str, int]) -> list[pl.Bop]:
    """The claims over variables that ``store`` sets that fail there."""
    return [c for c in claims if set(pl.names(c)) <= store.keys() and not pl.eval_pure(c, store)]


def _run(cfg: fe.Program, rng: random.Random) -> tuple[list[tuple[int, dict[str, int]]], bool]:
    """The steps of one run of ``main``, ``FACT_STEPS`` at most, and whether
    it is still going after them."""
    run, visits = fe.steps(cfg, "main", {}, rng, FACT_STEPS), []
    while True:
        try:
            visits.append(next(run))
        except StopIteration as stop:
            return visits, stop.value == "fuel"


def fact_check(seeds, ctl_text: str | None, runs: int = 8) -> tuple[Counter, dict]:
    """Check the encoder's facts and flow against ``runs`` sampled runs of
    each program of ``seeds`` (``program(seed, ctl_text)``; ROADMAP item
    24).

    A state claims each comparison whose fact it has and whose
    complement's fact it has not.  Each step of a run is mapped through
    ``gwre.origins`` to the states that stand for it:

    - ``loop-free``: a statement, guard or return node on no cycle of the
      CFG, to its own states;
    - ``loop-head``: a loop's ``Join``, on a run still going after
      ``FACT_STEPS`` steps and from step ``FACT_STEPS // 2`` on, to that
      loop's ``loop-event`` states;
    - ``loop-exit``: the step that leaves a loop through its guard after an
      iteration, to that loop's ``exit-event`` states.

    Other steps are not checked.  A mapped visit must be admitted by one of
    its states: every claim of that state over variables the store sets
    holds there.  Two consecutive loop-free steps with states must have a
    derived ``flow`` between some pair of their states.

    Returns the counts (the visits of each kind, those that map to no
    state, the flow pairs checked, the programs checked and those without
    facts, which are ``Unknown`` or time out) and the flags: per ``(seed,
    kind, node, states)`` of a visit that no state admits, or ``(seed,
    "flow", (node, next node), ())`` of a step with no flow, how many
    visits, and the store of the first with each state's false claims
    there."""
    counts: Counter = Counter()
    flags: dict[tuple, list] = {}
    for seed in seeds:
        source = program(seed, ctl_text)
        analysis = _limited(lambda: rp.analyze(source))
        if analysis is None or analysis.unknown:
            counts["programs without facts"] += 1
            continue
        counts["programs"] += 1
        proc = analysis.cfg.procedures["main"]
        claims = _claims(analysis.enc)
        derived = evaluate(DatalogProgram(rules=list(analysis.rules), facts=list(analysis.enc.facts)))
        flow = {a.args for a in derived if a.predicate == "flow"}
        bodies = _loop_bodies(proc)
        inside = set().union(*bodies.values())
        exits = {proc.trans[join][1]: join for join in bodies}  # a loop's guard-false Prune
        states: dict[tuple, list[int]] = {}  # per (kind, node or loop Join)
        for state, origin in sorted(analysis.gwre.origins.items()):
            if origin.kind in ("stmt", "guard", "return") and origin.node not in inside:
                states.setdefault(("loop-free", origin.node), []).append(state)
            elif origin.kind in ("loop-event", "exit-event"):
                kind = "loop-head" if origin.kind == "loop-event" else "loop-exit"
                states.setdefault((kind, origin.join), []).append(state)

        def flag(key: tuple, store: dict[str, int], false: dict) -> None:
            flags.setdefault((seed, *key), [0, store, false])[0] += 1

        for r in range(runs):
            visits, going = _run(analysis.cfg, random.Random(f"{seed}/{r}"))
            before = []  # the states of the step before, when loop-free
            for i, (node, store) in enumerate(visits):
                if node in exits and i >= 2 and visits[i - 2][0] in bodies[exits[node]]:
                    key = ("loop-exit", exits[node])
                elif node not in inside and isinstance(proc.nodes[node], _STEPS):
                    key = ("loop-free", node)
                elif node in bodies and going and i >= FACT_STEPS // 2:
                    key = ("loop-head", node)
                else:
                    before = []
                    continue
                mapped = states.get(key, [])
                counts[key[0]] += 1
                counts[f"{key[0]} unmapped"] += not mapped
                false = {s: _false(claims.get(s, []), store) for s in mapped}
                if mapped and all(false.values()):
                    flag((key[0], node, tuple(mapped)), store, false)
                loop_free = mapped if key[0] == "loop-free" else []
                if loop_free and before:
                    counts["flow pairs"] += 1
                    if not any((a, b) in flow for a in before for b in loop_free):
                        flag(("flow", (visits[i - 1][0], node), ()), store, {})
                before = loop_free
    return counts, {key: tuple(found) for key, found in flags.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--programs", type=int, default=200)
    parser.add_argument("--repair", action="store_true", help="also repair every Violated program")
    parser.add_argument("--depth", type=int, default=1, help="repair rounds with --repair")
    parser.add_argument(
        "--ctl", help="list each verdict under this property, x, y and z set to 0, and check it"
    )
    parser.add_argument(
        "--facts",
        action="store_true",
        help="check the encoder's facts and flow on sampled runs instead (under --ctl, or under "
        "AF(Exit(_)) with x, y and z havocked); the counts and flags go to stderr",
    )
    args = parser.parse_args(argv)
    if args.facts:
        if args.repair:
            parser.error("--facts checks facts only; it does not combine with --repair")
        counts, flags = fact_check(range(FIRST_SEED, FIRST_SEED + args.programs), args.ctl)
        visits = ", ".join(
            f"{counts[kind]} {kind} visits ({counts[kind + ' unmapped']} to no state)"
            for kind in ("loop-free", "loop-head", "loop-exit")
        )
        print(
            f"facts under {args.ctl or 'AF(Exit(_))'}: {counts['programs']} programs "
            f"({counts['programs without facts']} more without facts); {visits}; "
            f"{counts['flow pairs']} flow pairs; {len(flags)} flags",
            file=sys.stderr,
        )
        for (seed, kind, where, states), (visits, store, false) in flags.items():
            claims = "; ".join(f"state {s} claims {' and '.join(map(str, c))}" for s, c in false.items())
            print(
                f"fact flag, seed {seed}: {kind} {where}, states {list(states)}, {visits} visits; "
                f"first store {json.dumps(store, sort_keys=True)}{': ' + claims if claims else ''}",
                file=sys.stderr,
            )
        return 0
    if args.ctl is not None:
        if args.repair:
            parser.error("--ctl lists verdicts only; it does not combine with --repair")
        seeds = range(FIRST_SEED, FIRST_SEED + args.programs)
        counts, decided, wrong = check_ctl(seeds, args.ctl, sys.stdout)
        print(" ".join(f"{found} {counts[found]}" for found in ("holds", "violated", "unknown", "timeout")))
        print(
            f"{args.ctl}: {decided['decided']} decided exactly, {decided['sampled']} left to sampling; "
            f"{len(wrong['Verified'])} wrong Verified, {len(wrong['Violated'])} wrong Violated",
            file=sys.stderr,
        )
        for kind, found in wrong.items():
            if found:
                print(f"wrong {kind}, seeds {' '.join(map(str, found))}", file=sys.stderr)
        return 0
    counts, wrong, violated = check(range(FIRST_SEED, FIRST_SEED + args.programs))
    print(f"{'verdict':<10}{'runs all exit':>15}{'some run diverges':>19}")
    for found in ("holds", "violated", "unknown", "timeout"):
        print(f"{found:<10}{counts[found, False]:>15}{counts[found, True]:>19}")
    for seed in wrong:
        print(f"\nwrong Verified, seed {seed}:\n{program(seed)}")
    print(f"{len(wrong)} wrong Verified of {args.programs} programs")
    if not args.repair:
        return 1 if wrong else 0
    # a skipped sign search is counted below rather than logged per template
    logging.getLogger("ctlrepair.repair").setLevel(logging.ERROR)
    repairs, wrong_repairs, cut = check_repairs(violated, args.depth)
    print(f"\nrepair --depth {args.depth} on {len(violated)} Violated programs:")
    for found in ("Repaired", "Unrepaired", "Unknown", "Verified", "timeout"):
        print(f"{found:<12}{repairs[found]:>5}")
    print(f"{cut} Unrepaired had a sign search cut by --xi-budget")
    for seed, source in wrong_repairs:
        print(f"\nwrong Repaired, seed {seed}, patched program:\n{source}")
    print(f"{len(wrong_repairs)} wrong Repaired patches")
    return 1 if wrong or wrong_repairs else 0


if __name__ == "__main__":
    sys.exit(main())
