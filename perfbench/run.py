"""Benchmark of `ctlrepair verify` and `ctlrepair repair` on seeded programs.

    python3 perfbench/run.py --workload verify-chain --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A run measures set-up time, then makes
`--seconds / PASS_SECONDS` timed passes of the workload (at least three),
each in a fresh interpreter, so that a run takes about `--seconds` at the
seed and the same work on every commit.  One client, no threads: every
program is fed to the library only after the previous one has its verdict.

`--trace 0` reports the end-to-end metrics.  `--trace 1` makes half as many
pairs of an untraced and a traced pass and reports the per-layer metrics
and the tracing overhead.  Either way, the first pass is checked against
the known answers and the concrete oracle, every pass must give the same
determinism digest, and the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

import calibration
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_DEADLINE_S = 160
SETUP_REPEATS = 15
# seconds one pass of any workload takes at the seed
PASS_SECONDS = 5
MIN_PASSES = 3

END_TO_END = {
    "programs_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "peak_rss_mb": "MB",
    "solved_ratio": "ratio",
    "setup_s": "s",
}

_LAYER_TIMES = (
    "frontend.parse", "frontend.build_cfg", "gwre.cfg_to_gwre", "encode.abstract_facts",
    "pure_logic.entails", "pure_logic.satisfiable", "ctl.ctl_to_datalog",
    "datalog_engine.evaluate", "sedl.symbolic_execute", "sedl.annotated_eval",
    "repair.run_template", "repair.repair_loop",
)
_LAYER_COUNTS = (
    "frontend.cfg_nodes", "gwre.states", "encode.facts", "encode.rules",
    "pure_logic.entails.calls", "pure_logic.entails.distinct",
    "pure_logic.satisfiable.calls", "pure_logic.satisfiable.distinct",
    "datalog_engine.evaluate.calls", "datalog_engine.input_facts", "datalog_engine.derived_facts",
    "sedl.symbolic_execute.calls", "sedl.disjuncts", "sedl.truncated", "sedl.budget_exceeded",
    "repair.analyze.calls", "repair.analyze.distinct_sources",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _LAYER_TIMES},
    **dict.fromkeys(_LAYER_COUNTS, "count"),
    "repair.repaired_ratio": "ratio",
    "repair.patch_cost_mean": "count",
    "trace_overhead_s": "s",
}


def _env() -> dict:
    """Children import `ctlrepair` from the checkout and may write its
    bytecode cache there, as an installed tool would have one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter importing `ctlrepair.cli`,
    and the calibration times taken before each start.  One untimed start
    first writes the bytecode cache, as an installed tool would have it."""
    cmd = [sys.executable, "-c", "import ctlrepair.cli"]
    times, cal = [], []
    for i in range(SETUP_REPEATS + 1):
        cal.append(calibration.calibrate())
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_env(), check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times), cal


def run_pass(workload: str, seed: int, trace: bool, check: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; a pass that dies or overruns is
    reported with every program failed."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--check", str(int(check)),
        "--deadline", f"{max(deadline - time.monotonic() - 5, 1):.1f}",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1) + 5,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        reason = f"worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    except subprocess.TimeoutExpired:
        reason = "worker overran the run deadline"
    n = workloads.WORKLOADS[workload][1]
    return {
        "times_s": [], "calibration_s": [], "peak_rss_mb": 0.0, "digest": reason,
        "failures": {str(i): reason for i in range(n)}, "repaired": 0, "patch_costs": [],
        "layers": None, "self_check": [], "item1_probe": [],
    }


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and its value."""
    n = len(samples)
    p = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    return p, sorted(samples)[math.ceil(p / 100 * n) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ctlrepair" / "__init__.py").is_file():
        print(f"error: no ctlrepair sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    run_start = time.monotonic()
    deadline = run_start + RUN_DEADLINE_S
    n = workloads.WORKLOADS[args.workload][1]
    setup = measure_setup() if not args.trace else None

    passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS))
    plain, traced = [], []
    for i in range(max(1, passes // 2) if args.trace else passes):
        plain.append(run_pass(args.workload, args.seed, False, i == 0, deadline))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, True, False, deadline))

    first = plain[0]
    failures = dict(first["failures"])
    for p in plain[1:] + traced:
        for idx, reason in p["failures"].items():
            failures.setdefault(idx, reason)
    digests = sorted({p["digest"] for p in plain + traced})
    problems = [f"digest differs between passes: {', '.join(digests)}"] if len(digests) > 1 else []
    for p in traced:
        problems += p["self_check"]
    correct = not failures and not problems

    print(f"workload {args.workload}, seed {args.seed}: {n} distinct programs per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    for idx, reason in sorted(failures.items(), key=lambda kv: int(kv[0])):
        print(f"  FAILED seed {args.seed} index {idx}: {reason}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"digest {digests[0]}")
    print(f"fail_ratio {len(failures) / n:.4f} ({len(failures)} of {n} programs)")
    if args.workload == "repair-deep":
        costs = first["patch_costs"]
        print(f"repaired_ratio {first['repaired'] / n:.4f} ({first['repaired']} of {n} programs)")
        print(f"patch_cost_mean {statistics.fmean(costs) if costs else 0:.4f} count "
              f"(over {len(costs)} Repaired programs)")
    for probe in first["item1_probe"]:
        wrong = probe["verdict"] == "holds" and probe["diverges"]
        print(f"item-1 probe {probe['index']}: verdict {probe['verdict']}, concrete runs "
              f"{'diverge' if probe['diverges'] else 'exit'}{' (wrong Verified)' if wrong else ''}")

    if args.trace:
        metrics = layer_metrics(plain, traced, n)
    else:
        metrics = end_to_end_metrics(plain, n, len(failures), setup)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"run took {time.monotonic() - run_start:.1f} s")
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": len(failures), "metrics": metrics,
    }))
    return 0


def _slowdown(cal: list[float]) -> float:
    """How many times slower than the reference the machine ran, on
    average over the calibration loops timed next to the measured work."""
    return statistics.fmean(cal) / calibration.REFERENCE_S


def end_to_end_metrics(plain: list[dict], n: int, failed: int, setup) -> dict:
    # each pass's times are divided by that pass's slowdown: sums and means
    # of both follow the machine's load over the pass
    passes = [p for p in plain if p["times_s"]]
    slow = [_slowdown(p["calibration_s"]) for p in passes]
    samples = [t / f for p, f in zip(passes, slow) for t in p["times_s"]]
    raw = [t for p in passes for t in p["times_s"]]
    p, tail_s = tail(samples) if samples else (50, 0.0)
    setup_s, setup_cal = setup
    print(f"machine ran {statistics.fmean(slow) if slow else 0:.3f}x (passes) and "
          f"{_slowdown(setup_cal):.3f}x (set-up) slower than the calibration reference; "
          "reported times are divided by that")
    print(f"measured, before that division: programs_per_s {len(raw) / sum(raw) if raw else 0:.6g}, "
          f"verdict_p50_s {statistics.median(raw) if raw else 0:.6g}, setup_s {setup_s:.6g}")
    print(f"verdict_tail_s is p{p} over {len(samples)} samples ({n} programs x {len(passes)} passes)")
    values = {
        "programs_per_s": len(samples) / sum(samples) if samples else 0.0,
        "verdict_p50_s": statistics.median(samples) if samples else 0.0,
        "verdict_tail_s": tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "solved_ratio": (n - failed) / n,
        "setup_s": setup_s / _slowdown(setup_cal),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(plain: list[dict], traced: list[dict], n: int) -> dict:
    layers = [p["layers"] or {} for p in traced]
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = statistics.median(layer.get(name, 0.0) for layer in layers)
        elif name in _LAYER_COUNTS:
            values[name] = layers[0].get(name, 0)
    costs = plain[0]["patch_costs"]
    values["repair.repaired_ratio"] = plain[0]["repaired"] / n if costs else 0.0
    values["repair.patch_cost_mean"] = statistics.fmean(costs) if costs else 0.0
    # time of a pass: the sum of its program times
    wall = statistics.median(sum(p["times_s"]) for p in traced)
    values["trace_overhead_s"] = wall - statistics.median(sum(p["times_s"]) for p in plain)
    split = sorted(
        ((values[f"{name}.self_s"] / wall if wall else 0.0, name) for name in _LAYER_TIMES),
        reverse=True,
    )
    print("stage split of the traced pass (self time / pass wall time): " + ", ".join(
        f"{name} {share:.1%}" for share, name in split if share >= 0.001
    ))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
