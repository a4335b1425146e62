"""One timed pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--trace 1] [--check 1]
        [--deadline SECONDS]

Generates the workload's programs from the seed, feeds them one at a time to
`repair.analyze` (verify workloads) or `repair.repair_loop` (repair-deep),
then writes one JSON object to stdout.  Times cover only those calls.  With
`--check 1` the outcomes are also checked against the known answers and the
concrete oracle, after the timed loop.  `ctlrepair` is imported from the
`src` directory of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import signal
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import ctlrepair  # noqa: E402
from ctlrepair import repair as rp  # noqa: E402

import oracle  # noqa: E402
from calibration import calibrate  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

# per-program time limits, far above the slowest program at the seed
TIME_LIMIT_S = {"verify-chain": 10, "verify-branchy": 10, "repair-deep": 30}
REPAIR_DEPTH = 2


class ProgramTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    inside the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise ProgramTimeout


def _outcome(workload: str, source: str):
    """Run one program; returns its verdict and, on repair-deep, the
    repair result."""
    if workload == "repair-deep":
        result = rp.repair_loop(source, rp.RepairConfig(depth=REPAIR_DEPTH))
        return result.verdict, result
    analysis = rp.analyze(source)
    if analysis.unknown:
        return "unknown", None
    return ("holds" if analysis.holds else "violated"), None


def _keep(rec: dict, result) -> None:
    """Keep only the report and best patch of a repair result, so that the
    pass holds no analyses between programs."""
    if result is not None:
        rec["report"] = result.to_json()
        if result.patches:
            rec["best"] = (result.patches[0].source, result.patches[0].cost)


def _run_pass(workload: str, programs, deadline: float, tracer, calibration=None) -> list[dict]:
    """Time each program; with a `calibration` list, a calibration loop is
    timed before each program and after the last one."""
    limit = TIME_LIMIT_S[workload]
    records = []
    signal.signal(signal.SIGALRM, _on_alarm)
    for prog in programs:
        if calibration is not None:
            calibration.append(calibrate())
        rec = {"index": prog.index, "verdict": None, "error": None, "report": None, "best": None}
        records.append(rec)
        if time.monotonic() > deadline:
            rec["error"], rec["time_s"] = "not run: run deadline passed", 0.0
            continue
        if tracer is not None:
            tracer.begin_program()
        result = None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            rec["verdict"], result = _outcome(workload, prog.source)
        except ProgramTimeout:
            rec["error"] = f"timeout after {limit} s"
        except Exception as exc:  # a crash is a failed program, not a failed pass
            rec["error"] = f"{type(exc).__name__}: {exc}"[:200]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["time_s"] = time.perf_counter() - start
        _keep(rec, result)
    if calibration is not None:
        calibration.append(calibrate())
    return records


def _failure(prog, rec, check: bool) -> str | None:
    """Why a program failed, or None.  Known-answer and oracle checks run
    only with `check`."""
    if rec["error"]:
        return rec["error"]
    if not check:
        return None
    if prog.expected == "repaired":
        if rec["verdict"] != "Repaired":
            return f"verdict {rec['verdict']}, expected Repaired"
        source, cost = rec["best"]
        if cost != 1:
            return f"best patch costs {cost}, a one-edit fix exists"
        reason = oracle.check(source, prog.goal, f"{prog.index}")
        return f"best patch: {reason}" if reason else None
    if rec["verdict"] != prog.expected:
        return f"verdict {rec['verdict']}, expected {prog.expected}"
    if rec["verdict"] == "holds" and prog.goal == workloads.EXIT:
        return oracle.check(prog.source, prog.goal, f"{prog.index}")
    return None


def _digest(programs, records) -> str:
    """Hash of every program with its verdict, error and repair report."""
    h = hashlib.sha256()
    for prog, rec in zip(programs, records):
        line = json.dumps([prog.source, rec["verdict"], rec["error"], rec["report"]], sort_keys=True)
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def _item1_probe(seed: int) -> list[dict]:
    """Verdicts on loops that diverge on some inputs (ROADMAP item 1)."""
    out = []
    for prog in workloads.item1_probe(seed):
        verdict, _ = _outcome("verify-branchy", prog.source)
        concrete = oracle.check(prog.source, prog.goal, f"probe/{prog.index}")
        out.append({"index": prog.index, "verdict": verdict, "diverges": concrete is not None})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, default=150.0, help="seconds for the whole pass")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + args.deadline

    if pathlib.Path(ctlrepair.__file__).resolve().parent != SRC / "ctlrepair":
        print(f"ctlrepair imported from {ctlrepair.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    programs = workloads.generate(args.workload, args.seed)

    calibration: list[float] = []
    if args.trace:
        with tracer_mod.Tracer() as tracer:
            records = _run_pass(args.workload, programs, deadline, tracer)
        layers = tracer.metrics()
    else:
        records = _run_pass(args.workload, programs, deadline, None, calibration)
        layers = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = {}
    for prog, rec in zip(programs, records):
        reason = _failure(prog, rec, bool(args.check))
        if reason:
            failures[prog.index] = reason
    patch_costs = [rec["best"][1] for rec in records if rec["verdict"] == "Repaired"]
    repaired = sum(rec["verdict"] == "Repaired" and rec["index"] not in failures for rec in records)
    out = {
        "times_s": [rec["time_s"] for rec in records],
        "calibration_s": calibration,
        "peak_rss_mb": peak_rss_mb,
        "digest": _digest(programs, records),
        "failures": failures,
        "repaired": repaired,
        "patch_costs": patch_costs,
        "layers": layers,
        "self_check": tracer_mod.self_check(args.workload, layers) if layers else [],
        "item1_probe": _item1_probe(args.seed) if args.check and args.workload == "verify-branchy" else [],
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
