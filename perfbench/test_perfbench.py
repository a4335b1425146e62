"""Self-checks of the benchmark: generators, tracer, oracle, time limit.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each test runs only a few cheap programs.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import oracle
import run
import tracer as tracer_mod
import worker
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _cheap(workload: str) -> list[workloads.Program]:
    """The shortest verify program, or the two repair shapes that take
    well under a second and still run the sign search."""
    programs = workloads.generate(workload, seed=1)
    if workload == "repair-deep":
        return [p for p in programs if p.shape in ("equal_guard", "subtitle_loop")][:2]
    return sorted(programs, key=lambda p: len(p.source))[:1]


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_seeded_and_distinct(workload):
    a = workloads.generate(workload, seed=3)
    assert a == workloads.generate(workload, seed=3)
    assert len({p.source for p in a}) == len(a)
    assert [p.source for p in a] != [p.source for p in workloads.generate(workload, seed=4)]


def test_tracer_wraps_every_lookup_site_and_restores_them():
    from ctlrepair import datalog_engine, repair

    original = datalog_engine.evaluate
    with tracer_mod.Tracer() as tracer:
        assert repair.evaluate is not original
        assert repair.evaluate is datalog_engine.evaluate
    assert repair.evaluate is original and datalog_engine.evaluate is original
    sites = tracer.sites["datalog_engine.evaluate"]
    assert "ctlrepair.repair.evaluate" in sites
    assert "ctlrepair.datalog_engine.evaluate" in sites
    assert all(tracer.sites[name] for name in tracer_mod.ENTRY_POINTS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_entry_point_is_reached_where_expected(workload):
    programs = _cheap(workload)
    with tracer_mod.Tracer() as tracer:
        records = worker._run_pass(workload, programs, float("inf"), tracer)
    assert not any(rec["error"] for rec in records)
    assert tracer_mod.self_check(workload, tracer.metrics()) == []


def test_self_check_reports_a_silent_layer():
    metrics = {f"{name}.calls": 1 for name in tracer_mod.ENTRY_POINTS}
    metrics["datalog_engine.evaluate.calls"] = 0
    assert tracer_mod.self_check("verify-chain", metrics) == [
        "datalog_engine.evaluate got no call on verify-chain",
        "sedl.symbolic_execute got 1 calls on verify-chain",
        "sedl.annotated_eval got 1 calls on verify-chain",
    ]


def test_repeated_pass_gives_the_same_digest():
    programs = _cheap("repair-deep")
    first = worker._run_pass("repair-deep", programs, float("inf"), None)
    second = worker._run_pass("repair-deep", programs, float("inf"), None)
    assert worker._digest(programs, first) == worker._digest(programs, second)


def test_oracle_tells_divergence_from_termination():
    head = "//@ ctl: AF(Exit(_))\nvoid main() {\n  int x = *;\n  int y = *;\n"
    spin = head + "  while (x == y) { }\n  return;\n}\n"
    count_down = head + "  while (x > 0) { x = x - 1; }\n  return;\n}\n"
    assert oracle.check(spin, workloads.EXIT, "t") is not None
    assert oracle.check(count_down, workloads.EXIT, "t") is None
    # AF(y=5) holds on a run that spins after setting y
    reach = "//@ ctl: AF(y=5)\nvoid main() {\n  int y = 5;\n  while (1) { }\n}\n"
    assert oracle.check(reach, ("y", 5), "t") is None
    assert oracle.check(reach, ("y", 6), "t") is not None


def test_overrun_fails_one_program_and_the_pass_goes_on(monkeypatch):
    monkeypatch.setitem(worker.TIME_LIMIT_S, "verify-chain", 0.001)
    programs = workloads.generate("verify-chain", seed=1)[:2]
    records = worker._run_pass("verify-chain", programs, float("inf"), None)
    assert [rec["error"] for rec in records] == ["timeout after 0.001 s"] * 2


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(30)]) == (66, 19.0)
    assert run.tail([float(i) for i in range(100)]) == (90, 89.0)
    assert run.tail([1.0, 2.0, 3.0]) == (50, 2.0)


def test_run_refuses_a_directory_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "verify-chain", "--seed", "1", "--seconds", "1"]) == 2
    assert "no ctlrepair sources" in capsys.readouterr().err
