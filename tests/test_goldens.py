"""Byte-identical CLI output on every fixture.

For each fixture, ``goldens/<stem>.json`` holds the exit code, stdout and
stderr of ``repair --json`` at depth 1 and 2 (each with the ``.fixed.imp``
it writes), ``dump-gwre``, ``dump-datalog`` and ``simulate --seed 0``.  The
commands run from a temporary directory on a relative path, so
``fixed_file`` in the report does not depend on where the checkout lives.

A fixture without a golden gets one written and its test fails, so a new
golden is looked at before it is committed.  Each command is compared on
its own, and a failure names the commands whose output moved.  To accept
an intended output change, delete the golden and run the test twice.

``test_generated_programs_match_digest`` pins the same three views (the
effect, a simulated trace and the Datalog program) of 300 generated
programs by one digest.
"""

import hashlib
import json
import pathlib
import random
import shutil

import pytest

import oracle_programs
from conftest import FIXTURES
from ctlrepair import frontend as fe
from ctlrepair import gwre as gw
from ctlrepair import pure_logic as pl
from ctlrepair import repair as rp
from ctlrepair.datalog_engine import DatalogProgram

GOLDENS = pathlib.Path(__file__).parent / "goldens"

COMMANDS = {
    "repair": ("repair", "--json", "--depth", "1"),
    "repair-2": ("repair", "--json", "--depth", "2"),
    "dump-gwre": ("dump-gwre",),
    "dump-datalog": ("dump-datalog",),
    "simulate": ("simulate", "--seed", "0"),
}


def _lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.imp")))
def test_cli_output_matches_golden(name, run_cli, tmp_path, monkeypatch):
    shutil.copy(FIXTURES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    fixed = tmp_path / f"{pathlib.Path(name).stem}.fixed.imp"
    record = {}
    for key, argv in COMMANDS.items():
        code, out, err = run_cli(*argv, name)
        record[key] = {"code": code, "stdout": _lines(out), "stderr": _lines(err)}
        if argv[0] == "repair":
            record[key]["fixed"] = _lines(fixed.read_text()) if fixed.exists() else None
            fixed.unlink(missing_ok=True)

    golden = GOLDENS / f"{pathlib.Path(name).stem}.json"
    if not golden.exists():
        GOLDENS.mkdir(exist_ok=True)
        golden.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        pytest.fail(f"wrote missing golden {golden.name}; check it and rerun")
    expected = json.loads(golden.read_text())
    assert sorted(expected) == sorted(COMMANDS)
    differing = [key for key in COMMANDS if record[key] != expected[key]]
    assert {k: record[k] for k in differing} == {k: expected[k] for k in differing}, (
        f"{name}: output of {', '.join(differing)} differs from {golden.name}"
    )


# The first 16 hex digits of the sha256 of ``_generated_views`` over the
# oracle's programs of seeds 1000-1199 (``AF(Exit(_))``, inputs havocked)
# and seeds 1000-1099 under ``AG(x <= 3)`` (inputs 0).
GENERATED_DIGEST = "8e903dca1cc5f1ee"


def _generated_views(source: str) -> str:
    """What ``dump-gwre``, ``simulate --seed 0`` and ``dump-datalog`` print
    for ``source``, an inconclusive summary as ``inconclusive: <reason>``."""
    try:
        phi = gw.cfg_to_gwre(fe.build_cfg(fe.parse(source)), pl.Memo()).phi
    except gw.SummaryInconclusive as exc:
        lines = [f"inconclusive: {exc}"]
    else:
        sim = gw.simulate(phi, fuel=50, rng=random.Random(0))
        lines = [str(phi), *(f"{s}\t{text}" for s, text in sim.trace)]
        lines += [f"status: {sim.status}", f"store: {json.dumps(sim.store, sort_keys=True)}"]
    analysis = rp.analyze(source)
    if analysis.unknown:
        lines.append(f"inconclusive: {analysis.unknown}")
    else:
        lines.append(DatalogProgram(rules=list(analysis.rules), facts=list(analysis.enc.facts)).dump())
    return "\n".join(lines) + "\n"


def test_generated_programs_match_digest():
    digest = hashlib.sha256()
    programs = [oracle_programs.program(seed) for seed in range(1000, 1200)]
    programs += [oracle_programs.program(seed, "AG(x <= 3)") for seed in range(1000, 1100)]
    for source in programs:
        digest.update(_generated_views(source).encode())
    assert digest.hexdigest()[:16] == GENERATED_DIGEST
