import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import ctlrepair
from ctlrepair import frontend as fe
from ctlrepair import repair as rp

from conftest import FIXTURES, verdict


def fix(name: str) -> str:
    return str(FIXTURES / name)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_holds_exit_zero(run_cli):
    code, out, _ = run_cli("verify", fix("overview_fixed.imp"))
    assert code == 0
    assert out.startswith("Verified")


def test_verify_violated_exit_one(run_cli):
    code, out, _ = run_cli("verify", fix("overview.imp"))
    assert code == 1
    assert out.startswith("Violated")


def test_verify_unknown_exit_two(run_cli):
    code, out, _ = run_cli("verify", fix("unknown.imp"))
    assert code == 2
    assert out.startswith("Unknown")


def test_long_expression_verifies(run_cli, tmp_path):
    # x = x + 1 + ... + 1 with 3,000 terms: no walk of the term recurses
    source = tmp_path / "long.imp"
    source.write_text(
        "//@ ctl: AF(Exit(_))\nvoid main() {\n  int x = 0;\n  x = x" + " + 1" * 3000 + ";\n  return;\n}\n"
    )
    code, out, _ = run_cli("verify", source)
    assert code == 0
    assert out.startswith("Verified")
    code, out, _ = run_cli("dump-gwre", source)
    assert code == 0
    assert out.count("+1") == 3000
    code, out, _ = run_cli("simulate", "--seed", "1", source)
    assert code == 0
    assert 'store: {"x": 3000}' in out


def test_verify_json_report(run_cli):
    code, out, _ = run_cli("verify", "--json", fix("overview.imp"))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "Violated"
    assert report["property"] == "AF(y=5)"


def test_verify_ctl_flag_overrides_annotation(run_cli):
    code, out, _ = run_cli("verify", "--ctl", "AF(y=1)", fix("overview.imp"))
    assert code == 0


def test_verify_bad_syntax_exit_three(run_cli):
    code, _, err = run_cli("verify", fix("bad_syntax.imp"))
    assert code == 3
    assert "error" in err.lower()


@pytest.mark.parametrize(
    "body",
    [
        "int f(int a, int b) { return b; }\n"
        "void main() { int y = f(1); if (y > 0) { while (1) { } } return; }",
        "void main() { int x = 0; break; x = 1; return; }",
    ],
    ids=["call-arity", "stray-break"],
)
def test_verify_malformed_program_exit_three(run_cli, tmp_path, body):
    path = tmp_path / "prog.imp"
    path.write_text(f"//@ ctl: AF(Exit(_))\n{body}\n")
    code, out, err = run_cli("verify", path)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_verify_missing_property_exit_three(run_cli):
    code, _, err = run_cli("verify", fix("no_property.imp"))
    assert code == 3


def test_verify_missing_property_supplied_by_flag(run_cli):
    code, _, _ = run_cli("verify", "--ctl", "AF(Exit(_))", fix("no_property.imp"))
    assert code == 0


def test_verify_bad_property_exit_three(run_cli):
    code, _, _ = run_cli("verify", "--ctl", "AF(", fix("overview.imp"))
    assert code == 3


@pytest.mark.parametrize("prop", ["AF(Exit(0))", "AG(!Exit(0))"])
def test_relation_atom_with_a_value_exit_three(run_cli, tmp_path, prop):
    # the encoder drops relation values, so Exit(0) would hold wherever any
    # Exit does: AF(Exit(0)) printed Verified on a program that returns 5
    path = tmp_path / "prog.imp"
    path.write_text("int main() { int x = 5; return x; }\n")
    code, out, err = run_cli("verify", "--ctl", prop, path)
    assert code == 3
    assert out == ""
    assert err == "error: expected '_' or ')' in Exit(...), found '0': relation atoms take no values\n"


def test_missing_file_exit_three(run_cli):
    code, _, _ = run_cli("verify", "does-not-exist.imp")
    assert code == 3


def test_unknown_subcommand_exit_three(run_cli):
    code, _, _ = run_cli("frobnicate")
    assert code == 3


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("repair", "--depth", "0"),
        ("repair", "--depth", "-1"),
        ("repair", "--alpha-budget", "0"),
        ("repair", "--xi-budget", "-1"),
        ("repair", "--max-add", "-1"),
        ("repair", "--max-delete", "-1"),
        ("simulate", "--fuel", "-3"),
    ],
)
def test_out_of_range_number_exit_three(run_cli, tmp_fixture, command, option, value):
    code, out, err = run_cli(command, option, value, tmp_fixture("overview.imp"))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: Invalid value for '{option}'")


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_internal_error_exit_four(run_cli, monkeypatch, tmp_fixture, command):
    # a crash must not exit 1, which reports a violated property
    def crash(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(rp, "analyze", crash)
    code, out, err = run_cli(command, tmp_fixture("overview.imp"))
    assert code == 4
    assert out == ""
    assert err == "error: internal: RuntimeError: boom second line\n"


def test_interrupt_is_not_an_internal_error(run_cli, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(rp, "analyze", interrupt)
    code, _, err = run_cli("verify", fix("overview.imp"))
    assert code == 130
    assert err.strip() == "Aborted!"


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


@pytest.fixture
def tmp_fixture(tmp_path):
    def copy(name: str) -> str:
        dest = tmp_path / name
        shutil.copy(FIXTURES / name, dest)
        return str(dest)

    return copy


def test_repair_writes_fixed_file(run_cli, tmp_fixture, tmp_path):
    target = tmp_fixture("overview.imp")
    code, out, _ = run_cli("repair", "--json", target)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "Repaired"
    fixed = tmp_path / "overview.fixed.imp"
    assert report["fixed_file"] == str(fixed)
    patched = fixed.read_text()
    fe.parse(patched)  # the patch is syntactically valid
    assert verdict(patched, report["property"]) == "holds"


def test_repair_verified_program_exits_zero_without_file(run_cli, tmp_fixture, tmp_path):
    code, out, _ = run_cli("repair", tmp_fixture("overview_fixed.imp"))
    assert code == 0
    assert out.startswith("Verified")
    assert not (tmp_path / "overview_fixed.fixed.imp").exists()


def test_repair_unrepaired_exit_one(run_cli, tmp_fixture):
    code, out, _ = run_cli("repair", tmp_fixture("spin.imp"))
    assert code == 1
    assert out.startswith("Unrepaired")


def test_repair_unknown_exit_two(run_cli, tmp_fixture):
    code, out, _ = run_cli("repair", tmp_fixture("unknown.imp"))
    assert code == 2


@pytest.mark.parametrize("name", ["unknown.imp", "phase_flip.imp"])
def test_repair_unknown_says_why(run_cli, tmp_fixture, name):
    target = tmp_fixture(name)
    _, _, reason = run_cli("verify", target)
    assert reason.strip()
    assert run_cli("repair", target)[::2] == (2, reason)
    code, out, _ = run_cli("repair", "--json", target)
    assert code == 2
    assert json.loads(out)["detail"] == reason.strip()


def test_repair_json_deterministic(run_cli, tmp_fixture):
    target = tmp_fixture("overview.imp")
    _, first, _ = run_cli("repair", "--json", target)
    _, second, _ = run_cli("repair", "--json", target)
    assert first == second  # byte-identical report for identical input


def test_repair_rejects_bad_template_order(run_cli, tmp_fixture):
    code, _, err = run_cli(
        "repair", "--template-order", "bogus", tmp_fixture("overview.imp")
    )
    assert code == 3


def test_repair_rejects_a_repeated_template(run_cli, tmp_fixture):
    code, _, err = run_cli(
        "repair", "--template-order", "delete,update,delete", tmp_fixture("overview.imp")
    )
    assert code == 3
    assert "template 'delete' given more than once" in err


def test_repair_rejects_an_empty_template_order(run_cli, tmp_fixture):
    code, _, err = run_cli("repair", "--template-order", " , ", tmp_fixture("overview.imp"))
    assert code == 3
    assert "error: empty template order" in err


def test_repair_depth_two_finds_multi_step_patch(run_cli, tmp_fixture):
    target = tmp_fixture("overview.imp")
    code, out, _ = run_cli("repair", "--json", "--depth", "2", target)
    assert code == 0
    report = json.loads(out)
    assert any(p["iterations"] > 1 for p in report["patches"])


EDIT_KEYS = {
    "insert-assign": ["kind", "var", "value", "after_state", "offset", "text"],
    "insert-early-exit": ["kind", "condition", "before_state", "offset", "text"],
    "modify-assign": ["kind", "state", "var", "value", "text"],
}


def test_repair_text_report_keeps_edit_key_order(run_cli, tmp_fixture):
    # the JSON report sorts its keys; the text report prints each edit as is
    seen = set()
    for name in ("overview.imp", "subtitle_loop.imp"):
        code, out, _ = run_cli("repair", tmp_fixture(name))
        assert code == 0
        for line in out.splitlines():
            if line.startswith("  {"):
                edit = ast.literal_eval(line.strip())
                assert list(edit) == EDIT_KEYS[edit["kind"]]
                seen.add(edit["kind"])
    assert seen == set(EDIT_KEYS)


# ---------------------------------------------------------------------------
# inspection commands
# ---------------------------------------------------------------------------


def test_dump_gwre(run_cli):
    code, out, _ = run_cli("dump-gwre", fix("overview.imp"))
    assert code == 0
    assert "(y=1)@1" in out
    assert "^w" in out


def test_dump_gwre_havocs_a_cyclic_exit_update(run_cli, tmp_path):
    # x and y each read the other across the loop, so no order of the exit
    # event's updates lets every read see the entry value: both are havocked
    path = tmp_path / "cyclic.imp"
    path.write_text(
        "//@ ctl: AF(Exit(_))\n"
        "void main() {\n"
        "  int x = *;\n"
        "  int y = *;\n"
        "  while (x + y > 0) { x = x - 2; y = y + 1; }\n"
        "  return;\n"
        "}\n"
    )
    code, out, _ = run_cli("dump-gwre", path)
    assert code == 0
    assert "(x=*, y=*, x+y<=0)@5" in out


def test_dump_gwre_inconclusive_exit_two(run_cli):
    code, _, err = run_cli("dump-gwre", fix("unknown.imp"))
    assert code == 2
    assert "inconclusive" in err


def test_dump_gwre_independent_of_hash_seed():
    # the exit event of a loop that updates several variables lists them in
    # program order, whatever order a set of their names would have
    src_dir = pathlib.Path(ctlrepair.__file__).parents[1]
    outs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src_dir))
        proc = subprocess.run(
            [sys.executable, "-m", "ctlrepair.cli", "dump-gwre", fix("multi_update.imp")],
            env=env, capture_output=True, text=True, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_dump_datalog(run_cli):
    code, out, _ = run_cli("dump-datalog", fix("overview.imp"))
    assert code == 0
    assert 'flow(3, 4) :- Gt("i", 10, 3).' in out
    assert "State(1)." in out
    assert "AF_yEQ5" in out


def test_simulate(run_cli):
    code, out, _ = run_cli("simulate", "--seed", "1", "--fuel", "30", fix("overview.imp"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-2].startswith("status: ")
    assert lines[-1].startswith("store: ")
    for line in lines[:-2]:
        state, _text = line.split("\t", 1)
        assert state.isdigit()


def test_simulate_deterministic(run_cli):
    _, a, _ = run_cli("simulate", "--seed", "7", fix("overview.imp"))
    _, b, _ = run_cli("simulate", "--seed", "7", fix("overview.imp"))
    assert a == b
