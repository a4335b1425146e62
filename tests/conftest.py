import functools
import pathlib
import sys
import time

import pytest

from ctlrepair import frontend as fe
from ctlrepair import gwre as gw
from ctlrepair import pure_logic as pl
from ctlrepair import repair as rp
from ctlrepair import sedl

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


class Stopwatch:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.monotonic()

    def check(self) -> None:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"took {elapsed:.2f}s, budget {self.budget}s"


def verdict(source: str, ctl_text: str | None = None) -> str:
    """One of "holds", "violated", "unknown" for the program's property."""
    analysis = rp.analyze(source, ctl_text)
    if analysis.unknown:
        return "unknown"
    return "holds" if analysis.holds else "violated"


def execute_alone(rules, facts, target, budget, valuations, worlds) -> sedl.Psi:
    """One sign search, run as a batch of one."""
    search = sedl.SignSearch(facts, valuations, worlds)
    return sedl.symbolic_execute(sedl.sign_batch(rules, target, [search], budget), 0)


def break_loops(n: int) -> str:
    """``n`` sequential countdown loops, each with a guarded ``break``."""
    loops = "".join(
        f"  int n{i} = *;\n  while (n{i} > 0) {{ if (n{i} == 3) {{ break; }} n{i} = n{i} - 1; }}\n"
        for i in range(n)
    )
    return f"//@ ctl: AF(Exit(_))\nvoid main() {{\n{loops}  return;\n}}\n"


def ifs(n: int) -> str:
    """``n`` sequential ``if``s, each on its own havocked variable."""
    src = "//@ ctl: AF(Exit(_))\nvoid main() {\n  int x = 0;\n"
    src += "".join(f"  int c{i} = *;\n  if (c{i} > 0) {{ x = x + 1; }}\n" for i in range(n))
    return src + "  return;\n}\n"


def loops(n: int) -> str:
    """``n`` sequential countdown loops, each on its own havocked variable."""
    src = "//@ ctl: AF(Exit(_))\nvoid main() {\n"
    src += "".join(f"  int n{i} = *;\n  while (n{i} > 0) {{ n{i} = n{i} - 1; }}\n" for i in range(n))
    return src + "  return;\n}\n"


def kif(k: int) -> str:
    """``k`` ``if``s on one havocked variable, then a countdown loop."""
    src = "//@ ctl: AF(Exit(_))\nvoid main() {\n  int x = *;\n  int n = *;\n"
    src += "".join(f"  if (x > {i}) {{ x = x - 1; }}\n" for i in range(k))
    return src + "  while (n > 0) { n = n - 1; }\n  return;\n}\n"


@functools.lru_cache(maxsize=None)
def effect_corpus() -> tuple[tuple[str, gw.GwreResult], ...]:
    """(name, summary) of each program among the fixtures, the bench
    programs of seeds 1-3 and the oracle programs of seeds 1000-1599 that
    parses and summarizes."""
    import oracle_programs

    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    sources = [(path.name, path.read_text()) for path in sorted(FIXTURES.glob("*.imp"))]
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            sources += ((f"{name}-{seed}-{p.index}", p.source) for p in workloads.generate(name, seed))
    sources += ((f"oracle-{seed}", oracle_programs.program(seed)) for seed in range(1000, 1600))
    out = []
    for name, source in sources:
        try:
            out.append((name, gw.cfg_to_gwre(fe.build_cfg(fe.parse(source)), pl.Memo())))
        except (fe.ImpSyntaxError, gw.SummaryInconclusive, gw.UnsupportedProgram):
            continue
    return tuple(out)


def derivatives(a: gw.Automaton, phi: gw.Re) -> dict[int, gw.Re]:
    """Per state of ``a``, the effect it stands for, read off the pairs of
    ``gw.linear_form`` from ``phi`` on; each pair of a state must be its
    linear form's, in order, leading to a state that stands for an equal
    effect (an omega block to its body)."""
    effects, todo = {a.start: phi}, [a.start]
    while todo:
        q = todo.pop()
        form, nullable = gw.linear_form(effects[q])
        assert a.nullable[q] == nullable and [f for f, _, _ in a.pairs[q]] == [f for f, _ in form]
        for (f, _, n), (_, rest) in zip(a.pairs[q], form):
            rest = f.body if isinstance(f, gw.Omega) else rest
            if n not in effects:
                effects[n] = rest
                todo.append(n)
            assert effects[n] == rest
    return effects


def calls(n: int) -> str:
    """``n`` calls of a procedure whose two branches leave the same store."""
    src = "//@ ctl: AF(Exit(_))\nint f(int v) {\n  int z = 0;\n  if (*) { } else { }\n  return z;\n}\n"
    return src + "void main() {\n  int z0 = 0;\n" + "  z0 = f(z0);\n" * n + "  return;\n}\n"


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def fixture_text():
    def read(name: str) -> str:
        return (FIXTURES / name).read_text()

    return read


@pytest.fixture
def run_cli(capsys):
    """Invoke the console entry point in-process; returns (code, out, err)."""

    def invoke(*argv):
        from ctlrepair import cli as cli_mod

        code = 0
        try:
            cli_mod.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        out, err = capsys.readouterr()
        return code, out, err

    return invoke
