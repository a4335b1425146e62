import pathlib
import time

import pytest

from ctlrepair import repair as rp
from ctlrepair import sedl

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


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
