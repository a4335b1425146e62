"""Seeded generators of `.imp` programs whose expected outcome is known by
construction, without asking the tool.

Every workload yields a list of distinct `Program`s for one pass.  The seed
draws the contents; what sets the cost of a pass (program sizes, block
structure, the share of violated programs, the repair shapes) is the same
for every seed, so that the cost of a pass does not move with the seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

EXIT = "Exit"


@dataclass(frozen=True)
class Program:
    index: int
    source: str
    # "holds" / "violated" for verify workloads; "repaired" for repair-deep,
    # whose programs are violated and have a one-edit fix by construction
    expected: str
    # the property AF(goal): EXIT, or (var, value) for AF(var=value)
    goal: object
    shape: str


def _distinct(make, n: int, rng: random.Random) -> list[Program]:
    """Draw `n` programs with `make(i, rng)`, redrawing any repeated source."""
    out: list[Program] = []
    seen: set[str] = set()
    for i in range(n):
        for _ in range(1000):
            prog = make(i, rng)
            if prog.source not in seen:
                break
        else:
            raise RuntimeError(f"generator could not draw a distinct program {i}")
        seen.add(prog.source)
        out.append(prog)
    return out


# ---------------------------------------------------------------------------
# verify-chain: straight-line programs, AF(Exit(_)) holds
# ---------------------------------------------------------------------------

CHAIN_VARS = ("a", "b", "c")
CHAIN_MIN, CHAIN_MAX = 40, 90


def verify_chain(seed: int, n: int) -> list[Program]:
    rng = random.Random(f"verify-chain/{seed}")
    span = CHAIN_MAX - CHAIN_MIN
    sizes = [CHAIN_MIN + (span * i) // max(n - 1, 1) for i in range(n)]
    rng.shuffle(sizes)

    def make(i: int, rng: random.Random) -> Program:
        lines = [
            "//@ ctl: AF(Exit(_))",
            "void main() {",
            "  int a = *;",
            f"  int b = {rng.randint(-9, 9)};",
            f"  int c = {rng.randint(-9, 9)};",
        ]
        for _ in range(sizes[i]):
            x, y = rng.choice(CHAIN_VARS), rng.choice(CHAIN_VARS)
            k = rng.randint(1, 9)
            r = rng.random()
            if r < 0.4:
                rhs = f"{y} + {k}"
            elif r < 0.7:
                rhs = f"{y} - {k}"
            elif r < 0.85:
                rhs = str(rng.randint(-9, 9))
            else:
                rhs = "*"
            lines.append(f"  {x} = {rhs};")
        lines += ["  return;", "}"]
        return Program(i, "\n".join(lines) + "\n", "holds", EXIT, f"chain-{sizes[i]}")

    return _distinct(make, n, rng)


# ---------------------------------------------------------------------------
# verify-branchy: if / decrementing-while blocks, some with a divergent loop
# ---------------------------------------------------------------------------

# block counts cycle through this tuple; cost roughly doubles per block, and
# the repeated 5 puts the median of a pass inside one group of programs
BRANCHY_BLOCKS = (3, 4, 5, 5, 5, 6)
# every fourth program carries one known-divergent block
BRANCHY_DIVERGENT_EVERY = 4


TERMINATING_KINDS = ("if", "if-else", "while", "while-if")
DIVERGENT_KINDS = ("equal", "grow", "spin")


def _terminating_block(kind: str, j: int, k: int) -> list[str]:
    """One block that terminates on every input.  Loops count a fresh
    variable down under a lower-bound guard, so each has a linear ranking
    function that is bounded below under its guard."""
    step = 1 + j % 3
    guard = (">", ">=")[j % 2]
    if kind == "if":
        return [f"  int c{j} = *;", f"  if (c{j} > {k}) {{ x = x + {step}; }}"]
    if kind == "if-else":
        return [
            f"  int c{j} = *;",
            f"  if (c{j} > {k}) {{ x = x + {step}; }} else {{ y = y - {step}; }}",
        ]
    if kind == "while":
        return [
            f"  int n{j} = *;",
            f"  while (n{j} {guard} {k}) {{ n{j} = n{j} - {step}; }}",
        ]
    return [
        f"  int n{j} = *;",
        f"  while (n{j} {guard} {k}) {{",
        f"    if (x > {j % 5 - 2}) {{ y = y + 1; }}",
        f"    n{j} = n{j} - {step};",
        "  }",
    ]


def _divergent_block(kind: str, j: int, k: int) -> list[str]:
    """One block that some run reaches and never leaves: its variables are
    fresh wildcards, so the loop guard is satisfiable on entry."""
    if kind == "equal":
        return [f"  int a{j} = *;", f"  int b{j} = *;", f"  while (a{j} == b{j}) {{ }}"]
    if kind == "grow":
        return [
            f"  int d{j} = *;",
            f"  while (d{j} >= {k}) {{ d{j} = d{j} + {1 + j % 3}; }}",
        ]
    return [f"  int c{j} = *;", f"  if (c{j} > {k}) {{ while (1) {{ }} }}"]


_BRANCHY_VAR = re.compile(r"\b(x|y|[abcdn]\d)\b")


def verify_branchy(seed: int, n: int) -> list[Program]:
    rng = random.Random(f"verify-branchy/{seed}")

    def make(i: int, rng: random.Random) -> Program:
        # the blocks and constants of program i depend on i alone: a
        # different block order, guard or constant changes the encoder's
        # work by up to a fifth.  The seed names the variables.
        blocks = BRANCHY_BLOCKS[i % len(BRANCHY_BLOCKS)]
        kinds = [TERMINATING_KINDS[(i + j) % len(TERMINATING_KINDS)] for j in range(blocks)]
        divergent_at = -1
        if i % BRANCHY_DIVERGENT_EVERY == BRANCHY_DIVERGENT_EVERY - 1:
            divergent_at = (i // BRANCHY_DIVERGENT_EVERY) % blocks
            kinds[divergent_at] = DIVERGENT_KINDS[(i // BRANCHY_DIVERGENT_EVERY) % len(DIVERGENT_KINDS)]
        lines = ["//@ ctl: AF(Exit(_))", "void main() {", "  int x = *;", "  int y = *;"]
        for j, kind in enumerate(kinds):
            block = _divergent_block if j == divergent_at else _terminating_block
            lines += block(kind, j, (i + 3 * j) % 9 - 3)
        lines += ["  return;", "}"]
        names: dict[str, str] = {}
        pool = rng.sample(range(100), 40)

        def rename(m: re.Match) -> str:
            if m.group(0) not in names:
                names[m.group(0)] = f"{m.group(0)[0]}{pool[len(names)]}"
            return names[m.group(0)]

        source = _BRANCHY_VAR.sub(rename, "\n".join(lines[1:]))
        expected = "violated" if divergent_at >= 0 else "holds"
        return Program(i, f"{lines[0]}\n{source}\n", expected, EXIT, f"branchy-{blocks}")

    return _distinct(make, n, rng)


def item1_probe(seed: int) -> list[Program]:
    """Loops that diverge on some inputs but whose guard yields a ranking
    function that is not bounded below (ROADMAP item 1).  They are kept
    out of the timed workloads and reported on their own."""
    rng = random.Random(f"item1-probe/{seed}")
    k, s = rng.randint(-3, 3), rng.randint(1, 3)
    bodies = [
        f"while (n != {k}) {{ n = n - 1; }}",
        f"while (n != y) {{ y = y - 2; }}",
        f"while (n != {k}) {{ n = n - {s + 1}; }}",
        "while (y < n) { if (y <= n) { n = n + 2; } else { y = 1; } }",
    ]
    return [
        Program(
            i,
            "//@ ctl: AF(Exit(_))\nvoid main() {\n  int y = *;\n  int n = *;\n"
            f"  {body}\n  return;\n}}\n",
            "violated",
            EXIT,
            "item1",
        )
        for i, body in enumerate(bodies)
    ]


# ---------------------------------------------------------------------------
# repair-deep: violated programs in the shapes of three fixtures
# ---------------------------------------------------------------------------

_NAMES = ("p", "q", "r", "s", "u", "v", "w", "x", "y", "z", "k", "m")


def _names(rng: random.Random, count: int) -> list[str]:
    return rng.sample(_NAMES, count)


def _overview(i: int, rng: random.Random) -> Program:
    # y is set to its target only after a loop that spins while x == y:
    # inserting the target assignment before or inside the loop fixes it
    y, c, x = _names(rng, 3)
    y0 = rng.randint(-3, 3)
    target = y0 + rng.randint(1, 6)
    src = (
        f"//@ ctl: AF({y}={target})\n"
        "void main() {\n"
        f"  int {y} = {y0};\n"
        f"  int {c} = *;\n"
        f"  int {x} = *;\n"
        f"  if ({c} > {rng.randint(0, 12)}) {{ {x} = {y0}; }}\n"
        f"  while ({x} == {y}) {{ }}\n"
        f"  {y} = {target};\n"
        "}\n"
    )
    return Program(i, src, "repaired", (y, target), "overview")


def _equal_guard(i: int, rng: random.Random) -> Program:
    x, y = _names(rng, 2)
    pre = rng.choice(("", f"  {x} = {x} + {rng.randint(1, 5)};\n", f"  {y} = {y} - {rng.randint(1, 5)};\n"))
    src = (
        "//@ ctl: AF(Exit(_))\n"
        "void main() {\n"
        f"  int {x} = *;\n"
        f"  int {y} = *;\n"
        f"{pre}"
        f"  while ({x} == {y}) {{ }}\n"
        "  return;\n"
        "}\n"
    )
    return Program(i, src, "repaired", EXIT, "equal_guard")


def _subtitle_loop(i: int, rng: random.Random) -> Program:
    # the callee may return a non-positive step, so the loop can spin
    b, end, tmp, n = _names(rng, 4)
    callee = rng.choice(("subtitles", "next_step", "read_len"))
    src = (
        "//@ ctl: AF(Exit(_))\n"
        f"int {callee}(int {n}) {{\n"
        f"  int {tmp} = *;\n"
        f"  return {tmp};\n"
        "}\n"
        "\n"
        "void main() {\n"
        f"  int {b} = {rng.randint(-3, 3)};\n"
        f"  int {end} = *;\n"
        f"  while ({b} < {end}) {{\n"
        f"    int {tmp} = {callee}({b});\n"
        f"    {b} = {b} + {tmp};\n"
        "  }\n"
        "  return;\n"
        "}\n"
    )
    return Program(i, src, "repaired", EXIT, "subtitle_loop")


# programs of each shape per pass.  Overview-shaped repairs take about 20x
# longer than the others; with three of five, the pooled median and the
# tail percentile both fall among them, away from the gap between the
# groups, where the run-to-run noise of the median would be largest.
REPAIR_MIX = ((_overview, 3), (_subtitle_loop, 1), (_equal_guard, 1))


def repair_deep(seed: int, n: int) -> list[Program]:
    rng = random.Random(f"repair-deep/{seed}")
    shapes = [make for make, count in REPAIR_MIX for _ in range(count)]
    rng.shuffle(shapes)
    return _distinct(lambda i, rng: shapes[i](i, rng), n, rng)


# programs per pass; each pass takes about 5 s at the seed on a 2-CPU
# 2.1 GHz machine.  Short passes, repeated, let medians absorb the bursts
# of slowdown a shared machine shows at the scale of seconds.
WORKLOADS = {
    "verify-chain": (verify_chain, 12),
    "verify-branchy": (verify_branchy, 18),
    "repair-deep": (repair_deep, sum(count for _, count in REPAIR_MIX)),
}


def generate(workload: str, seed: int) -> list[Program]:
    make, n = WORKLOADS[workload]
    return make(seed, n)
