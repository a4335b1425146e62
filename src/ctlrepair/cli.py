"""Command-line interface: verify, repair, and inspection subcommands."""

from __future__ import annotations

import json
import logging
import os
import pathlib
import random
import sys

import click

from . import ctl as ctl_mod
from . import frontend as fe
from . import gwre as gw
from . import pure_logic as pl
from . import repair as rp
from .datalog_engine import DatalogError, DatalogProgram

_PARSE_ERRORS = (
    fe.ImpSyntaxError,
    ctl_mod.CtlSyntaxError,
    rp.PropertyMissing,
    gw.UnsupportedProgram,
    DatalogError,
)


def _setup_logging() -> None:
    level_name = os.environ.get("CTLREPAIR_LOG", "").strip().upper()
    level = getattr(logging, level_name, None) if level_name else None
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _read_source(path: str) -> str:
    return pathlib.Path(path).read_text()


def _effect(path: str) -> gw.Re:
    """The guarded-effect expression of the program at ``path``; exit 2 when
    a loop summary is inconclusive."""
    program = fe.build_cfg(fe.parse(_read_source(path)))
    try:
        return gw.cfg_to_gwre(program, pl.Memo()).phi
    except gw.SummaryInconclusive as exc:
        click.echo(f"inconclusive: {exc}", err=True)
        sys.exit(2)


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))


@click.group(name="ctlrepair")
def cli() -> None:
    """Verify temporal properties of small imperative programs and
    synthesize source patches for violations."""


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ctl", "ctl_text", default=None, help="Property (overrides the //@ ctl: annotation).")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report on stdout.")
def verify(file: str, ctl_text: str | None, as_json: bool) -> None:
    """Check whether FILE satisfies its property. Exit 0 holds, 1 violated, 2 unknown."""
    source = _read_source(file)
    analysis = rp.analyze(source, ctl_text)
    if analysis.unknown:
        verdict, code = "Unknown", 2
    elif analysis.holds:
        verdict, code = "Verified", 0
    else:
        verdict, code = "Violated", 1
    if as_json:
        _emit_json(
            {
                "verdict": verdict,
                "property": analysis.property_text,
                "detail": analysis.unknown or "",
            }
        )
    else:
        click.echo(f"{verdict}: {analysis.property_text}")
        if analysis.unknown:
            click.echo(analysis.unknown, err=True)
    sys.exit(code)


_DEFAULTS = rp.RepairConfig()


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ctl", "ctl_text", default=None, help="Property (overrides the //@ ctl: annotation).")
@click.option("--depth", default=_DEFAULTS.depth, type=click.IntRange(min=1), show_default=True, help="Maximum rounds of nested repair.")
@click.option("--alpha-budget", default=_DEFAULTS.alpha_budget, type=click.IntRange(min=1), show_default=True, help="Cap on tried fact instantiations.")
@click.option("--xi-budget", default=_DEFAULTS.xi_budget, type=click.IntRange(min=0), show_default=True, help="Cap on signed facts per search.")
@click.option("--max-add", default=_DEFAULTS.max_add, type=click.IntRange(min=0), show_default=True, help="Maximum added facts per patch.")
@click.option("--max-delete", default=_DEFAULTS.max_delete, type=click.IntRange(min=0), show_default=True, help="Maximum deleted fact families per patch.")
@click.option(
    "--template-order",
    default=",".join(_DEFAULTS.template_order),
    show_default=True,
    help="Comma-separated template priority.",
)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report on stdout.")
def repair(
    file: str,
    ctl_text: str | None,
    depth: int,
    alpha_budget: int,
    xi_budget: int,
    max_add: int,
    max_delete: int,
    template_order: str,
    as_json: bool,
) -> None:
    """Search for source patches making FILE satisfy its property.

    Exit 0 when the property holds or patches were written, 1 when no patch
    was found, 2 when the analysis is inconclusive.
    """
    source = _read_source(file)
    try:
        config = rp.RepairConfig(
            template_order=tuple(t.strip() for t in template_order.split(",") if t.strip()),
            alpha_budget=alpha_budget,
            xi_budget=xi_budget,
            max_add=max_add,
            max_delete=max_delete,
            depth=depth,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    result = rp.repair_loop(source, config, ctl_text)
    report = result.to_json()
    fixed_path = None
    if result.patches:
        fixed_path = pathlib.Path(file).with_suffix("").as_posix() + ".fixed.imp"
        pathlib.Path(fixed_path).write_text(result.patches[0].source)
        report["fixed_file"] = fixed_path
    if as_json:
        _emit_json(report)
    else:
        click.echo(f"{result.verdict}: {result.property_text}")
        if "detail" in report:
            click.echo(report["detail"], err=True)
        for i, patch in enumerate(result.patches):
            click.echo(f"patch {i + 1} (cost {patch.cost}, iterations {patch.iterations}):")
            for edit in patch.edits:
                click.echo(f"  {edit.to_json()}")
        if fixed_path:
            click.echo(f"wrote {fixed_path}")
    if result.verdict in ("Verified", "Repaired"):
        sys.exit(0)
    sys.exit(2 if result.verdict == "Unknown" else 1)


@cli.command(name="dump-gwre")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def dump_gwre(file: str) -> None:
    """Print the program's guarded-effect expression."""
    click.echo(str(_effect(file)))


@cli.command(name="dump-datalog")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ctl", "ctl_text", default=None, help="Property (overrides the //@ ctl: annotation).")
def dump_datalog(file: str, ctl_text: str | None) -> None:
    """Print the extracted Datalog program (rules, then facts)."""
    source = _read_source(file)
    analysis = rp.analyze(source, ctl_text)
    if analysis.unknown:
        click.echo(f"inconclusive: {analysis.unknown}", err=True)
        sys.exit(2)
    program = DatalogProgram(
        rules=list(analysis.rules), facts=list(analysis.enc.facts)
    )
    click.echo(program.dump(), nl=False)


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", default=0, show_default=True, help="Random seed for nondeterministic choices.")
@click.option("--fuel", default=50, type=click.IntRange(min=0), show_default=True, help="Maximum number of steps.")
def simulate(file: str, seed: int, fuel: int) -> None:
    """Draw one concrete trace from the program's effect."""
    sim = gw.simulate(_effect(file), fuel=fuel, rng=random.Random(seed))
    for state, text in sim.trace:
        click.echo(f"{state}\t{text}")
    click.echo(f"status: {sim.status}")
    click.echo(f"store: {json.dumps(sim.store, sort_keys=True)}")


def main(argv=None) -> None:
    _setup_logging()
    try:
        cli(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(3)
    except click.ClickException as exc:
        exc.show()
        sys.exit(3)
    except _PARSE_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except click.exceptions.Abort:
        click.echo("Aborted!", err=True)
        sys.exit(130)
    except Exception as exc:
        # a crash must not end in 1, which reports a violated property
        logging.getLogger(__name__).debug("internal error", exc_info=True)
        message = " ".join(str(exc).splitlines())
        click.echo(f"error: internal: {type(exc).__name__}: {message}", err=True)
        sys.exit(4)


if __name__ == "__main__":
    main()
