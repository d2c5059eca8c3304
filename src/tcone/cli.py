"""Command-line surface: gb, cone, member and the verify subcommands.

Exit codes: 0 success or verdict pass, 1 usage or parse error, 2
verification verdict fail, 3 inconclusive (solver non-convergence).
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import textio
from .cone import cone_membership, tangent_cone_at_infinity
from .groebner import ZeroIdealError, buchberger
from .polyring import ORDERS_BY_NAME, ContextMismatchError, ZeroPolynomialError
from .textio import ParseError, parse_ideal, parse_point

if TYPE_CHECKING:
    from .numeric import VerificationReport

# Keyed by the verdict strings of tcone.numeric, which is imported only by
# the verify commands: gb, cone and member never need it, and importing it
# would lengthen their start.
_VERDICT_EXIT = {"pass": 0, "fail": 2, "inconclusive": 3}

_order_option = click.option(
    "--order", "order_name", default="grevlex",
    type=click.Choice(sorted(ORDERS_BY_NAME)), show_default=True,
    help="Monomial order.")
_json_option = click.option(
    "--json", "as_json", is_flag=True, help="Emit JSON instead of text.")


def _load_ideal(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_ideal(text, source=path)


def _schedule_options(fn):
    fn = click.option("--steps", default=5, show_default=True, type=int)(fn)
    fn = click.option("--factor", default=10.0, show_default=True, type=float)(fn)
    fn = click.option("--t0", default=10.0, show_default=True, type=float)(fn)
    return fn


def _emit_report(report: VerificationReport, as_json: bool) -> int:
    if as_json:
        click.echo(textio.render_json(report))
    else:
        click.echo(textio.render_report_text(report))
    click.echo(f"verdict: {report.verdict} ({report.diagnostics})", err=True)
    return _VERDICT_EXIT[report.verdict]


@click.group()
def cli():
    """Tangent cones at infinity of affine complex varieties."""


@cli.command()
@click.argument("ideal_file", type=click.Path(exists=True, dir_okay=False))
@_order_option
@_json_option
def gb(ideal_file, order_name, as_json):
    """Reduced Groebner basis of the ideal in IDEAL_FILE."""
    ideal = _load_ideal(ideal_file)
    basis = buchberger(ideal.polynomials, ORDERS_BY_NAME[order_name])
    if as_json:
        click.echo(textio.render_json(basis))
    else:
        for g in basis:
            click.echo(textio.render_polynomial(g, basis.order))


@cli.command()
@click.argument("ideal_file", type=click.Path(exists=True, dir_okay=False))
@_order_option
@_json_option
def cone(ideal_file, order_name, as_json):
    """Generators of the tangent cone at infinity of V(IDEAL_FILE)."""
    ideal = _load_ideal(ideal_file)
    result = tangent_cone_at_infinity(ideal.polynomials, ORDERS_BY_NAME[order_name])
    if as_json:
        click.echo(textio.render_json(result))
    else:
        for g in result.generators:
            click.echo(textio.render_polynomial(g, result.generators.order))


@cli.command()
@click.argument("ideal_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--point", required=True, help="Exact rational point, e.g. '0,0,1'.")
@_order_option
@_json_option
def member(ideal_file, point, order_name, as_json):
    """Exact membership of a point in the tangent cone at infinity."""
    ideal = _load_ideal(ideal_file)
    parsed = parse_point(point, ideal.context)
    if parsed.rationals is None:
        raise click.UsageError("member requires an exact rational point")
    result = tangent_cone_at_infinity(ideal.polynomials, ORDERS_BY_NAME[order_name])
    inside = cone_membership(result, parsed.rationals)
    if as_json:
        click.echo(textio.dumps({
            "vars": list(ideal.context.names),
            "point": [str(x) for x in parsed.rationals],
            "member": inside,
        }))
    else:
        click.echo("true" if inside else "false")


@cli.group()
def verify():
    """Numeric cross-validation of the cone against its definition."""


@verify.command("ratio")
@click.argument("ideal_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--direction", required=True, help="Ray direction, e.g. '0,0,1'.")
@_schedule_options
@click.option("--pass-decay", default=0.5, show_default=True, type=float,
              help="r(last)/r(first) bound for a pass.")
@click.option("--plateau-tol", default=0.1, show_default=True, type=float,
              help="Relative variation over the last three steps for a fail.")
@_order_option
@_json_option
def verify_ratio(ideal_file, direction, t0, factor, steps, pass_decay,
                 plateau_tol, order_name, as_json):
    """Degree-normalized generator decay along a ray."""
    from . import numeric
    ideal = _load_ideal(ideal_file)
    v = parse_point(direction, ideal.context).complexes
    basis = buchberger(ideal.polynomials, ORDERS_BY_NAME[order_name])
    sched = numeric.TSchedule(t0=t0, factor=factor, steps=steps)
    report = numeric.loj_ratio_schedule(basis.generators, v, sched,
                                        pass_decay=pass_decay,
                                        plateau_tol=plateau_tol)
    return _emit_report(report, as_json)


@verify.command("distance")
@click.argument("ideal_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--direction", required=True, help="Ray direction, e.g. '0,0,1'.")
@_schedule_options
@click.option("--seed", default=42, show_default=True, type=int)
@click.option("--residual-tol", default=1e-10, show_default=True, type=float,
              help="Normalized residual below which a landing counts as on V.")
@click.option("--pass-decay", default=0.5, show_default=True, type=float)
@click.option("--plateau-tol", default=0.1, show_default=True, type=float)
@_order_option
@_json_option
def verify_distance(ideal_file, direction, t0, factor, steps, seed, residual_tol,
                    pass_decay, plateau_tol, order_name, as_json):
    """Distance-ratio decay dist(t*v, V)/t along a ray."""
    from . import numeric
    ideal = _load_ideal(ideal_file)
    v = parse_point(direction, ideal.context).complexes
    basis = buchberger(ideal.polynomials, ORDERS_BY_NAME[order_name])
    sched = numeric.TSchedule(t0=t0, factor=factor, steps=steps)
    opts = numeric.SolverOptions(seed=seed, residual_tol=residual_tol)
    report = numeric.distance_ratio_report(basis.generators, v, sched, opts,
                                   pass_decay=pass_decay, plateau_tol=plateau_tol)
    return _emit_report(report, as_json)


@verify.command("sample")
@click.argument("ideal_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--radius", default=1e6, show_default=True, type=float)
@click.option("--trials", default=100, show_default=True, type=int)
@click.option("--seed", default=42, show_default=True, type=int)
@click.option("--sample-tol", default=1e-2, show_default=True, type=float,
              help="Top-form residual bound counted as consistent.")
@click.option("--min-fraction", default=0.95, show_default=True, type=float,
              help="Fraction of directions that must be consistent for a pass.")
@_json_option
def verify_sample(ideal_file, radius, trials, seed, sample_tol, min_fraction, as_json):
    """Far-point direction sampling (single-generator ideals only)."""
    from . import numeric
    ideal = _load_ideal(ideal_file)
    nonzero = [p for p in ideal.polynomials if not p.is_zero()]
    if len(nonzero) != 1:
        raise click.UsageError(
            "verify sample handles hypersurfaces only: the ideal file must "
            "contain exactly one nonzero polynomial")
    report = numeric.far_sample_report(nonzero[0], radius=radius, trials=trials,
                                       seed=seed, residual_tol=sample_tol,
                                       min_fraction=min_fraction)
    return _emit_report(report, as_json)


def main(argv=None) -> int:
    try:
        rv = cli.main(args=argv, prog_name="tcone", standalone_mode=False)
    except click.UsageError as err:
        click.echo(f"error: {err.format_message()}", err=True)
        return 1
    except click.ClickException as err:
        click.echo(f"error: {err.format_message()}", err=True)
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (ParseError, ZeroIdealError, ZeroPolynomialError,
            ContextMismatchError, ValueError, OSError) as err:
        click.echo(f"error: {err}", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
