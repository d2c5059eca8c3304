"""Command-line surface: gb, cone, member and the verify subcommands.

Exit codes: 0 success or verdict pass, 1 usage or parse error (or a
Groebner basis past its caps), 2 verification verdict fail, 3
inconclusive (solver non-convergence).
Results go to stdout, diagnostics to stderr.  Every command takes
``--help``; every error is one ``error: ...`` line on stderr, a closed
or full stdout among them (exit 1).  The parser is the standard
library's argparse, so a command loads only the tcone modules it uses.

``main`` runs one command in the calling process and changes nothing in
it.  ``run`` is the process entry of ``python -m tcone.cli`` and of the
``tcone`` script: it runs BLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is already set, and ends the process without
interpreter teardown.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from . import textio
from .cone import cone_membership, tangent_cone_at_infinity
from .groebner import buchberger
from .polyring import ORDERS_BY_NAME, _ideal_generators
from .textio import parse_ideal, parse_point

if TYPE_CHECKING:
    from .numeric import VerificationReport

# Keyed by the verdict strings of tcone.numeric, which only the verify
# commands import: gb, cone and member never need it, and importing the
# module, though it loads numpy only inside its functions, would
# lengthen their start.
_VERDICT_EXIT = {"pass": 0, "fail": 2, "inconclusive": 3}

# The long options that take no value.  Every other one takes the next token.
_FLAGS = ("--json", "--help")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise in place of printing the usage and exiting with 2, so that
        main reports one line and returns 1."""
        raise ValueError(message)


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each option that takes a value joined to a value that
    starts with '-': ``--point -1,0,0`` becomes ``--point=-1,0,0``.

    argparse would read ``-1,0,0`` as an option.  Every tcone option is
    long, so a token with a single leading '-' after one is its value.
    """
    out: list[str] = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + argv[i:]
        prev = out[-1] if out else ""
        if (arg[:1] == "-" and arg[1:2] != "-" and prev[:2] == "--"
                and "=" not in prev and prev not in _FLAGS):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _ideal_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


def _load_ideal(path: str):
    with open(path, encoding="utf-8-sig") as fh:  # skips a leading byte-order mark
        return parse_ideal(fh.read(), source=path)


def _emit_report(report: VerificationReport, as_json: bool) -> int:
    print(textio.render_json(report) if as_json else textio.render_report_text(report))
    print(f"verdict: {report.verdict} ({report.diagnostics})", file=sys.stderr)
    return _VERDICT_EXIT[report.verdict]


def _print_generators(args, build) -> int:
    """gb and cone: print the generators of build(polynomials, order)."""
    order = ORDERS_BY_NAME[args.order]
    result = build(_load_ideal(args.ideal_file).polynomials, order)
    if args.json:
        print(textio.render_json(result))
    else:
        for g in result.generators:
            print(textio.render_polynomial(g, order))
    return 0


def gb(args) -> int:
    """Reduced Groebner basis of the ideal in IDEAL_FILE."""
    return _print_generators(args, buchberger)


def cone(args) -> int:
    """Generators of the tangent cone at infinity of V(IDEAL_FILE)."""
    return _print_generators(args, tangent_cone_at_infinity)


def member(args) -> int:
    """Exact membership of a point in the tangent cone at infinity."""
    ideal = _load_ideal(args.ideal_file)
    parsed = parse_point(args.point, ideal.context)
    if parsed.rationals is None:
        raise ValueError("member requires an exact rational point")
    result = tangent_cone_at_infinity(ideal.polynomials, ORDERS_BY_NAME[args.order])
    inside = cone_membership(result, parsed.rationals)
    if args.json:
        print(textio.dumps({
            "vars": list(ideal.context.names),
            "point": [str(x) for x in parsed.rationals],
            "member": inside,
        }))
    else:
        print("true" if inside else "false")
    return 0


def _ray_report(args, report, **options) -> int:
    """verify ratio and distance: load the ideal, parse the direction, build
    the reduced basis and the schedule, in that order, and emit the report."""
    from .numeric import TSchedule
    ideal = _load_ideal(args.ideal_file)
    v = parse_point(args.direction, ideal.context).complexes
    basis = buchberger(ideal.polynomials, ORDERS_BY_NAME[args.order])
    sched = TSchedule(args.t0, args.factor, args.steps)
    return _emit_report(report(basis.generators, v, sched, pass_decay=args.pass_decay,
                               plateau_tol=args.plateau_tol, **options), args.json)


def verify_ratio(args) -> int:
    """Degree-normalized generator decay along a ray."""
    from .numeric import loj_ratio_schedule
    return _ray_report(args, loj_ratio_schedule)


def verify_distance(args) -> int:
    """Distance-ratio decay dist(t*v, V)/t along a ray."""
    from .numeric import distance_ratio_report
    return _ray_report(args, distance_ratio_report, seed=args.seed,
                       residual_tol=args.residual_tol)


def verify_sample(args) -> int:
    """Far-point direction sampling (single-generator ideals only)."""
    from . import numeric
    gens, _ = _ideal_generators(_load_ideal(args.ideal_file).polynomials)
    if len(gens) != 1:
        raise ValueError(
            "verify sample handles hypersurfaces only: the ideal file must "
            "contain exactly one nonzero polynomial")
    report = numeric.far_sample_report(gens[0], radius=args.radius,
                                       trials=args.trials, seed=args.seed,
                                       residual_tol=args.sample_tol,
                                       min_fraction=args.min_fraction)
    return _emit_report(report, args.json)


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The command tree.  Each command's parser sets ``run`` to its function.

    Every command is listed, but only one named in argv gets its arguments:
    adding them all took about a millisecond on every call.
    """
    named = [arg for arg in argv if arg[:1] != "-"][:2]  # a command, or verify and its kind

    def add(commands, name, doc):
        parser = commands.add_parser(name, help=doc, description=doc,
                                     add_help=False, allow_abbrev=False)
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        return parser

    def command(commands, name, run, *options, order=True):
        """``options`` are (flag, type, default, help); no default makes one required."""
        parser = add(commands, name, run.__doc__)
        parser.set_defaults(run=run)
        if name not in named:
            return
        parser.add_argument("ideal_file", metavar="IDEAL_FILE", type=_ideal_file)
        if order:
            parser.add_argument("--order", default="grevlex", choices=sorted(ORDERS_BY_NAME),
                                help="Monomial order. (default: %(default)s)")
        parser.add_argument("--json", action="store_true", help="Emit JSON instead of text.")
        for flag, kind, default, text in options:
            if default is None:
                parser.add_argument(flag, required=True, help=text)
            else:
                parser.add_argument(flag, type=kind, default=default,
                                    help=f"{text} (default: %(default)s)".lstrip())

    ray = [("--direction", str, None, "Ray direction, e.g. '0,0,1'."),
           ("--t0", float, 10.0, ""), ("--factor", float, 10.0, ""), ("--steps", int, 5, "")]
    top = _Parser(prog="tcone", add_help=False, allow_abbrev=False,
                  description="Tangent cones at infinity of affine complex varieties.")
    top.add_argument("--help", action="help", help="Show this message and exit.")
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    command(commands, "gb", gb)
    command(commands, "cone", cone)
    command(commands, "member", member,
            ("--point", str, None, "Exact rational point, e.g. '0,0,1'."))
    kinds = add(commands, "verify", "Numeric cross-validation of the cone against its "
                "definition.").add_subparsers(metavar="COMMAND", required=True)
    command(kinds, "ratio", verify_ratio, *ray,
            ("--pass-decay", float, 0.5, "r(last)/r(first) bound for a pass."),
            ("--plateau-tol", float, 0.1,
             "Relative variation over the last three steps for a fail."))
    command(kinds, "distance", verify_distance, *ray, ("--seed", int, 42, ""),
            ("--residual-tol", float, 1e-10,
             "Normalized residual below which a landing counts as on V."),
            ("--pass-decay", float, 0.5, ""), ("--plateau-tol", float, 0.1, ""))
    command(kinds, "sample", verify_sample, ("--radius", float, 1e6, ""),
            ("--trials", int, 100, ""), ("--seed", int, 42, ""),
            ("--sample-tol", float, 1e-2, "Top-form residual bound counted as consistent."),
            ("--min-fraction", float, 0.95,
             "Fraction of directions that must be consistent for a pass."), order=False)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            argv = _attach_values(argv)
            args = _parser(argv).parse_args(argv)
            code = args.run(args)
        except SystemExit:  # --help printed the help text
            code = 0
        if sys.stdout is not None:  # None when the process started with stdout closed
            sys.stdout.flush()  # a closed or full stdout fails here, not at exit
        return code
    except (ValueError, OSError) as err:  # usage and parse errors among them
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The process entry: main() on sys.argv, then os._exit with its code.

    The numeric commands solve systems of at most 6x6 and root batches of
    about 100 rows, where BLAS runs on one thread anyway, so starting and
    joining OpenBLAS's thread pool is pure cost; a user's own
    OPENBLAS_NUM_THREADS wins.  main has flushed stdout, or reported why
    it could not, so nothing is left for interpreter teardown to do.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
    code = main()
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:  # nowhere left to report it
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
