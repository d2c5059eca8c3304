"""The four workloads: inputs, the timed set-up, the operations and their truth.

Each workload is a function of (tcone modules, seeded rng, Env) that
returns a Plan.  Operations call the program through module
attributes at call time, so a Tracer's rebinding sees them.  Every
operation is one closed-loop request: the next starts when it returns.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import corpus

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    """One benchmark operation.

    ``check(result)`` gives (status, number of inconclusive verdicts) from
    ground truth; ``render(result)`` gives the answer's text, which feeds the
    digest and must be identical on every pass.  ``verify`` is the number of
    numeric verdicts in the answer.
    """

    label: str
    call: Callable[[], Any]
    render: Callable[[Any], str]
    check: Callable[[Any], tuple[str, int]]
    verify: int = 0


@dataclass
class Env:
    src: str       # directory that holds the tcone package
    workdir: str   # scratch directory inside the checkout
    traced: bool


@dataclass
class Plan:
    setup: Callable[[], Any]
    ops: Callable[[Any], list[Op]]
    # Runs after the measurement on the set-up state and the first pass's
    # rendered answers; returns the problems found.
    oracle: Callable[[Any, list[str]], list[str]]
    # Peak memory of the benchmark process, or of its largest child.
    peak_of_children: bool = False


def _expect(value):
    return lambda got: (OK if got == value else WRONG, False)


def _verdict_check(tc, expected_pass: bool, exact_agrees: bool = True):
    """A numeric verdict against the truth: pass on the cone, fail off it.

    ``exact_agrees`` says whether exact cone_membership gave the same truth
    as the construction; if not, the exact layer is wrong.
    """
    def check(report):
        if not exact_agrees:
            return WRONG, 0
        if report.verdict == tc.numeric.INCONCLUSIVE:
            return OK, 1
        ok = (report.verdict == tc.numeric.PASS) == expected_pass
        return (OK if ok else FAILED), 0
    return check


def _parse(tc, names, polys, label):
    return tc.textio.parse_ideal(corpus.ideal_text(names, polys), source=label)


def _basis_dicts(tc, basis, order):
    names = basis.context.names
    return [corpus.parse_rendered(tc.textio.render_polynomial(g, order), names)
            for g in basis]


def _oracle_cone(tc, sy, label, names, polys, cone):
    """sympy's verdict on a grevlex ConeDescription of <polys>."""
    order = tc.polyring.GREVLEX
    return [f"{label}: {p}" for p in sy.check(
        names, polys, "grevlex", _basis_dicts(tc, cone.source_basis, order),
        _basis_dicts(tc, cone.generators, order))]


# -- gb-corpus --------------------------------------------------------------

# Shapes (variables, generators, degree) of the seeded dense ideals, ten of
# each.  With the ten fixed entries a pass has 60 operations: the five
# slowest are fixed, so the 90th percentile falls among the (3, 2, 3)
# ideals and the median among the (2, 2, 3) and (3, 2, 2) ones, whatever
# the number of passes.
GB_SHAPES = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 3, 2), (3, 2, 3)]


def gb_corpus(tc, rng, env):
    entries = [("cone", f"cyclic-{n}", *corpus.cyclic(n)) for n in (4, 5)]
    entries += [("cone", f"katsura-{n}", *corpus.katsura(n)) for n in (3, 4, 5)]
    for label, text in (("cusp", corpus.CUSP), ("fivelines", corpus.FIVELINES),
                        ("wholering", corpus.WHOLERING)):
        entries.append(("cone", label, *corpus.parse_ideal_text(text)))
    for shape in GB_SHAPES:
        for k in range(10):
            entries.append(("cone", f"dense{shape}#{k}", *corpus.dense_ideal(rng, *shape)))
    entries.append(("lex", "katsura-3", *corpus.katsura(3)))
    names, A = corpus.dense_ideal(rng, 2, 2, 2)
    _, B = corpus.dense_ideal(rng, 2, 2, 2)
    intersect = (names, A, B)

    def setup():
        parsed = [_parse(tc, names, polys, label) for _, label, names, polys in entries]
        return parsed, (_parse(tc, names, A, "A"), _parse(tc, names, B, "B"))

    def ops(state):
        parsed, (ia, ib) = state
        out = []
        for (kind, label, _, _), ideal in zip(entries, parsed):
            F = ideal.polynomials
            if kind == "cone":
                out.append(Op(f"cone:{label}",
                              lambda F=F: tc.cone.tangent_cone_at_infinity(F, tc.polyring.GREVLEX),
                              tc.textio.render_json, lambda r: (OK, False)))
            else:
                out.append(Op(f"buchberger-lex:{label}",
                              lambda F=F: tc.groebner.buchberger(F, tc.polyring.LEX),
                              tc.textio.render_json, lambda r: (OK, False)))
        out.append(Op("intersect:dense(2,2,2)",
                      lambda: tc.groebner.ideal_intersect(ia.polynomials, ib.polynomials),
                      lambda gens: json.dumps([tc.textio.render_polynomial(g, tc.polyring.GREVLEX)
                                               for g in gens]),
                      lambda r: (OK, False)))
        return out

    def oracle(state, results):
        import oracle as sy
        problems = []
        for (kind, label, names, polys), r in zip(entries, results):
            payload = json.loads(r)
            basis = [corpus.parse_rendered(g, names) for g in payload["groebner_basis"]]
            cone = [corpus.parse_rendered(g, names) for g in payload.get("cone_generators", [])]
            order = "grevlex" if kind == "cone" else "lex"
            problems += [f"{kind}:{label}: {p}" for p in
                         sy.check(names, polys, order, basis, cone if kind == "cone" else None)]
        inames, ia, ib = intersect
        got = [corpus.parse_rendered(g, inames) for g in json.loads(results[-1])]
        if not sy.same_ideal(inames, got, sy.intersection(inames, ia, ib)):
            problems.append("intersect: ideal differs from sympy")
        return problems

    return Plan(setup, ops, oracle)


# -- member-stream ----------------------------------------------------------


def member_stream(tc, rng, env):
    line_names, line_gens, line_dir = corpus.line_ideal(rng)
    ideals = [
        ("katsura-4", *corpus.katsura(4), []),
        ("cyclic-4", *corpus.cyclic(4), corpus.CYCLIC4_CONE),
        ("fivelines", *corpus.parse_ideal_text(corpus.FIVELINES), corpus.FIVELINES_CONE),
        ("line", line_names, line_gens, [line_dir]),
    ]

    def setup():
        out = []
        for label, names, polys, _ in ideals:
            ideal = _parse(tc, names, polys, label)
            out.append((ideal, tc.cone.tangent_cone_at_infinity(ideal.polynomials,
                                                                tc.polyring.GREVLEX)))
        return out

    def ops(state):
        members, points = [], []
        for (label, names, polys, lines), (ideal, cone) in zip(ideals, state):
            basis = cone.source_basis
            n = len(names)
            lead = [corpus.leading_exponent(g, "grevlex")
                    for g in _basis_dicts(tc, basis, tc.polyring.GREVLEX)]
            std = corpus.standard_monomials(lead, n)
            queries = []
            for k in range(10):
                f = corpus.combination(rng, polys, n)
                if k % 2:
                    for e in rng.sample(std, min(2, len(std))):
                        f = corpus.padd(f, {e: Fraction(rng.choice(corpus.COEFFS))})
                queries.append((f, not k % 2))
            for k, (f, truth) in enumerate(queries):
                poly = tc.textio.parse_ideal(corpus.ideal_text(names, [f])).polynomials[0]
                members.append(Op(f"member:{label}#{k}",
                                  lambda p=poly, b=basis: tc.groebner.ideal_member(p, b),
                                  str, _expect(truth)))
            # Six points per ideal: 24 of the 64 operations in a pass, which
            # puts the median inside the queries on five-lines, a fixed ideal,
            # and the 90th percentile inside those on katsura-4.
            pts = [((0,) * n, True)]
            pts += [(corpus.point_off_cone(rng, polys, n), False) for _ in range(3)]
            pts += [(corpus.point_on_line(rng, rng.choice(lines)), True) if lines
                    else (corpus.point_off_cone(rng, polys, n), False) for _ in range(2)]
            for k, (p, truth) in enumerate(pts):
                q = tc.textio.parse_point(corpus.fmt_point(p), ideal.context).rationals
                points.append(Op(f"cone-member:{label}#{k}",
                                 lambda q=q, c=cone: tc.cone.cone_membership(c, q),
                                 str, _expect(truth)))
        return _interleave(members, points)

    def oracle(state, results):
        import oracle as sy
        problems = []
        for (label, names, polys, _), (ideal, cone) in zip(ideals, state):
            problems += _oracle_cone(tc, sy, label, names, polys, cone)
        return problems

    return Plan(setup, ops, oracle)


def _interleave(a, b):
    """a and b merged evenly, keeping the order within each."""
    tagged = [((i + 0.5) / len(a), op) for i, op in enumerate(a)]
    tagged += [((i + 0.5) / len(b), op) for i, op in enumerate(b)]
    return [op for _, op in sorted(tagged, key=lambda t: t[0])]


# -- verify-numeric ---------------------------------------------------------

# A pass has 36 operations: 16 directions, each given a distance report and
# a ratio schedule in one operation (the schedule alone takes under a
# millisecond), and 20 far samples.  So the median falls among distance
# reports and samples of several kinds and like cost, whose timing noise
# partly cancels.  With the cusp sampled at a third radius, the 90th
# percentile falls inside the fourth-slowest operation, where the dense
# surface of degree 6 and the degree-8 surface at 1e4 take about as long.
SAMPLE_RADII = (1e6, 1e3)


def _directions_check(tc, expected_pass: bool, exact_agrees: bool):
    """Both verdicts of a direction against the truth; the worse status counts."""
    single = _verdict_check(tc, expected_pass, exact_agrees)

    def check(reports):
        results = [single(r) for r in reports]
        statuses = {status for status, _ in results}
        status = WRONG if WRONG in statuses else FAILED if FAILED in statuses else OK
        return status, sum(inconclusive for _, inconclusive in results)
    return check


def verify_numeric(tc, rng, env):
    def multiples(lines):
        """One seeded integer multiple of each cone line: on the cone by construction.

        Random directions off the cone are left out: whether the solver
        converges on them, and so their cost, varies several-fold by seed.
        The factor is never 1, so a multiple is never the line's own
        direction, whose verdict can differ from its multiples'.
        """
        return [corpus.scaled(rng.choice((2, 3, -1, -2, -3)), v) for v in lines]

    def directions(on, off):
        return [(v, True) for v in on + multiples(on)] + [(v, False) for v in off]

    curves = [
        ("fivelines", corpus.FIVELINES, directions(corpus.FIVELINES_CONE, corpus.FIVELINES_OFF)),
        ("cusp", corpus.CUSP, directions(corpus.CUSP_CONE, corpus.CUSP_OFF)),
    ]
    surfaces = [("cusp", corpus.CUSP, (1e6, 1e4, 1e3)),
                ("degree-8", corpus.DEGREE8, (1e6, 1e4, 1e3))]
    surfaces += [(f"dense-d{d}", corpus.ideal_text(*corpus.dense_surface(rng, d)), SAMPLE_RADII)
                 for d in range(2, 9)]

    def setup():
        cones = []
        for label, text, _ in curves:
            ideal = tc.textio.parse_ideal(text, source=label)
            cones.append(tc.cone.tangent_cone_at_infinity(ideal.polynomials, tc.polyring.GREVLEX))
        polys = [tc.textio.parse_ideal(text, source=label).polynomials[0]
                 for label, text, _ in surfaces]
        return cones, polys

    def ops(state):
        cones, polys = state
        out = []
        sched = tc.numeric.TSchedule()
        for (label, _, dirs), cone in zip(curves, cones):
            gens = cone.source_basis.generators
            for v, on_cone in dirs:
                exact = tc.cone.cone_membership(cone, v) == on_cone
                out.append(Op(f"direction:{label}:{','.join(map(str, v))}",
                              lambda g=gens, v=v: (tc.numeric.distance_ratio_report(g, v, sched),
                                                   tc.numeric.loj_ratio_schedule(g, v, sched)),
                              lambda rs: "\n".join(map(tc.textio.render_json, rs)),
                              _directions_check(tc, on_cone, exact), verify=2))
        for (label, _, radii), f in zip(surfaces, polys):
            for R in radii:
                out.append(Op(f"sample:{label}:R={R:g}",
                              lambda f=f, R=R: tc.numeric.far_sample_report(f, radius=R),
                              tc.textio.render_json, _verdict_check(tc, True), verify=1))
        return out

    def oracle(state, results):
        import oracle as sy
        cones, _ = state
        problems = []
        for (label, text, _), cone in zip(curves, cones):
            names, polys = corpus.parse_ideal_text(text)
            problems += _oracle_cone(tc, sy, label, names, polys, cone)
        return problems

    return Plan(setup, ops, oracle)


# -- cli-cold ---------------------------------------------------------------


def _run_cli_subprocess(src, workdir, argv):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "tcone.cli", *argv], env=env, cwd=workdir,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _run_cli_in_process(tc, workdir, argv):
    """tcone.cli.main(argv) with its output captured; an escaping exception
    becomes a traceback and exit code 1, as it would in a process."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = tc.cli.main(list(argv))
            except Exception:
                traceback.print_exc()
                rc = 1
    finally:
        os.chdir(cwd)
    return rc, out.getvalue(), err.getvalue()


def cli_cold(tc, rng, env):
    """CLI commands on small generated files, one fresh process at a time.

    In the traced run each command is a call of tcone.cli.main instead, so
    that the spans inside it are recorded.
    """
    workdir, in_process = env.workdir, env.traced
    names, A = corpus.dense_ideal(rng, 2, 2, 2)
    _, B = corpus.dense_ideal(rng, 2, 2, 2)
    _, fl_polys = corpus.parse_ideal_text(corpus.FIVELINES)
    on = corpus.point_on_line(rng, rng.choice(corpus.FIVELINES_CONE))
    off = corpus.point_off_cone(rng, fl_polys, 3)
    ratio_dir = corpus.scaled(rng.choice((1, 2, 3)), rng.choice(corpus.FIVELINES_CONE))
    dist_dir = (rng.choice((1, 2, 3, -1, -2, -3)), 0)
    files = {
        "a.ideal": corpus.ideal_text(names, A),
        "b.ideal": corpus.ideal_text(names, B),
        "fivelines.ideal": corpus.FIVELINES,
        "cusp.ideal": corpus.CUSP,
        "surface.ideal": corpus.ideal_text(*corpus.dense_surface(rng, 3)),
        "malformed.ideal": corpus.MALFORMED,
        "x60.ideal": corpus.X60,
    }
    run = ((lambda argv: _run_cli_in_process(tc, workdir, argv)) if in_process
           else (lambda argv: _run_cli_subprocess(env.src, workdir, argv)))

    def library(fname):
        return tc.textio.parse_ideal(files[fname], source=fname)

    def gb_text(fname, order):
        basis = tc.groebner.buchberger(library(fname).polynomials, order)
        return "".join(tc.textio.render_polynomial(g, order) + "\n" for g in basis)

    def cone_json(fname):
        return tc.textio.render_json(tc.cone.tangent_cone_at_infinity(
            library(fname).polynomials, tc.polyring.GREVLEX)) + "\n"

    def report_text(make):
        """The library's report as the CLI prints it; None when the library
        itself fails (then only the exit code is checked)."""
        try:
            return tc.textio.render_report_text(make()) + "\n"
        except (ArithmeticError, ValueError):
            return None

    def basis_of(fname):
        return tc.groebner.buchberger(library(fname).polynomials, tc.polyring.GREVLEX).generators

    # (label, argv, expected exit code, expected stdout or None, verify?)
    commands = [
        ("gb", ["gb", "a.ideal"], 0,
         lambda: gb_text("a.ideal", tc.polyring.GREVLEX), False),
        ("gb-lex", ["gb", "b.ideal", "--order", "lex"], 0,
         lambda: gb_text("b.ideal", tc.polyring.LEX), False),
        ("cone-json", ["cone", "a.ideal", "--json"], 0, lambda: cone_json("a.ideal"), False),
        ("member-on", ["member", "fivelines.ideal", "--point", corpus.fmt_point(on)], 0,
         lambda: "true\n", False),
        ("member-off", ["member", "fivelines.ideal", "--point", corpus.fmt_point(off)], 0,
         lambda: "false\n", False),
        ("verify-ratio", ["verify", "ratio", "fivelines.ideal", "--direction",
                          corpus.fmt_point(ratio_dir)], 0,
         lambda: report_text(lambda: tc.numeric.loj_ratio_schedule(
             basis_of("fivelines.ideal"), ratio_dir, tc.numeric.TSchedule())), True),
        ("verify-distance", ["verify", "distance", "cusp.ideal", "--direction",
                             corpus.fmt_point(dist_dir)], 0,
         lambda: report_text(lambda: tc.numeric.distance_ratio_report(
             basis_of("cusp.ideal"), dist_dir, tc.numeric.TSchedule())), True),
        ("verify-sample", ["verify", "sample", "surface.ideal"], 0,
         lambda: report_text(lambda: tc.numeric.far_sample_report(
             library("surface.ideal").polynomials[0])), True),
        ("malformed", ["gb", "malformed.ideal"], 1, lambda: "", False),
        ("verify-sample-x60", ["verify", "sample", "x60.ideal"], 0,
         lambda: report_text(lambda: tc.numeric.far_sample_report(
             library("x60.ideal").polynomials[0])), True),
    ]

    def setup():
        os.makedirs(workdir, exist_ok=True)
        for fname, text in files.items():
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as out:
                out.write(text)
        # One command warms the file cache and the bytecode cache.
        return run(["gb", "a.ideal"])

    def make_check(code, expected_stdout, verify):
        def check(result):
            rc, stdout, stderr = result
            if "Traceback" in stderr:
                return FAILED, False
            if verify and rc == 3:
                return OK, True
            if rc != code:
                return FAILED, False
            if code == 1:
                lines = stderr.splitlines()
                good = stdout == "" and len(lines) == 1 and lines[0].startswith("error: ")
                return (OK if good else FAILED), False
            expected = expected_stdout()
            if expected is not None and stdout != expected:
                return WRONG, False
            return OK, False
        return check

    def ops(state):
        return [Op(f"cli:{label}", lambda argv=argv: run(argv),
                   lambda r: json.dumps(r[:2]), make_check(code, stdout, verify), verify)
                for label, argv, code, stdout, verify in commands]

    def oracle(state, results):
        import oracle as sy
        problems = []
        for fname, order in (("a.ideal", "grevlex"), ("b.ideal", "lex")):
            names_, polys = corpus.parse_ideal_text(files[fname])
            got = [corpus.parse_rendered(line, names_) for line in
                   gb_text(fname, tc.polyring.ORDERS_BY_NAME[order]).splitlines()]
            cone = None
            if order == "grevlex":
                cone = [corpus.parse_rendered(g, names_)
                        for g in json.loads(cone_json(fname))["cone_generators"]]
            problems += [f"{fname}: {p}" for p in sy.check(names_, polys, order, got, cone)]
        return problems

    return Plan(setup, ops, oracle, peak_of_children=not in_process)


WORKLOADS = {
    "gb-corpus": gb_corpus,
    "member-stream": member_stream,
    "verify-numeric": verify_numeric,
    "cli-cold": cli_cold,
}
