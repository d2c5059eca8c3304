"""Traced runs: spans and counts around the public functions of each module.

Every binding of a listed function is replaced while a Tracer is active:
the defining module and each tcone module that imported it by name, so
calls made inside the program are seen as well as the benchmark's own.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("polyring", "groebner", "cone", "numeric", "textio", "cli")

# (module, function, span name): one span per call.
SPANNED = [
    ("textio", "parse_ideal", "textio.parse_ideal"),
    ("textio", "render_polynomial", "textio.render"),
    ("textio", "render_json", "textio.render"),
    ("textio", "render_report_text", "textio.render"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "s_polynomial", "groebner.s_polynomial"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("groebner", "reduce_basis", "groebner.reduce_basis"),
    ("groebner", "ideal_member", "groebner.ideal_member"),
    ("cone", "tangent_cone_at_infinity", "cone.tangent_cone_at_infinity"),
    ("cone", "cone_membership", "cone.cone_membership"),
    ("numeric", "estimate_distance_upper", "numeric.estimate_distance_upper"),
    ("numeric", "distance_ratio_report", "numeric.distance_ratio_report"),
    ("numeric", "loj_ratio_schedule", "numeric.loj_ratio_schedule"),
    ("numeric", "roots_univariate", "numeric.roots_univariate"),
    ("numeric", "substitute_partial", "numeric.substitute_partial"),
    ("numeric", "far_sample_report", "numeric.far_sample_report"),
    ("cli", "main", "cli.main"),
]
# Called too often for a span each: counted (and, for evaluate_complex, timed).
TIMED = [("numeric", "evaluate_complex", "numeric.evaluate_complex")]
COUNTED = [("polyring", "leading_term", "polyring.leading_term")]
COUNTED_METHODS = [("MonomialOrder", "key", "polyring.order_key"),
                   ("Polynomial", "__mul__", "polyring.mul")]
# Spans whose arguments and results feed a metric, so are kept.
KEEP_RESULTS = {"groebner.normal_form", "groebner.reduce_basis",
                "numeric.estimate_distance_upper", "numeric.roots_univariate"}

# Per-layer metrics: (name, unit, better).  Kept in step with BENCHMARK.json.
PER_LAYER = [
    ("groebner.buchberger.calls", "count", "lower"),
    ("groebner.buchberger.ms", "ms", "lower"),
    ("groebner.buchberger.self_ms", "ms", "lower"),
    ("groebner.s_polynomial.calls", "count", "lower"),
    ("groebner.normal_form.calls", "count", "lower"),
    ("groebner.normal_form.ms", "ms", "lower"),
    ("groebner.normal_form.zero_frac", "frac", "lower"),
    ("groebner.reduce_basis.ms", "ms", "lower"),
    ("groebner.basis_size.max", "count", "lower"),
    ("groebner.ideal_member.ms", "ms", "lower"),
    ("polyring.order_key.calls", "count", "lower"),
    ("polyring.mul.calls", "count", "lower"),
    ("polyring.leading_term.calls", "count", "lower"),
    ("cone.tangent_cone_at_infinity.self_ms", "ms", "lower"),
    ("cone.cone_membership.ms", "ms", "lower"),
    ("numeric.evaluate_complex.calls", "count", "lower"),
    ("numeric.evaluate_complex.ms", "ms", "lower"),
    ("numeric.estimate_distance_upper.ms", "ms", "lower"),
    ("numeric.estimate_distance_upper.converged_frac", "frac", "higher"),
    ("numeric.distance_ratio_report.ms", "ms", "lower"),
    ("numeric.loj_ratio_schedule.ms", "ms", "lower"),
    ("numeric.roots_univariate.calls", "count", "lower"),
    ("numeric.roots_univariate.ms", "ms", "lower"),
    ("numeric.roots_univariate.sweeps", "count", "lower"),
    ("numeric.roots_univariate.converged_frac", "frac", "higher"),
    ("numeric.substitute_partial.ms", "ms", "lower"),
    ("numeric.far_sample_report.ms", "ms", "lower"),
    ("textio.parse_ideal.ms", "ms", "lower"),
    ("textio.parse_ideal.calls", "count", "lower"),
    ("textio.render.ms", "ms", "lower"),
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.import.numpy_ms", "ms", "lower"),
    ("cli.import.click_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("trace.slowdown", "x", "lower"),
]


class Tracer:
    """Context manager that rebinds the listed functions to recording wrappers.

    ``op`` is the id of the benchmark operation in progress; every span
    records it.  A span is (name, start, end, parent index, op id).
    """

    def __init__(self, tcone):
        self.mods = {m: getattr(tcone, m) for m in MODULES}
        self.namespaces = [tcone] + list(self.mods.values())
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.counts: dict[str, int] = defaultdict(int)
        self.timed_s: dict[str, float] = defaultdict(float)
        self.results: dict[str, list] = defaultdict(list)
        self._undo: list = []

    def _span(self, fn, name):
        spans, stack = self.spans, self.stack
        results = self.results[name] if name in KEEP_RESULTS else None

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if results is not None:
                results.append((args, out))
            return out

        return wrapped

    def _timed(self, fn, name):
        counts, timed = self.counts, self.timed_s

        def wrapped(*args, **kwargs):
            counts[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timed[name] += perf_counter() - t0

        return wrapped

    def _counted(self, fn, name):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _rebind(self, original, wrapper):
        for ns in self.namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def __enter__(self):
        for table, make in ((SPANNED, self._span), (TIMED, self._timed),
                            (COUNTED, self._counted)):
            for mod, fn, name in table:
                original = getattr(self.mods[mod], fn)
                self._rebind(original, make(original, name))
        for cls_name, meth, name in COUNTED_METHODS:
            cls = getattr(self.mods["polyring"], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._counted(original, name))
        return self

    def __exit__(self, *exc):
        for ns, attr, value in reversed(self._undo):
            setattr(ns, attr, value)
        self._undo.clear()
        return False

    def write(self, path: str):
        """Spans as JSON lines, times in microseconds from the first span."""
        done = [s for s in self.spans if s is not None]
        t_base = min((s[1] for s in done), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, t0, t1, parent, op = s
                out.write(json.dumps({"id": i, "name": name,
                                      "start_us": round((t0 - t_base) * 1e6, 1),
                                      "end_us": round((t1 - t_base) * 1e6, 1),
                                      "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics of the traced passes, as totals per pass."""
        spans = self.spans
        child_s = defaultdict(float)
        for s in spans:
            if s[3] is not None:
                child_s[s[3]] += s[2] - s[1]
        total_ms = defaultdict(float)
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ms[name] += (t1 - t0 - child_s[i]) * 1e3
            # A render nested in a render (render_json -> render_polynomial)
            # is already inside its parent's time.
            if parent is None or spans[parent][0] != name:
                total_ms[name] += (t1 - t0) * 1e3
        res = self.results

        def frac(name, pred):
            outs = res[name]
            return sum(1 for _, out in outs if pred(out)) / len(outs) if outs else 0.0

        m = {
            "groebner.buchberger.calls": calls["groebner.buchberger"],
            "groebner.buchberger.ms": total_ms["groebner.buchberger"],
            "groebner.buchberger.self_ms": self_ms["groebner.buchberger"],
            "groebner.s_polynomial.calls": calls["groebner.s_polynomial"],
            "groebner.normal_form.calls": calls["groebner.normal_form"],
            "groebner.normal_form.ms": total_ms["groebner.normal_form"],
            "groebner.normal_form.zero_frac": frac("groebner.normal_form",
                                                   lambda out: out.is_zero()),
            "groebner.reduce_basis.ms": total_ms["groebner.reduce_basis"],
            "groebner.basis_size.max": max((len(args[0]) for args, _
                                            in res["groebner.reduce_basis"]), default=0),
            "groebner.ideal_member.ms": total_ms["groebner.ideal_member"],
            "polyring.order_key.calls": self.counts["polyring.order_key"],
            "polyring.mul.calls": self.counts["polyring.mul"],
            "polyring.leading_term.calls": self.counts["polyring.leading_term"],
            "cone.tangent_cone_at_infinity.self_ms": self_ms["cone.tangent_cone_at_infinity"],
            "cone.cone_membership.ms": total_ms["cone.cone_membership"],
            "numeric.evaluate_complex.calls": self.counts["numeric.evaluate_complex"],
            "numeric.evaluate_complex.ms": self.timed_s["numeric.evaluate_complex"] * 1e3,
            "numeric.estimate_distance_upper.ms": total_ms["numeric.estimate_distance_upper"],
            "numeric.estimate_distance_upper.converged_frac": frac(
                "numeric.estimate_distance_upper", lambda out: out.converged),
            "numeric.distance_ratio_report.ms": total_ms["numeric.distance_ratio_report"],
            "numeric.loj_ratio_schedule.ms": total_ms["numeric.loj_ratio_schedule"],
            "numeric.roots_univariate.calls": calls["numeric.roots_univariate"],
            "numeric.roots_univariate.ms": total_ms["numeric.roots_univariate"],
            "numeric.roots_univariate.sweeps": sum(out.sweeps for _, out
                                                   in res["numeric.roots_univariate"]),
            "numeric.roots_univariate.converged_frac": frac(
                "numeric.roots_univariate", lambda out: out.converged),
            "numeric.substitute_partial.ms": total_ms["numeric.substitute_partial"],
            "numeric.far_sample_report.ms": total_ms["numeric.far_sample_report"],
            "textio.parse_ideal.ms": total_ms["textio.parse_ideal"],
            "textio.parse_ideal.calls": calls["textio.parse_ideal"],
            "textio.render.ms": total_ms["textio.render"],
            "cli.main_ms": total_ms["cli.main"],
        }
        # Fractions are already per call; the rest are totals over all passes.
        return {k: (v if k.endswith(("_frac", ".max")) else v / passes) for k, v in m.items()}


def _importtime(src: str) -> dict[str, float]:
    """Cumulative import times in ms of tcone.cli, numpy and click."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tcone.cli"],
                          env=env, capture_output=True, text=True, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
    return {"cli.import_ms": found["tcone.cli"],
            "cli.import.numpy_ms": found.get("numpy", 0.0),
            "cli.import.click_ms": found.get("click", 0.0)}


def cli_import_metrics(src: str, repeats: int = 3) -> dict[str, float]:
    """Bare interpreter start and the CLI's import breakdown, medians of repeats."""
    starts, imports = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        starts.append((perf_counter() - t0) * 1e3)
        imports.append(_importtime(src))
    out = {"cli.interp_start_ms": statistics.median(starts)}
    for key in imports[0]:
        out[key] = statistics.median(d[key] for d in imports)
    return out
