"""The benchmark tracer's contract with the program.

``perfbench/tracing.py`` rebinds named functions and methods of tcone for
``--trace 1`` runs.  A rename or deletion in tcone breaks it only when a
traced run starts, so this test enters the tracer on the current code.
"""

import importlib
from pathlib import Path

import pytest

import tcone

ROOT = Path(__file__).resolve().parents[1]
FIVELINES = str(ROOT / "tests" / "data" / "fivelines.ideal")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    module = importlib.import_module("tracing")
    for name in module.MODULES:
        importlib.import_module(f"tcone.{name}")
    return module


def test_tracer_rebinds_every_name_and_restores_it(tracing, capsys):
    mods = {name: getattr(tcone, name) for name in tracing.MODULES}
    functions = [(mod, fn) for table in (tracing.SPANNED, tracing.TIMED, tracing.COUNTED)
                 for mod, fn, _ in table]
    originals = {(mod, fn): getattr(mods[mod], fn) for mod, fn in functions}
    classes = {cls: getattr(mods["polyring"], cls) for cls, _, _ in tracing.COUNTED_METHODS}
    methods = {(cls, meth): classes[cls].__dict__[meth]
               for cls, meth, _ in tracing.COUNTED_METHODS}
    assert all(callable(m) for m in methods.values())  # plain functions, not properties
    namespaces = [tcone] + list(mods.values())
    before = [dict(vars(ns)) for ns in namespaces]
    class_before = {cls: dict(c.__dict__) for cls, c in classes.items()}
    f, g = mods["textio"].parse_ideal(Path(FIVELINES).read_text()).polynomials
    product = f * g

    with tracing.Tracer(tcone) as tracer:
        for (mod, fn), original in originals.items():
            assert getattr(mods[mod], fn) is not original, (mod, fn)
        for (cls, meth), original in methods.items():
            assert classes[cls].__dict__[meth] is not original, (cls, meth)
        assert mods["cli"].main(["cone", FIVELINES]) == 0
        # The parser computes on term dicts, so Polynomial.__mul__ is
        # reached here through the intersection's w * f.
        assert tcone.ideal_intersect([f], [g]) == [product]
    assert capsys.readouterr().out.splitlines() == ["x*y", "y^3*z - y*z^3", "x^3*z"]

    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "textio.parse_ideal", "cone.tangent_cone_at_infinity",
            "groebner.buchberger", "groebner.reduce_basis", "textio.render"} <= names
    for counted in ("polyring.order_key", "polyring.mul", "polyring.leading_term"):
        assert tracer.counts[counted] > 0, counted
    assert tracer.layer_metrics(1)["groebner.basis_size.max"] >= 3

    for ns, saved in zip(namespaces, before):
        assert all(vars(ns)[attr] is value for attr, value in saved.items()), ns
    for cls, saved in class_before.items():
        assert all(classes[cls].__dict__[attr] is value for attr, value in saved.items()), cls
