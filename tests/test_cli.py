import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tcone
from tcone import cli
from tcone.cli import main
from tcone.groebner import buchberger
from tcone.polyring import ORDERS_BY_NAME
from tcone.textio import parse_ideal

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

FIVELINES = str(DATA / "fivelines.ideal")
CUSP = str(DATA / "cusp.ideal")
WHOLERING = str(DATA / "wholering.ideal")
BROKEN = str(DATA / "broken.ideal")
DEGREE8 = str(DATA / "degree8.ideal")
MIXED = str(DATA / "mixed.ideal")
PARABOLA = str(DATA / "parabola.ideal")
DEGREE308 = str(DATA / "degree308.ideal")


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ideal_file(tmp_path, text):
    path = tmp_path / "input.ideal"
    path.write_text(text)
    return str(path)


# -- gb ------------------------------------------------------------------


def test_gb_text(capsys):
    code, out, _ = run(capsys, ["gb", FIVELINES])
    assert code == 0
    assert out.splitlines() == ["x*y", "y^3*z - y*z^3", "x^3*z - y^2*z + z^3"]


def test_gb_json(capsys):
    code, out, _ = run(capsys, ["gb", FIVELINES, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["groebner_basis"] == ["x*y", "y^3*z - y*z^3",
                                         "x^3*z - y^2*z + z^3"]


def test_gb_renders_coefficients_past_the_digit_limit(capsys, tmp_path):
    # 2^15000 has 4,516 digits, past the interpreter's default limit of
    # 4,300 for str(int), which the rendering must not change.
    from decimal import Decimal
    limit = sys.get_int_max_str_digits()
    path = ideal_file(tmp_path, "vars x\npoly 2^15000*x + 3\n")
    code, out, err = run(capsys, ["gb", path])
    assert (code, err) == (0, "")
    assert out == f"x + 3/{Decimal(2**15000)}\n"
    assert sys.get_int_max_str_digits() == limit


def test_gb_reads_a_file_that_starts_with_a_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.ideal"
    path.write_bytes(b"\xef\xbb\xbf" + Path(FIVELINES).read_bytes())
    assert run(capsys, ["gb", str(path)]) == run(capsys, ["gb", FIVELINES])


@pytest.mark.parametrize("command", ["gb", "cone", "member"])
@pytest.mark.parametrize("cap, value, message", [
    ("_MAX_BASIS", 2, "error: Groebner basis passed 2 elements"),
    ("_DEADLINE_S", -1.0, "error: Groebner basis not done after -1 s"),
])
def test_exact_layer_caps_are_one_error_line(capsys, monkeypatch, command, cap, value, message):
    # The five-lines basis needs a third element and one S-polynomial reduction.
    monkeypatch.setattr(tcone.groebner, cap, value)
    point = ["--point", "0,0,1"] if command == "member" else []
    code, out, err = run(capsys, [command, FIVELINES] + point)
    assert (code, out, err) == (1, "", message + "\n")


# -- cone ----------------------------------------------------------------


def test_cone_text(capsys):
    code, out, _ = run(capsys, ["cone", FIVELINES])
    assert code == 0
    assert out.splitlines() == ["x*y", "y^3*z - y*z^3", "x^3*z"]


def test_cone_whole_ring_renders_unit(capsys):
    code, out, _ = run(capsys, ["cone", WHOLERING, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cone_generators"] == ["1"]


def test_cone_rejects_lex(capsys):
    code, _, err = run(capsys, ["cone", FIVELINES, "--order", "lex"])
    assert code == 1
    assert "degree-compatible" in err


# -- member ----------------------------------------------------------------


def test_member_true(capsys):
    code, out, _ = run(capsys, ["member", FIVELINES, "--point", "0,0,1"])
    assert code == 0
    assert out.strip() == "true"


def test_member_false(capsys):
    code, out, _ = run(capsys, ["member", FIVELINES, "--point", "1,1,0"])
    assert code == 0
    assert out.strip() == "false"


def test_member_json(capsys):
    code, out, _ = run(capsys, ["member", FIVELINES, "--point", "0,1,-1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"vars": ["x", "y", "z"], "point": ["0", "1", "-1"],
                       "member": True}


def test_member_requires_rational_point(capsys):
    code, _, err = run(capsys, ["member", FIVELINES, "--point", "0,0,1+1i"])
    assert code == 1
    assert "rational" in err


# -- verify ratio ------------------------------------------------------------


def test_verify_ratio_pass_exit_zero(capsys):
    code, out, _ = run(capsys, ["verify", "ratio", FIVELINES,
                                "--direction", "0,0,1"])
    assert code == 0
    assert "verdict: pass" in out


def test_verify_ratio_fail_exit_two(capsys):
    code, out, _ = run(capsys, ["verify", "ratio", FIVELINES,
                                "--direction", "1,1,0",
                                "--t0", "10", "--factor", "10", "--steps", "5"])
    assert code == 2
    assert "verdict: fail" in out


def test_verify_ratio_modulus_overflow_is_inconclusive(capsys, tmp_path):
    # g = 1.3e308(1+i) at t = 10 is finite, but its modulus is not.
    big = "13" + "0" * 306
    path = ideal_file(tmp_path, "vars x y\npoly x - y\n")
    code, out, err = run(capsys, ["verify", "ratio", path, "--direction", f"{big}+{big}i,0"])
    assert code == 3
    assert "t=10 value=n/a" in out
    assert err.startswith("verdict: inconclusive (evaluation overflow at t=")


@pytest.mark.parametrize("kind", ["ratio", "distance"])
def test_direction_beyond_double_range_is_parse_error(capsys, kind):
    # exact, so member would take it; a float direction cannot
    for direction, k in (("1" + "0" * 400 + ",1", 1), ("1,0+1" + "0" * 309 + "i", 2)):
        code, out, err = run(capsys, ["verify", kind, CUSP, "--direction", direction])
        assert code == 1
        assert out == ""
        assert err == f"error: <input>:1:{k}: coordinate {k} is beyond double precision\n"


def test_verify_ratio_bad_schedule(capsys):
    code, _, err = run(capsys, ["verify", "ratio", FIVELINES,
                                "--direction", "0,0,1", "--factor", "1"])
    assert code == 1
    assert "factor" in err


# -- verify distance ------------------------------------------------------------


def test_verify_distance_pass(capsys):
    code, out, _ = run(capsys, ["verify", "distance", FIVELINES,
                                "--direction", "0,0,1", "--steps", "3"])
    assert code == 0
    assert "verdict: pass" in out


def test_verify_distance_whole_ring_fails_exit_two(capsys):
    code, out, err = run(capsys, ["verify", "distance", WHOLERING,
                                  "--direction", "1", "--steps", "3"])
    assert code == 2
    assert "t=10 value=n/a" in out and "verdict: fail" in out
    assert err == "verdict: fail (a generator is a nonzero constant: V is empty)\n"


def test_verify_distance_overflow_is_inconclusive(capsys, tmp_path):
    # Far out, the power max(1, ||z||)**70 in the convergence test leaves
    # double precision.  At t0 = 1e160 the squares in the norm do, and the
    # infinite scale must not make x - 1 land.  Each run must end
    # unconverged, not in an OverflowError.
    far = ["--t0", "1e160", "--steps", "1"]
    cases = [("vars x y\npoly x^70 - y\n", ["--direction", "1,0"]),
             ((DATA / "fivelines.ideal").read_text(), ["--direction", "0,0,1"] + far),
             ("vars x y\npoly x - 1\n", ["--direction", "1,0"] + far)]
    for text, args in cases:
        path = ideal_file(tmp_path, text)
        code, out, err = run(capsys, ["verify", "distance", path] + args)
        assert code == 3
        assert out.splitlines()[-1] == "verdict: inconclusive"
        assert len(err.splitlines()) == 1
        assert err.startswith("verdict: inconclusive (solver did not converge at t = ")


def test_verify_distance_overflowing_jacobian_is_inconclusive(capsys):
    # On x^308 - y along (1, 0), the partial 308 x^307 leaves double
    # precision at t = 10, where x^308 does not, and x^308 itself from
    # t = 100 on.  A run whose Jacobian overflows ends unconverged, as one
    # whose start overflows does, and not in an EvaluationOverflowError.
    code, out, err = run(capsys, ["verify", "distance", DEGREE308, "--direction", "1,0"])
    assert code == 3
    assert out.splitlines()[-1] == "verdict: inconclusive"
    assert len(err.splitlines()) == 1
    assert err.startswith("verdict: inconclusive (")


def test_verify_distance_ray_meeting_v_passes(capsys):
    # t*(0, 1) meets V at t = 1e5, so the last ratio is 0 and the first is
    # not; (0, 1) lies on the cone V(x^2).
    code, out, err = run(capsys, ["verify", "distance", PARABOLA, "--direction", "0,1"])
    assert code == 0
    assert "t=100000 value=0.0" in out
    assert err == "verdict: pass (ratio falls from 8659.68 to 0 (factor inf))\n"


@pytest.mark.parametrize("kind", ["distance", "ratio"])
@pytest.mark.parametrize("text,direction", [
    ("vars x y\npoly (x-10)*(x-100000)\n", "1,0"),
    ("vars x y\npoly (x-10)*(x-100000)*y\n", "1,1")], ids=["x-line", "x-line-times-y"])
def test_ray_meeting_v_only_at_the_ends_does_not_pass(capsys, tmp_path, kind, text, direction):
    # t*v meets V at t = 10 and t = 1e5 only, so the first and last values
    # are 0 and the middle ones are not; v lies off the cone V(x^2) (times
    # V(y) in the second ideal).  Zero ends are not zero throughout.
    code, out, err = run(capsys, ["verify", kind, ideal_file(tmp_path, text),
                                  "--direction", direction])
    assert "t=10 value=0.0" in out and "t=100000 value=0.0" in out
    assert code == 3
    assert err == "verdict: inconclusive (neither clear decay nor a plateau over this schedule)\n"


@pytest.mark.parametrize("kind,path,direction", [("distance", CUSP, "1,0"),
                                                 ("ratio", FIVELINES, "0,0,1")])
def test_fine_schedule_on_a_cone_direction_is_inconclusive(capsys, kind, path, direction):
    # The last three of 20 steps at factor 1.01 span 2% of t: too short to
    # call a plateau, which needs a factor of 10.
    code, _, err = run(capsys, ["verify", kind, path, "--direction", direction,
                                "--factor", "1.01", "--steps", "20"])
    assert code == 3
    assert err == "verdict: inconclusive (neither clear decay nor a plateau over this schedule)\n"


SPELLINGS = [
    ("vars x y\npoly 2*x - 1 + 3*y^2\n", "vars x y\npoly 3*y^2 + 2*x - 1\n"),
    ("vars x y\npoly x^3*y - 2*x*y^2 + y^3 + 5*x - 7\n",
     "vars x y\npoly -7 + 5*x + y^3 - 2*x*y^2 + x^3*y\n"),
]


@pytest.mark.parametrize("first,second", SPELLINGS, ids=["three-terms", "five-terms"])
def test_answers_do_not_depend_on_the_spelling(capsys, tmp_path, first, second):
    # One ideal typed in two term orders: its reduced basis lists the same
    # terms in the same order, so the ray reports print the same bytes.
    a, b = parse_ideal(first).polynomials, parse_ideal(second).polynomials
    assert list(a[0].terms.items()) != list(b[0].terms.items())
    for kind in ("lex", "grlex", "grevlex"):
        order = ORDERS_BY_NAME[kind]
        assert ([list(g.terms.items()) for g in buchberger(a, order)]
                == [list(g.terms.items()) for g in buchberger(b, order)]), kind
    for kind in ("ratio", "distance"):
        first_out, second_out = (
            run(capsys, ["verify", kind, ideal_file(tmp_path, text),
                         "--direction", "1,1", "--json"])[:2] for text in (first, second))
        assert first_out == second_out, kind


# -- verify sample ----------------------------------------------------------------


def test_verify_sample_pass(capsys):
    code, out, _ = run(capsys, ["verify", "sample", CUSP, "--trials", "40"])
    assert code == 0
    assert "verdict: pass" in out


def test_verify_sample_degree_60_curve(capsys, tmp_path):
    # Substituted unscaled at R = 1e6, x^60 overflowed double precision.
    path = ideal_file(tmp_path, "vars x y\npoly x^60 - y^59 + 1\n")
    code, out, err = run(capsys, ["verify", "sample", path])
    assert code == 0
    assert out.splitlines()[-1] == "verdict: pass"
    assert err.splitlines() == [
        "verdict: pass (5950/5950 directions below residual 0.01 "
        "(fraction 1.0000, need 0.95); 0 trials skipped)"]


def test_verify_sample_degree_400_ends_with_a_verdict(capsys, tmp_path):
    # 400 roots per trial: the solver's workspace stays bounded in blocks.
    path = ideal_file(tmp_path, "vars x y\npoly x^400 - y + 1\n")
    code, _, err = run(capsys, ["verify", "sample", path, "--trials", "2"])
    assert code in (0, 2, 3)
    assert len(err.splitlines()) == 1 and err.startswith("verdict: ")


def test_verify_ratio_whole_ring_fails_without_values(capsys):
    code, out, err = run(capsys, ["verify", "ratio", WHOLERING, "--direction", "1"])
    assert code == 2
    assert "t=10 value=n/a" in out and "verdict: fail" in out
    assert err == "verdict: fail (a generator is a nonzero constant: V is empty)\n"


def test_verify_sample_refuses_multiple_generators(capsys):
    code, _, err = run(capsys, ["verify", "sample", FIVELINES])
    assert code == 1
    assert "hypersurface" in err


def test_verify_sample_radius_below_one_is_one_line(capsys):
    code, out, err = run(capsys, ["verify", "sample", CUSP, "--radius", "0.5"])
    assert code == 1
    assert out == ""
    assert err == "error: the radius must be at least 1 and finite\n"


def test_verify_sample_exponent_beyond_int64_is_one_line(capsys, tmp_path):
    # The parser's exponent cap refuses it before far sampling runs; for
    # library callers far sampling's table-size rule bounds the exponents
    # (test_sampling_rejects_bad_inputs).
    path = ideal_file(tmp_path, "vars x y\npoly x^99999999999999999999 - y\n")
    code, out, err = run(capsys, ["verify", "sample", path, "--trials", "3"])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}:2:8: exponent above the cap of 1000000\n"


# -- error handling ----------------------------------------------------------------


def test_parse_error_exit_one(capsys):
    code, _, err = run(capsys, ["gb", BROKEN])
    assert code == 1
    assert 'unknown identifier "xy"' in err


def test_deep_nesting_is_one_error_line(capsys, tmp_path):
    path = ideal_file(tmp_path, "vars x\npoly " + "(" * 300 + "x" + ")" * 300 + "\n")
    code, out, err = run(capsys, ["gb", path])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}:2:106: parentheses nested deeper than 100\n"


@pytest.mark.parametrize("line,message", [
    ("(x + y + 1)^100000", "2:17: degree 100000 above the cap of 10000"),
    ("x^1000000000", "2:8: exponent above the cap of 1000000"),
    ("(x + y + z + 1)^400", "2:21: more than 250000 units of work on one line"),
    ("(7^10000)^10000", "2:15: more than 250000 units of work on one line"),
])
@pytest.mark.parametrize("command", ["gb", "cone"])
def test_line_over_a_parse_cap_exits_one_at_once(capsys, tmp_path, command, line, message):
    path = ideal_file(tmp_path, f"vars x y z\npoly {line}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, [command, path])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", f"error: {path}:{message}\n")


def test_missing_file_exit_one(capsys):
    code, _, err = run(capsys, ["gb", str(DATA / "missing.ideal")])
    assert code == 1
    assert "does not exist" in err


USAGE_ERRORS = {
    "no-command": [],
    "no-verify-subcommand": ["verify"],
    "unknown-command": ["frobnicate"],
    "unknown-option": ["gb", FIVELINES, "--bogus"],
    "missing-ideal-file": ["gb"],
    "directory-as-ideal-file": ["gb", str(DATA)],
    "missing-point": ["member", FIVELINES],
    "bad-order": ["gb", FIVELINES, "--order", "bogus"],
    "bad-float": ["verify", "ratio", FIVELINES, "--direction", "0,0,1", "--t0", "abc"],
    "extra-argument": ["gb", FIVELINES, "extra"],
    "zero-denominator-point": ["member", CUSP, "--point", "1/0,1"],
    "zero-denominator-direction": ["verify", "ratio", CUSP, "--direction", "1/0,1"],
    "zero-denominator-imaginary": ["verify", "distance", CUSP, "--direction", "1,0+1/0i"],
    "long-coordinate-point": ["member", CUSP, "--point", "7" * 5000 + ",1"],
    "long-coordinate-direction": ["verify", "ratio", CUSP, "--direction", "1," + "7" * 5000],
    "min-fraction-above-one": ["verify", "sample", CUSP, "--min-fraction", "2"],
    "min-fraction-zero": ["verify", "sample", CUSP, "--min-fraction", "0"],
    "negative-sample-tol": ["verify", "sample", CUSP, "--sample-tol", "-1"],
    "nan-sample-tol": ["verify", "sample", CUSP, "--sample-tol", "nan"],
    "negative-residual-tol": ["verify", "distance", CUSP, "--direction", "0,1",
                              "--residual-tol", "-1"],
    "infinite-plateau-tol": ["verify", "distance", CUSP, "--direction", "0,1",
                             "--plateau-tol", "inf"],
    "pass-decay-above-one": ["verify", "ratio", CUSP, "--direction", "0,1",
                             "--pass-decay", "1.5"],
    "negative-plateau-tol": ["verify", "ratio", CUSP, "--direction", "0,1",
                             "--plateau-tol", "-0.1"],
    "infinite-t0": ["verify", "ratio", CUSP, "--direction", "0,1", "--t0", "inf"],
    "infinite-factor": ["verify", "distance", CUSP, "--direction", "0,1", "--factor", "inf"],
    "overflowing-schedule": ["verify", "ratio", CUSP, "--direction", "0,1",
                             "--factor", "1e200", "--steps", "3"],
    "steps-above-cap": ["verify", "distance", CUSP, "--direction", "0,1",
                        "--factor", "1.01", "--steps", "101"],
    "trials-above-cap": ["verify", "sample", CUSP, "--trials", "100001"],
    "trials-zero": ["verify", "sample", CUSP, "--trials", "0"],
    "trials-negative": ["verify", "sample", CUSP, "--trials", "-5"],
    "table-above-cap": ["verify", "sample", str(DATA / "degree1000.ideal"),
                        "--trials", "100000"],
    "root-work-above-cap": ["verify", "sample", str(DATA / "degree1000.ideal"),
                            "--trials", "186"],
    "root-work-rows-above-cap": ["verify", "sample", str(DATA / "degree44.ideal"),
                                 "--trials", "100000"],
    "negative-seed-sample": ["verify", "sample", CUSP, "--seed", "-1"],
    "negative-seed-distance": ["verify", "distance", CUSP, "--direction", "1,0",
                               "--seed", "-1"],
    "near-origin-ratio": ["verify", "ratio", FIVELINES, "--direction", "1,1,0",
                          "--t0", "1e-300"],
    "near-origin-distance": ["verify", "distance", CUSP, "--direction", "1/4,0",
                             "--t0", "2"],
}


@pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_is_one_line(capsys, args):
    code, out, err = run(capsys, args)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: ")


@pytest.mark.parametrize("name", ["negative-seed-sample", "negative-seed-distance"])
def test_negative_seed_error_names_the_seed(capsys, name):
    _, _, err = run(capsys, USAGE_ERRORS[name])
    assert err == "error: the seed must be a nonnegative integer, not -1\n"


@pytest.mark.parametrize("args,expected", [
    (["member", FIVELINES, "--point", "-1,0,0"], "true\n"),
    (["member", FIVELINES, "--point", "-1/2,1,0"], "false\n"),
    (["verify", "distance", CUSP, "--direction", "-2,0", "--steps", "3"],
     "direction: -2,0\n"),
], ids=["point", "fraction-point", "direction"])
def test_option_value_may_start_with_minus(capsys, args, expected):
    code, out, _ = run(capsys, args)
    assert code == 0
    assert expected in out


def test_double_dash_ends_the_options(capsys):
    # After "--" every token is positional, so "--point --" takes no value.
    assert run(capsys, ["member", "--point", "0,0,1", "--", FIVELINES]) == (0, "true\n", "")
    assert run(capsys, ["member", FIVELINES, "--point", "--", "-1,0,0"]) == (
        1, "", "error: argument --point: expected one argument\n")


def test_verify_ratio_names_every_overflowed_step(capsys, tmp_path):
    path = ideal_file(tmp_path, "vars x y\npoly (x-y)^10 + x^9\n")
    code, out, err = run(capsys, ["verify", "ratio", path, "--direction", "1,1",
                                  "--t0", "1e300", "--factor", "1.5", "--steps", "2"])
    assert code == 3
    assert "t=1e+300 value=n/a\nt=1.5e+300 value=n/a\n" in out
    assert err == "verdict: inconclusive (evaluation overflow at t=1e+300, 1.5e+300)\n"


def test_help_exit_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "verify" in out


@pytest.mark.parametrize("args,options", [
    (["gb", "--help"], ["IDEAL_FILE", "--order", "--json"]),
    (["verify", "sample", "--help"],
     ["IDEAL_FILE", "--radius", "--trials", "--seed", "--sample-tol",
      "--min-fraction", "--json"]),
], ids=["gb", "verify-sample"])
def test_command_help_lists_options(capsys, args, options):
    code, out, _ = run(capsys, args)
    assert code == 0
    for option in options:
        assert option in out


def test_exact_commands_do_not_import_numpy():
    script = (
        "import sys\n"
        "def loaded(*names):\n"
        "    return [m for m in names if m in sys.modules]\n"
        "import tcone.cli\n"
        "assert not (found := loaded('numpy', 'click', 'dataclasses')), found\n"
        f"for args in (['gb', {FIVELINES!r}], ['cone', {FIVELINES!r}],\n"
        f"             ['member', {FIVELINES!r}, '--point', '0,0,1']):\n"
        "    assert tcone.cli.main(args) == 0, args\n"
        "    found = loaded('numpy', 'tcone.numeric', 'click', 'dataclasses', 'json')\n"
        "    assert not found, (args, found)\n"
        "import tcone.numeric\n"
        "assert not (found := loaded('numpy', 'dataclasses')), found\n"
        # A ray inside V: every ratio is 0, so there is no decay to fit.
        f"args = ['verify', 'ratio', {FIVELINES!r}, '--direction', '0,1,1']\n"
        "assert tcone.cli.main(args) == 0, args\n"
        "assert not (found := loaded('numpy', 'click', 'dataclasses')), found\n"
        # Every refusal comes before numpy loads: a negative seed, a bad
        # radius or trial count, a ray that starts within 1 of the origin,
        # a table or root-finding work past its cap.
        f"for args in (['verify', 'sample', {CUSP!r}, '--seed', '-1'],\n"
        f"             ['verify', 'distance', {CUSP!r}, '--direction', '1,0', '--seed', '-1'],\n"
        f"             ['verify', 'sample', {CUSP!r}, '--radius', '0.5'],\n"
        f"             ['verify', 'sample', {CUSP!r}, '--trials', '0'],\n"
        f"             ['verify', 'ratio', {FIVELINES!r}, '--direction', '1,1,0',\n"
        "              '--t0', '1e-300'],\n"
        f"             ['verify', 'distance', {CUSP!r}, '--direction', '1/4,0', '--t0', '2'],\n"
        f"             ['verify', 'sample', {str(DATA / 'degree1000.ideal')!r},\n"
        "              '--trials', '100000'],\n"
        f"             ['verify', 'sample', {str(DATA / 'degree1000.ideal')!r},\n"
        "              '--trials', '186'],\n"
        f"             ['verify', 'sample', {str(DATA / 'degree44.ideal')!r},\n"
        "              '--trials', '100000']):\n"
        "    assert tcone.cli.main(args) == 1, args\n"
        "    assert not (found := loaded('numpy')), (args, found)\n"
        # So do the library's refusals.
        "from tcone.numeric import estimate_distance_upper, roots_univariate\n"
        "from tcone.polyring import VariableContext, variables\n"
        "x, y = variables(VariableContext(('x', 'y')))\n"
        "for call in (lambda: estimate_distance_upper([x - x], (1, 0)),\n"
        "             lambda: estimate_distance_upper([x], (1, 0, 0)),\n"
        "             lambda: roots_univariate([5.0]),\n"
        "             lambda: roots_univariate([float('nan'), 1.0]),\n"
        "             lambda: roots_univariate([1.0, 1.0, 1e-35])):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError('not refused')\n"
        "    assert not (found := loaded('numpy')), found\n")
    src = str(Path(tcone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- golden files -------------------------------------------------------------------


GOLDEN_CASES = [
    ("gb_fivelines.json", ["gb", FIVELINES, "--json"]),
    ("cone_fivelines.json", ["cone", FIVELINES, "--json"]),
    ("ratio_fivelines_001.json",
     ["verify", "ratio", FIVELINES, "--direction", "0,0,1",
      "--t0", "10", "--factor", "10", "--steps", "5", "--json"]),
    ("distance_cusp_10.json",
     ["verify", "distance", CUSP, "--direction", "1,0", "--json"]),
    ("distance_fivelines_001.json",
     ["verify", "distance", FIVELINES, "--direction", "0,0,1", "--json"]),
    ("distance_cusp_11.json",  # off the cone: verdict fail
     ["verify", "distance", CUSP, "--direction", "1,1", "--json"]),
    ("sample_degree8.json", ["verify", "sample", DEGREE8, "--json"]),
    # Trials freeing x have degree 3, those freeing y degree 2, and the 33
    # freeing z, which f does not involve, are skipped.
    ("sample_mixed.json", ["verify", "sample", MIXED, "--json"]),
]


@pytest.mark.parametrize("name,args", GOLDEN_CASES)
def test_golden_output(capsys, name, args):
    code, first, _ = run(capsys, args)
    assert code in (0, 2)
    code2, second, _ = run(capsys, args)
    assert code == code2
    assert first == second  # byte-identical across consecutive runs
    assert first == (GOLDEN / name).read_text()


# -- process entry ------------------------------------------------------------------
# `python -m tcone.cli` and the `tcone` script run cli.run(): BLAS on one
# thread unless OPENBLAS_NUM_THREADS is set, then os._exit.  The children
# here get a block-buffered stdout (no PYTHONUNBUFFERED), as in a shell pipe.

SX60 = "vars x y\npoly x^60 - y^59 + 1\n"  # verify sample prints about 217 KB


def entry_process(args, **streams):
    """`python -m tcone.cli args` with the test's own BLAS setting removed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(tcone.__file__).resolve().parents[1])
    streams.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "tcone.cli", *args], env=env,
                          stderr=subprocess.PIPE, text=True, **streams)


@pytest.mark.parametrize("name,args", [case for case in GOLDEN_CASES if case[1][0] == "verify"])
def test_entry_prints_what_main_prints(capsys, name, args):
    # main runs here under numpy's default BLAS pool, the child on one thread.
    expected = run(capsys, args)
    proc = entry_process(args)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_entry_delivers_a_large_output_whole(capsys, tmp_path):
    args = ["verify", "sample", ideal_file(tmp_path, SX60)]
    expected = run(capsys, args)
    assert len(expected[1]) > 65536  # more than a pipe holds at once
    proc = entry_process(args)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize("sink", ["closed-pipe", "/dev/full"])
@pytest.mark.parametrize("command", ["gb", "sample"])
def test_entry_closed_or_full_stdout_is_one_error_line(tmp_path, sink, command):
    # gb's few lines fail when main flushes them, the sample's 217 KB while
    # it prints.
    args = (["gb", FIVELINES] if command == "gb"
            else ["verify", "sample", ideal_file(tmp_path, SX60)])
    if sink == "closed-pipe":
        read, out = os.pipe()
        os.close(read)
    elif os.path.exists(sink):
        out = os.open(sink, os.O_WRONLY)
    else:
        pytest.skip(f"{sink} does not exist here")
    try:
        proc = entry_process(args, stdout=out)
    finally:
        os.close(out)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_entry_with_stdout_closed_from_the_start_exits_quietly():
    # Python then sets sys.stdout to None and print writes nothing.
    proc = entry_process(["gb", FIVELINES], stdout=subprocess.DEVNULL,
                         preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.fixture
def entry(monkeypatch):
    """cli.run on argv in this process; returns the code it passed to os._exit.

    OPENBLAS_NUM_THREADS starts unset, and monkeypatch restores it after.
    """
    codes = []
    monkeypatch.setattr(os, "_exit", codes.append)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)

    def call(args):
        monkeypatch.setattr(sys, "argv", ["tcone", *args])
        cli.run()
        [code] = codes
        codes.clear()
        return code
    return call


def test_entry_sets_one_blas_thread_unless_set(entry, monkeypatch, capsys):
    assert entry(["gb", FIVELINES]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert entry(["gb", FIVELINES]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"


@pytest.mark.parametrize("args,code", [
    (["gb", FIVELINES], 0),
    (["gb", BROKEN], 1),
    (["verify", "ratio", FIVELINES, "--direction", "1,1,0"], 2),
    (["--help"], 0),
])
def test_entry_exits_with_the_code_of_main(entry, capsys, args, code):
    assert entry(args) == code == main(args)


class _ClosedPipe(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_entry_reports_a_failed_flush_in_one_line(entry, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert entry(["gb", FIVELINES]) == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_main_leaves_the_environment_alone(capsys):
    before = dict(os.environ)
    assert main(["verify", "distance", CUSP, "--direction", "1,0"]) == 0
    assert dict(os.environ) == before
