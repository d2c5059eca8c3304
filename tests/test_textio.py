import importlib
import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tcone import textio
from tcone.cone import tangent_cone_at_infinity
from tcone.groebner import buchberger
from tcone.numeric import TSchedule, loj_ratio_schedule
from tcone.polyring import GREVLEX, VariableContext, constant, variable
from tcone.textio import (
    ParseError,
    _tokens,
    dumps,
    format_complex,
    parse_ideal,
    parse_point,
    render_json,
    render_polynomial,
    render_report_text,
)

from test_polyring import random_poly

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

FIVE_LINES_TEXT = """\
# the five-lines example
vars x y z
poly x*y
poly z*(x^3 - y^2 + z^2)
"""


# -- parse_ideal --------------------------------------------------------------


def test_parse_five_lines_file(xyz):
    ctx, x, y, z = xyz
    ideal = parse_ideal(FIVE_LINES_TEXT, source="fivelines.ideal")
    assert ideal.context == ctx
    assert ideal.polynomials == (x * y, x**3 * z - y**2 * z + z**3)
    assert ideal.poly_lines == (3, 4)
    assert ideal.source == "fivelines.ideal"


def test_parse_cusp(xy):
    ctx, x, y = xy
    ideal = parse_ideal("vars x y\npoly x^2 - y^3\n")
    assert ideal.polynomials == (x**2 - y**3,)


def test_parse_rational_coefficients(xy):
    ctx, x, y = xy
    ideal = parse_ideal("vars x y\npoly 1/2*x - 3*y + 7/3\n")
    f = ideal.polynomials[0]
    assert f == Fraction(1, 2) * x - 3 * y + Fraction(7, 3)


def test_parse_leading_minus_and_nesting(xy):
    ctx, x, y = xy
    ideal = parse_ideal("vars x y\npoly -x*(y - (x + 1))^2\n")
    f = ideal.polynomials[0]
    assert f == -x * (y - x - 1) ** 2


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError) as info:
        parse_ideal("vars x y\npoly xy\n")
    assert 'unknown identifier "xy"' in str(info.value)
    assert info.value.line == 2


@pytest.mark.parametrize("text,expected", [
    pytest.param("poly x\n", "<input>:1:1: poly-line before vars-line",
                 id="poly x\n-before vars-line"),
    pytest.param("vars x\nvars y\npoly x\n", "<input>:2:1: duplicate vars-line",
                 id="vars x\nvars y\npoly x\n-duplicate vars-line"),
    pytest.param("vars x x\npoly x\n", "<input>:1:1: duplicate variable in vars-line",
                 id="vars x x\npoly x\n-duplicate variable"),
    pytest.param("vars x\npoly x^-2\n",
                 "<input>:2:8: '^' requires a natural-number exponent",
                 id="vars x\npoly x^-2\n-natural-number exponent"),
    pytest.param("vars x\npoly x^(2)\n",
                 "<input>:2:8: '^' requires a natural-number exponent",
                 id="vars x\npoly x^(2)\n-natural-number exponent"),
    pytest.param("vars x\npoly 1.5*x\n", "<input>:2:7: unexpected character '.'",
                 id="vars x\npoly 1.5*x\n-unexpected character"),
    pytest.param("vars x\npoly x y\n", "<input>:2:8: unexpected 'y'",
                 id="vars x\npoly x y\n-unexpected"),
    pytest.param("vars x\npoly (x\n", "<input>:2:8: expected ')'",
                 id="vars x\npoly (x\n-expected ')'"),
    pytest.param("vars x\npoly x +\n", "<input>:2:9: unexpected end of expression",
                 id="vars x\npoly x +\n-unexpected end"),
    pytest.param("vars x\npoly 1/0\n", "<input>:2:8: zero denominator",
                 id="vars x\npoly 1/0\n-zero denominator"),
    pytest.param("vars x\n", "<input>:1:1: no nonzero polynomial",
                 id="vars x\n-no nonzero polynomial"),
    pytest.param("vars x\npoly x - x\n", "<input>:1:1: no nonzero polynomial",
                 id="vars x\npoly x - x\n-no nonzero polynomial"),
    pytest.param("", "<input>:1:1: missing vars-line", id="-missing vars-line"),
    pytest.param("ideal x\n", "<input>:1:1: expected 'vars' or 'poly', got 'ideal'",
                 id="ideal x\n-expected 'vars' or 'poly'"),
    # Columns count from the start of the raw line, keyword and indent included.
    pytest.param("vars x \u00e9\npoly x\n", "<input>:1:8: unexpected character '\u00e9'",
                 id="unexpected character on a vars-line"),
    pytest.param("vars x\n   poly  x ?\n", "<input>:2:12: unexpected character '?'",
                 id="unexpected character after an indented poly"),
    pytest.param("vars x 2\n", "<input>:1:8: expected variable name, got '2'",
                 id="number on a vars-line"),
    pytest.param("  vars\n", "<input>:1:7: vars-line needs at least one variable",
                 id="empty vars-line"),
    pytest.param("vars x\npoly 2/x\n",
                 "<input>:2:8: '/' requires a natural-number denominator",
                 id="variable denominator"),
    pytest.param("vars x\npoly x)  \n", "<input>:2:7: unexpected ')'",
                 id="stray closing parenthesis"),
    pytest.param("vars x\npoly x + " + "7" * 5000 + "\n",
                 "<input>:2:10: number longer than 4300 digits", id="long coefficient"),
    pytest.param("vars x\npoly x^" + "7" * 5000 + " + 1\n",
                 "<input>:2:8: number longer than 4300 digits", id="long exponent"),
])
def test_parse_negative_corpus(text, expected):
    with pytest.raises(ParseError) as info:
        parse_ideal(text)
    assert str(info.value) == expected


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_ideal("vars x y\npoly x + q\n")
    err = info.value
    assert err.line == 2
    assert err.column == 10  # the q, 1-based within the raw line
    with pytest.raises(ParseError) as info:
        parse_ideal("vars x\npoly x ?\n")
    assert (info.value.line, info.value.column) == (2, 8)


def test_parse_nesting_cap(xy):
    ctx, x, y = xy
    ideal = parse_ideal("vars x y\npoly " + "(" * 100 + "x - y" + ")" * 100 + "\n")
    assert ideal.polynomials == (x - y,)
    text = "vars x y\npoly -" + "(" * 101 + "x" + ")" * 101 + "\n"
    with pytest.raises(ParseError) as info:
        parse_ideal(text)
    assert str(info.value) == "<input>:2:107: parentheses nested deeper than 100"
    line = text.splitlines()[1]
    assert line[107 - 1] == "(" and line[:107].count("(") == 101  # the 101st


def test_parse_zero_line_allowed_among_nonzero(xy):
    ctx, x, y = xy
    ideal = parse_ideal("vars x y\npoly x - x\npoly y\n")
    assert ideal.polynomials[0].is_zero()
    assert ideal.polynomials[1] == y


# -- the tokenizer against an anchored match at each position ------------------

_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
                                 r"|(?P<op>[-+*/^()]))")


def reference_tokens(raw, start, lineno, source):
    """_tokens by one anchored match per token, stopping at the first
    position where no token starts: the reference for its single scan."""
    out = []
    pos = start
    while m := _REFERENCE_TOKEN_RE.match(raw, pos):
        kind = m.lastgroup
        value = m.group(kind)
        out.append((value if kind == "op" else kind, value, m.start(kind) + 1))
        pos = m.end()
    rest = raw[pos:].lstrip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}",
                         lineno, len(raw) - len(rest) + 1, source)
    out.append(("end", "", len(raw.rstrip()) + 1))
    return out


def tokens_or_error(tokenize, line, start):
    try:
        return tokenize(line, start, 2, "<t>")
    except ParseError as exc:
        return str(exc)


# Pieces of tokens, junk characters (a Unicode digit among them), Unicode
# blanks, and blanks that may end a line.
TOKEN_PIECES = ["x", "y1", "_", "q_2", "12", "0", "\u0663", "+", "-", "*", "/", "^", "(", ")",
                "#", ".", "\u00e9", "\x00", "\u00b2"]
BLANKS = [" ", "\t", "\u00a0", "\x1f", "\u3000", "\x0b"]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES + BLANKS), max_size=16),
       st.lists(st.sampled_from(BLANKS), max_size=3), st.integers(0, 4))
def test_tokens_match_the_anchored_reference(pieces, tail, start):
    line = "".join(pieces + tail)
    assert tokens_or_error(_tokens, line, start) == tokens_or_error(reference_tokens, line, start)


def test_tokens_scan_long_blank_runs_once():
    # Blanks between tokens and at the end of a line cost one pass each.
    # A scan for a token in the trailing blanks would start at each blank
    # and read to the end: seconds for these 10,000.
    line = "x" + " " * 200_000 + "+ y" + " \u3000" * 5_000
    start = time.perf_counter()
    assert [tok[0] for tok in _tokens(line, 0, 1, "<t>")] == ["ident", "+", "ident", "end"]
    with pytest.raises(ParseError, match="unexpected character '#'"):
        _tokens(line + "#" + " " * 10_000, 0, 1, "<t>")
    assert time.perf_counter() - start < 1.0


# -- parse_ideal against Polynomial arithmetic ---------------------------------


def polynomial_of(line, context):
    """The poly-line's expression evaluated with Polynomial arithmetic: every
    literal, variable and partial result a Polynomial, as the parser once
    computed it, from the reference tokens.  The reference for both of the
    parser's routes."""
    ahead = reference_tokens(line, 0, 1, "<reference>")[::-1]

    def expr():
        negate = ahead[-1][0] == "-"
        if negate:
            ahead.pop()
        p = -term() if negate else term()
        while ahead[-1][0] in ("+", "-"):
            op = ahead.pop()[0]
            p = p + term() if op == "+" else p - term()
        return p

    def term():
        p = factor()
        while ahead[-1][0] == "*":
            ahead.pop()
            p = p * factor()
        return p

    def factor():
        p = base()
        if ahead[-1][0] == "^":
            ahead.pop()
            p = p ** int(ahead.pop()[1])
        return p

    def base():
        kind, value, _ = ahead.pop()
        if kind == "ident":
            return variable(context, value)
        if kind == "(":
            p = expr()
            assert ahead.pop()[0] == ")"
            return p
        if ahead[-1][0] == "/":
            ahead.pop()
            return constant(context, Fraction(int(value), int(ahead.pop()[1])))
        return constant(context, int(value))

    p = expr()
    assert ahead[-1][0] == "end"
    return p


def assert_parses_as_polynomial_arithmetic(text):
    """Each poly-line of text parses to the reference's terms, in dict order,
    with Fraction coefficients."""
    ideal = parse_ideal(text)
    lines = [raw.strip()[4:] for raw in text.splitlines() if raw.strip().startswith("poly")]
    assert len(lines) == len(ideal.polynomials)
    for line, got in zip(lines, ideal.polynomials):
        want = polynomial_of(line, ideal.context)
        assert list(got.terms.items()) == list(want.terms.items()), line
        assert all(type(c) is Fraction for c in got.terms.values()), line


@st.composite
def poly_lines(draw, depth=0):
    """A poly-line expression in x, y, z: unary minus, a/b literals, powers
    up to 3, parentheses nested two deep, and terms that cancel."""
    def factor():
        kind = draw(st.integers(0, 3 if depth < 2 else 2))
        if kind == 0:
            base = draw(st.sampled_from(["x", "y", "z"]))
        elif kind == 1:
            base = str(draw(st.integers(0, 12)))
        elif kind == 2:
            base = f"{draw(st.integers(0, 12))}/{draw(st.integers(1, 6))}"
        else:
            base = "(" + draw(poly_lines(depth + 1)) + ")"
        return base + draw(st.sampled_from(["", "", "^0", "^1", "^2", "^3"]))

    def term():
        return "*".join(factor() for _ in range(draw(st.integers(1, 3))))

    text = draw(st.sampled_from(["", "-"])) + term()
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from([" + ", " - "])) + term()
    if draw(st.booleans()):  # a new term in between, then all of text cancels
        text = f"{text} + {term()} - ({text})"
    return text


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(poly_lines())
def test_parse_equals_polynomial_arithmetic_on_drawn_lines(line):
    assert_parses_as_polynomial_arithmetic(f"vars x y z\npoly {line}\npoly 1\n")


@st.composite
def flat_lines(draw):
    """A long sum of plain products in x, y, z: each a few variables and
    variable powers (^0 among them) with a number, a/b or zero literal in
    any place.  The monomials come from a small pool, so they repeat, and
    equal terms may cancel."""
    factor = st.sampled_from(["x", "y", "z", "x^0", "y^1", "z^2", "x^3", "y^7", "z^12"])
    pool = draw(st.lists(st.lists(factor, max_size=4), min_size=1, max_size=4))
    literal = st.sampled_from(["1", "2", "3", "12", "0", "0/7", "1/2", "3/4", "6/3", "10/4"])

    def product():
        factors = list(draw(st.sampled_from(pool)))
        for _ in range(draw(st.integers(0 if factors else 1, 2))):
            factors.insert(draw(st.integers(0, len(factors))), draw(literal))
        return "*".join(factors)

    text = draw(st.sampled_from(["", "-"])) + product()
    for _ in range(draw(st.integers(0, 30))):
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + product()
    return text


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(flat_lines())
def test_parse_equals_polynomial_arithmetic_on_flat_lines(line):
    assert_parses_as_polynomial_arithmetic(f"vars x y z\npoly {line}\npoly 1\n")


def test_parse_equals_polynomial_arithmetic_on_files():
    for path in sorted(DATA.glob("*.ideal")):
        text = path.read_text()
        if path.name == "broken.ideal":
            with pytest.raises(ParseError):
                parse_ideal(text)
        else:
            assert_parses_as_polynomial_arithmetic(text)
    assert_parses_as_polynomial_arithmetic(
        "vars x y z\n"
        "poly 2^0 + x*3/4 - (-y^3*x^3*y^2)^3*2*(-2*y*y + 7*x)\n"
        "poly -(2*y*x + 7*x)^3 - (x^3*y - 3/4^0 - z^2*x^2)^2\n")


@pytest.mark.parametrize("workload", ["gb-corpus", "member-stream", "verify-numeric"])
def test_parse_equals_polynomial_arithmetic_on_benchmark_inputs(monkeypatch, tmp_path,
                                                                 workload):
    # The texts each workload's set-up parses, at seeds 1 to 3, recorded by
    # wrapping parse_ideal as the set-up runs.
    import tcone
    import tcone.numeric  # noqa: F401  (the workloads reach it as tcone.numeric)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    parse = textio.parse_ideal
    texts = []

    def recorded(text, source="<input>"):
        texts.append(text)
        return parse(text, source)

    monkeypatch.setattr(textio, "parse_ideal", recorded)
    for seed in (1, 2, 3):
        env = workloads.Env(src=str(PERFBENCH.parent / "src"), workdir=str(tmp_path),
                            traced=False)
        workloads.WORKLOADS[workload](tcone, random.Random(f"{workload}:{seed}"), env).setup()
    monkeypatch.setattr(textio, "parse_ideal", parse)
    assert texts
    for text in texts:
        assert_parses_as_polynomial_arithmetic(text)


# -- parse caps -----------------------------------------------------------------


@pytest.mark.parametrize("line,expected", [
    ("x^1000000000", "2:8: exponent above the cap of 1000000"),
    ("2^1000001", "2:8: exponent above the cap of 1000000"),
    ("(x + y + 1)^100000", "2:17: degree 100000 above the cap of 10000"),
    ("x^5000*y^5001", "2:12: degree 10001 above the cap of 10000"),
    ("x^5000*y^5001*0", "2:12: degree 10001 above the cap of 10000"),
    ("(x + y + 1)^200", "2:17: more than 250000 units of work on one line"),
    ("(x + y + z + 1)^400", "2:21: more than 250000 units of work on one line"),
    ("(7^10000)^10000", "2:15: more than 250000 units of work on one line"),
    ("(7^10000*x + 7^10000*y + 1)^30", "2:33: more than 250000 units of work on one line"),
])
def test_parse_caps(line, expected):
    with pytest.raises(ParseError) as info:
        parse_ideal(f"vars x y z\npoly {line}\n")
    assert str(info.value) == "<input>:" + expected


def test_parse_caps_admit_their_bounds(xy):
    ctx, x, y = xy
    ideal = parse_ideal("vars x y\npoly x^10000 + x^5000*y^5000 + 1^1000000 + 0^1000000\n")
    assert ideal.polynomials == (x**10000 + x**5000 * y**5000 + 1,)
    assert parse_ideal("vars x y\npoly 2^15000*x\n").polynomials == (2**15000 * x,)
    assert len(parse_ideal("vars x y\npoly (x + y + 1)^50\n").polynomials[0].terms) == 1326


def work_of(text, monkeypatch):
    """The least work cap under which text parses; the cap is left there."""
    lo, hi = 0, 1_000_000
    while lo < hi:
        monkeypatch.setattr(textio, "_MAX_WORK", (lo + hi) // 2)
        try:
            parse_ideal(text)
            hi = (lo + hi) // 2
        except ParseError as exc:
            assert "units of work" in str(exc)
            lo = (lo + hi) // 2 + 1
    monkeypatch.setattr(textio, "_MAX_WORK", lo)
    return lo


def test_parse_work_cap_counts_every_step(monkeypatch):
    # Five sums of two terms added one at a time (10 units), products of
    # 3 terms by 3, 6, 10 and 15 (102 units), and the negation of the 21
    # terms (21 units): 133 in all, the last at the '-'.
    line = "-((x+y+1)*(x+y+1)*(x+y+1)*(x+y+1)*(x+y+1))"
    assert work_of(f"vars x y\npoly {line}\n", monkeypatch) == 133
    monkeypatch.setattr(textio, "_MAX_WORK", 132)
    with pytest.raises(ParseError) as info:
        parse_ideal(f"vars x y\npoly {line}\n")
    assert str(info.value) == "<input>:2:6: more than 132 units of work on one line"


def test_parse_work_cap_counts_bits_and_variables(monkeypatch):
    # A product also pays its operands' summed coefficient bits multiplied
    # over 2**21, and a pair of terms costs a unit per 8 variables.
    power = work_of("vars x\npoly 7^5000\n", monkeypatch)
    bits = (7**5000).bit_length() + 1
    assert work_of("vars x\npoly 7^5000*7^5000\n", monkeypatch) == \
        2 * power + 1 + (bits * bits >> 21)
    eight = " ".join(f"v{i}" for i in range(8))
    assert work_of(f"vars {eight}\npoly (v0 + v7)*(v0 - v7)\n", monkeypatch) == 2 + 4
    assert work_of(f"vars {eight} v8\npoly (v0 + v7)*(v0 - v7)\n", monkeypatch) == 2 + 8


def test_parse_work_cap_charges_what_each_step_copies(monkeypatch):
    # '^1' leaves a value as it is, and a sum adds into the value built so
    # far, paying for the terms added and not for a copy of that value.
    body = "*".join("(" + " + ".join(f"{v}^{i}" for i in range(100)) + ")" for v in "xy")
    cost = work_of(f"vars x y\npoly {body}\n", monkeypatch)
    expected = parse_ideal(f"vars x y\npoly {body}\n").polynomials
    assert len(expected[0].terms) == 10_000
    assert work_of(f"vars x y\npoly {body} + x\n", monkeypatch) == cost + 1
    monkeypatch.setattr(textio, "_MAX_WORK", cost)
    for line in ["(" * 99 + body + ")^1" * 99, body + " + 0" * 20_000]:
        start = time.perf_counter()
        assert parse_ideal(f"vars x y\npoly {line}\n").polynomials == expected
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("line", ["0*x^5000*y^5001*z^5000", "x^5000*0*y^5001"])
def test_parse_zero_product_has_degree_zero(line):
    # A product is checked as it is formed, and a zero value has degree 0.
    assert parse_ideal(f"vars x y z\npoly {line}\npoly 1\n").polynomials[0].is_zero()


LONG_FRACTION = "7" * 500 + "/" + "3" * 400


@pytest.mark.parametrize("line,units", [
    ("x*y*z", 2),
    ("3*x^5*y^2 - 2/3*x*y + 7", 12),
    ("-x^7*y^3*z - 2*x*y - 5", 15),
    ("x^0*y + 3/4^2*x - 2^3*y*z", 11),
    ("0*x^5000*y^5001 + x", 36),
    ("x*y - y*x + z", 4),
    ("2^15000*x*y*z", 64),
    ("x^1*y^1 - z^1", 2),
    # 7...7/3...3 has 1,332 + 999 bits, its square 2,664 + 1,998.
    pytest.param(f"{LONG_FRACTION}*{LONG_FRACTION}*x", 4, id="long fractions"),
    pytest.param(f"x*{LONG_FRACTION}*y*{LONG_FRACTION}", 5, id="long fractions apart"),
])
def test_parse_work_cap_on_plain_products(monkeypatch, line, units):
    # A product of plain factors pays what its term dicts would: a pair
    # per '*' between nonzero values, each product of binary powering a
    # variable, one unit per term added or negated, and the numerator and
    # denominator bits of long coefficients.
    assert work_of(f"vars x y z\npoly {line}\n", monkeypatch) == units


# -- parse_point --------------------------------------------------------------


def test_parse_point_forms(xyz):
    ctx, x, y, z = xyz
    p = parse_point("0,0,1", ctx)
    assert p.rationals == (0, 0, 1)
    assert p.complexes == (0j, 0j, 1 + 0j)

    ctx2 = VariableContext(("x", "y"))
    p = parse_point("1/2,-3", ctx2)
    assert p.rationals == (Fraction(1, 2), -3)

    p = parse_point("0,1+1i", ctx2)
    assert p.rationals is None
    assert p.complexes == (0j, 1 + 1j)

    p = parse_point("2i,-1/2-3/4i", ctx2)
    assert p.complexes == (2j, complex(-0.5, -0.75))


def test_parse_point_errors(xyz):
    ctx, _, _, _ = xyz
    with pytest.raises(ParseError):
        parse_point("1,2", ctx)
    with pytest.raises(ParseError):
        parse_point("1,2,fish", ctx)
    with pytest.raises(ParseError):
        parse_point("1.5,0,0", ctx)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_point("1,-2/0,0", ctx)
    for text, expected in (
            ("7" * 5000 + ",0,0", "<input>:1:1: number longer than 4300 digits in coordinate 1"),
            ("1,0+" + "7" * 5000 + "i,0",
             "<input>:1:2: number longer than 4300 digits in coordinate 2"),
            ("1,0,1/" + "7" * 5000,
             "<input>:1:3: number longer than 4300 digits in coordinate 3")):
        with pytest.raises(ParseError) as info:
            parse_point(text, ctx)
        assert str(info.value) == expected


# -- rendering ----------------------------------------------------------------


def test_render_polynomial_examples(xyz):
    ctx, x, y, z = xyz
    g3 = y * z * (y**2 - z**2)
    assert render_polynomial(g3, GREVLEX) == "y^3*z - y*z^3"
    assert render_polynomial(x - x, GREVLEX) == "0"
    assert render_polynomial(x * y, GREVLEX) == "x*y"  # no 1* prefix
    assert render_polynomial(-(x**2) + y, GREVLEX) == "-x^2 + y"
    assert render_polynomial(Fraction(1, 2) * x + 3, GREVLEX) == "1/2*x + 3"


def test_render_descending_under_order(xyz):
    ctx, x, y, z = xyz
    f = x**3 * z - y**2 * z + z**3
    assert render_polynomial(f, GREVLEX) == "x^3*z - y^2*z + z^3"


def test_render_numbers_of_any_length(xy):
    # str(int) refuses more than 4,300 digits by default; the rendering
    # splits such a number into decimal chunks, with the zeros it needs.
    from decimal import Decimal  # str(Decimal(n)) has no digit limit

    def text(q):
        return str(Decimal(q.numerator)) + ("" if q.denominator == 1
                                            else f"/{Decimal(q.denominator)}")

    ctx, x, y = xy
    for q in (Fraction(3**10000, 2**20000), Fraction(10**5000), Fraction(10**5000 - 1, 7),
              Fraction(10**4400 + 1), Fraction(2**6644), Fraction(12, 10**4299)):
        assert render_polynomial(q * x - q, GREVLEX) == f"{text(q)}*x - {text(q)}"


def test_parse_render_round_trip():
    ctx = VariableContext(("x", "y", "z"))
    rng = random.Random(4)
    for _ in range(60):
        f = random_poly(ctx, rng)
        if f.is_zero():
            continue
        text = f"vars x y z\npoly {render_polynomial(f, GREVLEX)}\n"
        assert parse_ideal(text).polynomials[0] == f


def test_format_complex():
    assert format_complex(3 + 0j) == "3"
    assert format_complex(0.5 + 0j) == "0.5"
    assert format_complex(1 + 1j) == "1+1i"
    assert format_complex(-2j) == "-2i"
    assert format_complex(1.5 - 2.25j) == "1.5-2.25i"
    assert format_complex(0j) == "0"


# -- JSON ---------------------------------------------------------------------


def test_render_json_basis(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    payload = json.loads(render_json(basis))
    assert list(payload) == ["vars", "order", "groebner_basis"]
    assert payload["vars"] == ["x", "y", "z"]
    assert payload["order"] == "grevlex"
    assert payload["groebner_basis"] == [
        "x*y", "y^3*z - y*z^3", "x^3*z - y^2*z + z^3"]


def test_render_json_cone(five_lines):
    ctx, f1, f2 = five_lines
    cone = tangent_cone_at_infinity([f1, f2], GREVLEX)
    payload = json.loads(render_json(cone))
    assert list(payload) == ["vars", "order", "groebner_basis", "cone_generators"]
    assert payload["cone_generators"] == ["x*y", "y^3*z - y*z^3", "x^3*z"]


def test_render_json_report(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    report = loj_ratio_schedule(basis.generators, (0, 0, 1), TSchedule(10, 10, 3))
    payload = json.loads(render_json(report))
    assert list(payload) == ["kind", "direction", "schedule", "samples",
                             "fitted_decay_exponent", "verdict", "seed",
                             "diagnostics"]
    assert payload["kind"] == "ratio"
    assert payload["direction"] == ["0", "0", "1"]
    assert payload["schedule"] == {"t0": 10.0, "factor": 10.0, "steps": 3}
    assert payload["verdict"] == "pass"
    assert payload["samples"][0] == [10.0, 10 ** -0.25]


def test_render_json_deterministic(five_lines):
    ctx, f1, f2 = five_lines
    a = render_json(buchberger([f1, f2], GREVLEX))
    b = render_json(buchberger([f2, f1], GREVLEX))
    assert a == b
    cone_a = render_json(tangent_cone_at_infinity([f1, f2], GREVLEX))
    cone_b = render_json(tangent_cone_at_infinity([f1, f2], GREVLEX))
    assert cone_a == cone_b


def test_render_report_text(five_lines):
    ctx, f1, f2 = five_lines
    basis = buchberger([f1, f2], GREVLEX)
    report = loj_ratio_schedule(basis.generators, (1, 1, 0), TSchedule(10, 10, 3))
    text = render_report_text(report)
    assert text.splitlines()[0] == "kind: ratio"
    assert "verdict: fail" in text


def test_dumps_rejects_nan():
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})


def test_render_json_rejects_other_objects():
    with pytest.raises(TypeError, match="^cannot render object$"):
        render_json(object())
