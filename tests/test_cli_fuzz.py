"""Fuzz of the CLI: every input ends with a documented exit code.

Ideal files are drawn from the grammar's tokens, with malformed lines,
stray vars-lines and zero denominators mixed in, and points and
directions from coordinate strings that include ``1/0`` entries.  A
second fuzz feeds well-formed files and points with long numbers:
coordinates of 300 to 400 digits, about the limit of double range
(1.8e308), coefficients of 1,450 to 2,000 digits, whose cubes pass the
interpreter's 4,300-digit limit of str(int), and, for verify sample,
exponents up to 400.  Each case runs in process through ``cli.main``.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from tcone.cli import main

# Poly-lines are well formed; faults come from the noise lines and the
# bad coordinates, each drawn less often so that most cases get past
# parsing.  "w" is an unknown identifier.  The generated expressions nest
# at most two deep; one noise line nests 1000 deep, past the parser's cap.
# Hypothesis raises the recursion limit by about 2000 frames while a test
# runs, so a line only 300 deep would parse even without the cap.
NAMES = ["x", "y", "z"]
NUMBERS = ["0", "1", "2", "7", "3/4", "12345678901234567890"]
EXPONENTS = ["", "", "^0", "^2", "^3"]
TOKENS = NAMES + ["w", "xy", "vars", "poly", "+", "-", "*", "/", "^", "(", ")",
                  "0", "1", "2", "1/0", "1.5", "2x", "#", "@", ""]
NOISE = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join),
                  st.sampled_from(["vars x", "vars", "poly", "# comment", "poly 1/0",
                                   "poly 2/0*x", "poly x*w", "poly (x", "poly x^",
                                   "poly " + "(" * 1000 + "x" + ")" * 1000]))
ENTRIES = ["0", "1", "-1", "1/2", "-3/4", "0+1i", "2i"] * 3 + [
    "1/0", "-2/0", "1-1/0i", "-1/0i", "x", "1.5", ""]
COMMANDS = ["gb", "cone", "member", "ratio", "sample"]
# A long coefficient is an integer or a fraction.  A long coordinate is
# drawn more often with 307 to 310 digits, where t*v, its modulus or the
# coordinate itself leaves double range.
LONG_COEFFICIENT = st.builds(lambda digit, k, tail: digit * k + tail.replace("d", digit * (k - 1)),
                             st.sampled_from(["9", "1", "7"]), st.integers(1450, 2000),
                             st.sampled_from(["", "/7", "/d"]))
LONG_COORDINATE = st.builds(lambda lead, k, form: form.replace("d", lead + "0" * (k - len(lead))),
                            st.sampled_from(["13", "17", "1"]),
                            st.one_of(st.integers(307, 310), st.integers(300, 400)),
                            st.sampled_from(["d+di", "d", "-d", "1-di"]))
LONG_OR_SHORT = st.one_of(LONG_COEFFICIENT, st.sampled_from(NUMBERS))


@st.composite
def expressions(draw, names, depth=0, numbers=st.sampled_from(NUMBERS)):
    """A well-formed poly-line expression, with parentheses only at depth 0
    and coefficients outside them from ``numbers``."""
    def factor():
        kind = draw(st.integers(0, 2 if depth == 0 else 1))
        if kind == 0:
            base = draw(st.sampled_from(names))
        elif kind == 1:
            base = draw(numbers)
        else:
            base = "(" + draw(expressions(names, depth + 1)) + ")"
        return base + draw(st.sampled_from(EXPONENTS))

    def term():
        return "*".join(factor() for _ in range(draw(st.integers(1, 3))))

    text = draw(st.sampled_from(["", "-"])) + term()
    for _ in range(draw(st.integers(0, 2))):
        text += draw(st.sampled_from([" + ", " - "])) + term()
    return text


@st.composite
def ideal_files(draw, hypersurface):
    """(file text, number of variables of its vars-line).

    A hypersurface, the input of verify sample, has one polynomial in
    two or three variables (before noise).
    """
    names = NAMES[:draw(st.integers(2 if hypersurface else 1, 3))]
    lines = ["vars " + " ".join(names)]
    polys = 1 if hypersurface else draw(st.integers(1, 3))
    lines += ["poly " + draw(expressions(names)) for _ in range(polys)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(NOISE))
    return "\n".join(lines) + "\n", len(names)


@st.composite
def invocations(draw):
    """(file text, argv with None where the file's path goes)."""
    command = draw(st.sampled_from(COMMANDS))
    text, n = draw(ideal_files(command == "sample"))
    arity = draw(st.sampled_from([n, n, n, n + 1]))
    point = ",".join(draw(st.lists(st.sampled_from(ENTRIES), min_size=arity, max_size=arity)))
    return text, command_line(command, point)


def command_line(command, point, trials="3"):
    """argv of a command, with None where the file's path goes."""
    return {"gb": ["gb", None], "cone": ["cone", None],
            "member": ["member", None, "--point", point],
            "ratio": ["verify", "ratio", None, "--direction", point],
            "sample": ["verify", "sample", None, "--trials", trials]}[command]


def run(text, argv):
    """The exit code and the stderr lines of argv run on a file holding text.

    The first fuzz keeps its own copy of these lines: Hypothesis derives a
    derandomized test's examples from the test's source, so editing it
    would change every example it runs.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.ideal"
        path.write_text(text)
        argv = [str(path) if a is None else a for a in argv]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            return main(argv), err.getvalue().splitlines()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(invocations())
def test_cli_exit_codes_on_generated_inputs(case):
    text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.ideal"
        path.write_text(text)
        argv = [str(path) if a is None else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, text)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, text, lines)


@st.composite
def long_number_invocations(draw):
    """(file text, argv) for a well-formed file, with long numbers.

    Expressions are flat, so that no power of a sum expands, and any
    coefficient may be long.  The polynomial of verify sample gets one
    more term, a variable to a power from 4 to 400, and two trials, since
    the root solve at such degrees may take 500 sweeps.  Every point and
    direction has one long coordinate.
    """
    command = draw(st.sampled_from(COMMANDS))
    names = NAMES[:draw(st.integers(2 if command == "sample" else 1, 3))]
    lines = [draw(expressions(names, 1, LONG_OR_SHORT))
             for _ in range(1 if command == "sample" else draw(st.integers(1, 3)))]
    if command == "sample":
        lines[0] += f" - {draw(st.sampled_from(names))}^{draw(st.integers(4, 400))}"
    text = "vars " + " ".join(names) + "\n" + "".join(f"poly {line}\n" for line in lines)
    entries = draw(st.lists(st.sampled_from(ENTRIES), min_size=len(names), max_size=len(names)))
    entries[draw(st.integers(0, len(names) - 1))] = draw(LONG_COORDINATE)
    return text, command_line(command, ",".join(entries), trials="2")


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(long_number_invocations())
def test_cli_answers_well_formed_inputs_with_long_numbers(case):
    text, argv = case
    code, lines = run(text, argv)
    assert code in (0, 1, 2, 3), (argv, text)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, text, lines)
        if argv[0] in ("gb", "cone"):  # only the zero ideal has no answer
            assert lines[0].endswith("no nonzero polynomial"), (argv, text, lines)
