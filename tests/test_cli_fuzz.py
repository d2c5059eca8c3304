"""Fuzz of the CLI: every input ends with a documented exit code.

Ideal files are drawn from the grammar's tokens, with malformed lines,
stray vars-lines and zero denominators mixed in, and points and
directions from coordinate strings that include ``1/0`` entries.  Each
case runs in process through ``cli.main``.
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
TOKENS = NAMES + ["w", "xy", "vars", "poly", "+", "-", "*", "/", "^", "(", ")",
                  "0", "1", "2", "1/0", "1.5", "2x", "#", "@", ""]
NOISE = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join),
                  st.sampled_from(["vars x", "vars", "poly", "# comment", "poly 1/0",
                                   "poly 2/0*x", "poly x*w", "poly (x", "poly x^",
                                   "poly " + "(" * 1000 + "x" + ")" * 1000]))
ENTRIES = ["0", "1", "-1", "1/2", "-3/4", "0+1i", "2i"] * 3 + [
    "1/0", "-2/0", "1-1/0i", "-1/0i", "x", "1.5", ""]
COMMANDS = ["gb", "cone", "member", "ratio", "sample"]


@st.composite
def expressions(draw, names, depth=0):
    """A well-formed poly-line expression."""
    def factor():
        kind = draw(st.integers(0, 2 if depth == 0 else 1))
        if kind == 0:
            base = draw(st.sampled_from(names))
        elif kind == 1:
            base = draw(st.sampled_from(NUMBERS))
        else:
            base = "(" + draw(expressions(names, depth + 1)) + ")"
        return base + draw(st.sampled_from(["", "", "^0", "^2", "^3"]))

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
    argv = {"gb": ["gb", None], "cone": ["cone", None],
            "member": ["member", None, "--point", point],
            "ratio": ["verify", "ratio", None, "--direction", point],
            "sample": ["verify", "sample", None, "--trials", "3"]}[command]
    return text, argv


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
