import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcone
from tcone.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

FIVELINES = str(DATA / "fivelines.ideal")
CUSP = str(DATA / "cusp.ideal")
WHOLERING = str(DATA / "wholering.ideal")
BROKEN = str(DATA / "broken.ideal")


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_verify_distance_inconclusive_exit_three(capsys):
    code, out, _ = run(capsys, ["verify", "distance", WHOLERING,
                                "--direction", "1", "--steps", "3"])
    assert code == 3
    assert "verdict: inconclusive" in out


# -- verify sample ----------------------------------------------------------------


def test_verify_sample_pass(capsys):
    code, out, _ = run(capsys, ["verify", "sample", CUSP, "--trials", "40"])
    assert code == 0
    assert "verdict: pass" in out


def test_verify_sample_refuses_multiple_generators(capsys):
    code, _, err = run(capsys, ["verify", "sample", FIVELINES])
    assert code == 1
    assert "hypersurface" in err


# -- error handling ----------------------------------------------------------------


def test_parse_error_exit_one(capsys):
    code, _, err = run(capsys, ["gb", BROKEN])
    assert code == 1
    assert 'unknown identifier "xy"' in err


def test_missing_file_exit_one(capsys):
    code, _, err = run(capsys, ["gb", str(DATA / "missing.ideal")])
    assert code == 1
    assert "does not exist" in err


def test_unknown_subcommand_exit_one(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1


def test_help_exit_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "verify" in out


def test_exact_commands_do_not_import_numpy():
    script = (
        "import sys\n"
        "import tcone.cli\n"
        "assert 'numpy' not in sys.modules, 'import tcone.cli'\n"
        f"for args in (['gb', {FIVELINES!r}], ['cone', {FIVELINES!r}],\n"
        f"             ['member', {FIVELINES!r}, '--point', '0,0,1']):\n"
        "    assert tcone.cli.main(args) == 0, args\n"
        "    assert 'numpy' not in sys.modules, args\n"
        "    assert 'tcone.numeric' not in sys.modules, args\n"
        "import tcone.numeric\n"
        "assert 'numpy' not in sys.modules, 'import tcone.numeric'\n")
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
]


@pytest.mark.parametrize("name,args", GOLDEN_CASES)
def test_golden_output(capsys, name, args):
    code, first, _ = run(capsys, args)
    assert code in (0, 2)
    code2, second, _ = run(capsys, args)
    assert code == code2
    assert first == second  # byte-identical across consecutive runs
    assert first == (GOLDEN / name).read_text()
