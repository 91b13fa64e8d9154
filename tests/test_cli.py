"""Command-line surface: frozen outputs, exit codes, and determinism.

Every test drives ``main(argv)`` directly and reads captured stdout/stderr,
so the suite exercises exactly what a shell user sees.
"""

import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spinring
from spinring import groebner, spindomain
from spinring.cli import main
from spinring.parser import MAX_NESTING
from spinring.quotient import MAX_DIMENSION

RING_FILE = """\
ring toy
vars x y
ideal
  x^2 - y
  x*y - 1
end
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gb -------------------------------------------------------------------------


def test_gb_even_frozen(capsys):
    code, out, err = run(capsys, "gb", "--builtin", "even")
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "b1^4",
        "a0^3 + 4224*b1^3",
        "a1*b0^2",
        "b0^3",
        "a0*a1 - a1*b0",
        "a1^2 + 1/8*a1*b0",
        "a0*b0 - 8/3*a1*b0 - 4/3*b0^2",
        "a0*b1 + 24*b1^2",
        "a1*b1",
        "b0*b1",
    ]


def test_gb_json(capsys):
    code, out, _ = run(capsys, "gb", "--builtin", "odd", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["ring"] == "builtin-odd"
    assert doc["order"] == "grevlex"
    assert len(doc["elements"]) == 6


def test_gb_ring_file(capsys, tmp_path):
    path = tmp_path / "toy.ring"
    path.write_text(RING_FILE)
    code, out, _ = run(capsys, "gb", "--ring", str(path))
    assert code == 0
    assert out.splitlines() == ["x^2 - y", "x*y - 1", "y^2 - x"]


# -- nf, member, hilbert, integrate ----------------------------------------------


def test_nf_frozen(capsys):
    code, out, _ = run(capsys, "nf", "--builtin", "even", "--expr", "a0^2*b1")
    assert code == 0
    assert out == "576*b1^3\n"


def test_member_yes(capsys):
    code, out, _ = run(capsys, "member", "--builtin", "even", "--expr", "a0^2*b0")
    assert code == 0
    assert out == "yes\n"


def test_member_no(capsys):
    code, out, _ = run(capsys, "member", "--builtin", "even", "--expr", "a0")
    assert code == 1
    assert out == "no\n"


def test_member_json_carries_flag(capsys):
    code, out, _ = run(
        capsys, "member", "--builtin", "odd", "--expr", "a0^2*b0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["member"] is True


def test_hilbert_frozen(capsys):
    code, out, _ = run(capsys, "hilbert", "--builtin", "odd")
    assert code == 0
    assert out == "1 3 3 1\n"
    code, out, _ = run(capsys, "hilbert", "--builtin", "even")
    assert out == "1 4 4 1\n"


def test_integrate_frozen(capsys):
    code, out, _ = run(capsys, "integrate", "--builtin", "even", "--expr", "a0^3")
    assert code == 0
    assert out == "-55/6\n"


def test_integrate_json(capsys):
    code, out, _ = run(
        capsys, "integrate", "--builtin", "odd", "--expr", "a1*a0^2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["integral"] == "3/16"


def test_integrate_ring_file_needs_point(capsys, tmp_path):
    path = tmp_path / "art.ring"
    path.write_text("ring art\nvars x\nideal\n  x^2\nend\n")
    code, out, err = run(capsys, "integrate", "--ring", str(path), "--expr", "x")
    assert code == 2
    assert out == ""
    assert "--point" in err

    code, out, err = run(
        capsys, "integrate", "--ring", str(path), "--expr", "3*x", "--point", "x=1/2"
    )
    assert code == 0
    assert out == "3/2\n"


def test_integrate_wrong_degree_is_diagnostic(capsys):
    code, out, err = run(capsys, "integrate", "--builtin", "even", "--expr", "a0")
    assert code == 3
    assert err == "spinring: class of degrees [1] is not integrable, top degree is 3\n"


# -- lefschetz --------------------------------------------------------------------


def test_lefschetz_odd_frozen(capsys):
    code, out, _ = run(
        capsys,
        "lefschetz",
        "--builtin",
        "odd",
        "--class",
        "a0 + a1 + b0",
        "--from-degree",
        "1",
    )
    assert code == 0
    assert out.splitlines() == ["1 0 0", "8 17/6 7", "3 0 4", "rank 3"]


def test_lefschetz_even_rank(capsys):
    code, out, _ = run(
        capsys,
        "lefschetz",
        "--builtin",
        "even",
        "--class",
        "a0 + a1 + b0 + b1",
        "--from-degree",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 4
    assert doc["matrix"][0] == ["1", "0", "0", "0"]


# -- verify -----------------------------------------------------------------------


def test_verify_rejects_source_flag(capsys):
    # verify takes no source; --builtin must be rejected as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--builtin", "even", "--component", "all"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "spinring: unrecognized arguments: --builtin even\n"


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines()[-1] == "result: PASS (44 checks)"


def test_verify_component_even(capsys):
    code, out, _ = run(capsys, "verify", "--component", "even")
    assert code == 0
    assert out.splitlines()[-1] == "result: PASS (16 checks)"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--component", "odd", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["pass"] is True
    assert doc["total_checks"] == 22


# -- strata -----------------------------------------------------------------------


def test_strata_filtered(capsys):
    code, out, _ = run(capsys, "strata", "--graph", "G7", "--component", "odd")
    assert code == 0
    lines = out.splitlines()
    assert lines
    assert all("G7" in line and "odd" in line for line in lines)


def test_strata_json_total(capsys):
    code, out, _ = run(capsys, "strata", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["strata"]) == 30


# -- diagnostics and exit codes -----------------------------------------------------


def test_unknown_variable_single_line(capsys):
    code, out, err = run(capsys, "nf", "--builtin", "even", "--expr", "a0 + c0")
    assert code == 2
    assert out == ""
    assert err == "spinring: unknown variable c0 at column 6\n"


def test_ring_file_parse_error_carries_position(capsys, tmp_path):
    path = tmp_path / "bad.ring"
    path.write_text("ring bad\nvars x\nideal\n  x + q\nend\n")
    code, out, err = run(capsys, "gb", "--ring", str(path))
    assert code == 2
    assert err == "spinring: unknown variable q at line 4, column 7\n"


def test_missing_ring_file(capsys, tmp_path):
    code, out, err = run(capsys, "gb", "--ring", str(tmp_path / "absent.ring"))
    assert code == 2
    assert err.startswith("spinring: ")
    assert err.count("\n") == 1


def test_undecodable_ring_file(capsys, tmp_path):
    path = tmp_path / "latin1.ring"
    path.write_bytes(RING_FILE.encode() + b"# \xff\n")
    code, out, err = run(capsys, "gb", "--ring", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("spinring: cannot read ring file: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 2000])
def test_nesting_limit_exit_code(capsys, depth):
    expr = "(" * depth + "a0" + ")" * depth
    code, out, err = run(capsys, "nf", "--builtin", "even", "--expr", expr)
    if depth <= MAX_NESTING:
        assert (code, out, err) == (0, "a0\n", "")
    else:
        assert (code, out) == (2, "")
        assert err == f"spinring: expression nested too deeply at column {MAX_NESTING + 1}\n"


def test_ring_file_superscript_exponent(capsys, tmp_path):
    path = tmp_path / "sup.ring"
    path.write_text("ring sup\nvars x\nideal\n  x^²\nend\n", encoding="utf-8")
    code, out, err = run(capsys, "gb", "--ring", str(path))
    assert (code, out) == (2, "")
    assert err == "spinring: unexpected character '²' at line 4, column 5\n"


@example("a0^²")
@example("²*a0")
@example("a0 + ¹/2")
@settings(deadline=None)  # each example is a whole command; its time is not what is tested
@given(st.text())
def test_nf_never_crashes(text):
    # a long run of digits is a large exponent, whose normal form takes unbounded work
    assume(not re.search(r"\d{4}", text))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["nf", "--builtin", "odd", "--expr", text])
        except SystemExit as exc:  # usage errors exit through argparse
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()


def test_non_artinian_exit_code(capsys, tmp_path):
    path = tmp_path / "curve.ring"
    path.write_text("ring curve\nvars x y\nideal\n  x*y\nend\n")
    code, out, err = run(capsys, "hilbert", "--ring", str(path))
    assert code == 3
    assert "no power of" in err
    assert err.count("\n") == 1


def test_dimension_limit_exit_code(capsys, tmp_path):
    # the second ring has dimension 4 but one piece per degree up to 2000001
    for ring, what in [
        ("vars x\nideal\n  x^99999999999", "dimension"),
        ("vars x y\nweights 2000000 1\nideal\n  x^2\n  y^2", "top degree"),
    ]:
        path = tmp_path / "big.ring"
        path.write_text(f"ring big\n{ring}\nend\n")
        code, out, err = run(capsys, "hilbert", "--ring", str(path))
        assert (code, out) == (3, "")
        assert err == f"spinring: quotient {what} exceeds the limit of {MAX_DIMENSION}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert"],
        ["integrate", "--expr", "x", "--point", "x=1"],
        ["lefschetz", "--class", "x", "--from-degree", "1"],
    ],
    ids=["hilbert", "integrate", "lefschetz"],
)
def test_graded_commands_refuse_ungraded_quotient(capsys, tmp_path, argv):
    # x is invertible in the toy ring, so no Hilbert function or Lefschetz
    # rank exists there
    path = tmp_path / "toy.ring"
    path.write_text(RING_FILE)
    code, out, err = run(capsys, argv[0], "--ring", str(path), *argv[1:])
    assert (code, out) == (3, "")
    assert err == (
        "spinring: the quotient is not graded: basis element x^2 - y is not weighted-homogeneous\n"
    )


def test_nf_of_large_power(capsys, tmp_path):
    path = tmp_path / "toy.ring"
    path.write_text(RING_FILE)
    code, out, _ = run(capsys, "nf", "--ring", str(path), "--expr", "x^3000")
    assert (code, out) == (0, "1\n")


def test_division_step_limit_exit_code(capsys, monkeypatch, tmp_path):
    path = tmp_path / "toy.ring"
    path.write_text(RING_FILE)
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 100)
    code, out, err = run(capsys, "nf", "--ring", str(path), "--expr", "x^99999999999")
    assert (code, out) == (3, "")
    assert err == "spinring: division exceeds the limit of 100 reduction steps\n"
    # the cap also stops Buchberger's pair loop: completing cyclic-4 takes at
    # most 4 steps in one S-pair reduction
    path = tmp_path / "cyclic4.ring"
    path.write_text(
        "ring cyclic4\nvars a b c d\nideal\n  a + b + c + d\n  a*b + b*c + c*d + d*a\n"
        "  a*b*c + b*c*d + c*d*a + d*a*b\n  a*b*c*d - 1\nend\n"
    )
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 3)
    code, out, err = run(capsys, "gb", "--ring", str(path))
    assert (code, out) == (3, "")
    assert err == "spinring: division exceeds the limit of 3 reduction steps\n"


def test_number_too_long_to_print(capsys):
    # each literal is within int()'s 4300-digit limit; the products are not
    n = "7" * 3000
    for fmt in ("text", "json"):
        result = run(capsys, "nf", "--builtin", "odd", "--expr", f"1*({n})*({n})", "--format", fmt)
        assert result == (3, "", "spinring: number too long to print\n")
    result = run(capsys, "integrate", "--builtin", "even", "--expr", f"({n})*({n})*a0^3")
    assert result == (3, "", "spinring: number too long to print\n")
    # a literal past that limit is malformed input
    result = run(capsys, "nf", "--builtin", "odd", "--expr", "7" * 4301)
    assert result == (2, "", "spinring: number too long at column 1\n")


def test_expression_starting_with_minus(capsys):
    assert run(capsys, "nf", "--builtin", "even", "--expr=-a0+b0") == (0, "-a0 + b0\n", "")
    # spaced, argparse takes the value for an option
    with pytest.raises(SystemExit) as exc:
        main(["nf", "--builtin", "even", "--expr", "-a0+b0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.endswith("argument --expr: expected one argument\n")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gb"])  # missing required source
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1


def test_bad_point_spec(capsys, tmp_path):
    path = tmp_path / "art.ring"
    path.write_text("ring art\nvars x\nideal\n  x^2\nend\n")
    code, _, err = run(capsys, "integrate", "--ring", str(path), "--expr", "x", "--point", "x")
    assert code == 2
    assert "WITNESS=VALUE" in err


def test_bad_point_value(capsys, tmp_path):
    path = tmp_path / "art.ring"
    path.write_text("ring art\nvars x\nideal\n  x^2\nend\n")
    code, out, err = run(capsys, "integrate", "--ring", str(path), "--expr", "x", "--point", "x=1/0")
    assert (code, out) == (2, "")
    assert err == "spinring: bad point value '1/0'\n"


def test_failing_verify_reports_the_mismatch(capsys, monkeypatch):
    monkeypatch.setitem(spindomain._EVEN_DATA, "a0_cubed", Fraction(-1, 6))
    code, out, err = run(capsys, "verify")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failed) == 1
    assert failed[0].startswith("[FAIL] even a0_cubed_integral ")
    assert failed[0].endswith("  -55/6  (expected -1/6)")
    assert lines[-1] == "result: FAIL (1 of 44 checks failed)"


def test_import_does_no_algebra():
    # every CLI process pays for the import, so it must parse and build nothing
    probe = (
        "import sys\n"
        "seen = set()\n"
        "sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code.co_name))\n"
        "import spinring.cli\n"
        "sys.setprofile(None)\n"
        "print(sorted(seen & {'parse_polynomial', 'buchberger', 'build_quotient'}))\n"
    )
    src = str(Path(spinring.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={"PYTHONPATH": src}, check=True
    )
    assert result.stdout == "[]\n"


def test_byte_identical_reruns(capsys):
    first = run(capsys, "verify", "--format", "json")
    second = run(capsys, "verify", "--format", "json")
    assert first == second
    third = run(capsys, "gb", "--builtin", "even")
    fourth = run(capsys, "gb", "--builtin", "even")
    assert third == fourth


# -- golden outputs -----------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"

# name -> (exit code, argv); each runs in text and in JSON
GOLDEN_COMMANDS = {
    "verify-all": (0, ["verify", "--component", "all"]),
    "verify-even": (0, ["verify", "--component", "even"]),
    "verify-odd": (0, ["verify", "--component", "odd"]),
    "gb-even": (0, ["gb", "--builtin", "even"]),
    "gb-odd": (0, ["gb", "--builtin", "odd"]),
    "gb-toy": (0, ["gb", "--ring", "toy.ring"]),
    "hilbert-even": (0, ["hilbert", "--builtin", "even"]),
    "hilbert-odd": (0, ["hilbert", "--builtin", "odd"]),
    "nf-even": (0, ["nf", "--builtin", "even", "--expr", "a0^2*b1"]),
    "nf-toy": (0, ["nf", "--ring", "toy.ring", "--expr", "x^5"]),
    "member-even": (0, ["member", "--builtin", "even", "--expr", "a0^2*b0"]),
    "member-odd-no": (1, ["member", "--builtin", "odd", "--expr", "a0"]),
    "integrate-even": (0, ["integrate", "--builtin", "even", "--expr", "a0^3"]),
    "integrate-odd": (0, ["integrate", "--builtin", "odd", "--expr", "a1*a0^2"]),
    "lefschetz-even": (
        0,
        ["lefschetz", "--builtin", "even", "--class", "a0 + a1 + b0 + b1", "--from-degree", "1"],
    ),
    "lefschetz-odd": (
        0,
        ["lefschetz", "--builtin", "odd", "--class", "a0 + a1 + b0", "--from-degree", "1"],
    ),
    "strata-G7-odd": (0, ["strata", "--graph", "G7", "--component", "odd"]),
}

SUBCOMMANDS = ("gb", "nf", "member", "hilbert", "integrate", "lefschetz", "verify", "strata")


def golden_cases():
    for name, (code, argv) in GOLDEN_COMMANDS.items():
        for fmt in ("text", "json"):
            yield pytest.param(f"{name}.{fmt}", code, [*argv, "--format", fmt], id=f"{name}-{fmt}")
    for command in SUBCOMMANDS:
        yield pytest.param(f"help-{command}.txt", 0, [command, "--help"], id=f"help-{command}")


@pytest.mark.parametrize("name, code, argv", list(golden_cases()))
def test_golden_output(capsys, monkeypatch, tmp_path, name, code, argv):
    # argparse wraps --help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.ring").write_text(RING_FILE)
    try:
        got = main(argv)
    except SystemExit as exc:  # --help exits through argparse
        got = exc.code
    out = capsys.readouterr().out
    assert (got, out) == (code, (GOLDEN / name).read_text(encoding="utf-8"))
