import subprocess
import sys

from onsager.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_golden(capsys):
    code, out, _ = run_cli(capsys, "bracket", "[A_1, A_0]")
    assert code == 0
    assert out == "2*G_1\n"


def test_ideal_closed_golden(capsys):
    code, out, _ = run_cli(capsys, "ideal", "closed", "--p", "(t-1)^2*(t+1)^2")
    assert code == 0
    assert out == "closed: true\n"


def test_convert_golden(capsys):
    code, out, _ = run_cli(capsys, "convert", "--to", "loop", "A_0")
    assert code == 0
    assert out == "e + f\n"


def test_convert_directions(capsys):
    code, out, _ = run_cli(capsys, "convert", "--to", "v", "A_0")
    assert (code, out) == (0, "2*v_1 - 2*v_2\n")
    code, out, _ = run_cli(capsys, "convert", "--to", "onsager", "v_0")
    assert (code, out) == (0, "1/4*G_1\n")
    code, out, _ = run_cli(capsys, "convert", "--to", "onsager", "b_0")
    assert (code, out) == (0, "A_0\n")
    code, out, _ = run_cli(capsys, "convert", "--to", "loop", "[b_1, b_0]")
    assert (code, out) == (0, "(t - t^-1)*h\n")


def test_convert_outside_domain_fails(capsys):
    code, _, err = run_cli(capsys, "convert", "--to", "onsager", "h")
    assert code == 1
    assert "not fixed" in err
    code, _, err = run_cli(capsys, "convert", "--to", "v", "u_2")
    assert code == 1
    assert "v_2" in err


def test_jacobi_command(capsys):
    code, out, _ = run_cli(capsys, "jacobi", "A_2", "A_1", "A_0")
    assert code == 0
    assert out == "0\n"


def test_ideal_contains(capsys):
    code, out, _ = run_cli(capsys, "ideal", "contains", "--p", "t-1", "[b_1, b_0]")
    assert (code, out) == (0, "member: true\n")
    code, out, _ = run_cli(capsys, "ideal", "contains", "--p", "(t-1)^2", "[b_1, b_0]")
    assert code == 0
    assert out.startswith("member: false")
    assert "h-component" in out


def test_ideal_contains_onsager_expression(capsys):
    code, out, _ = run_cli(capsys, "ideal", "contains", "--p", "t-1", "2*G_1")
    assert (code, out) == (0, "member: true\n")


def test_ideal_contains_tetra_expression(capsys):
    # [v_1, v_2] = -v_0 corresponds to -G_1/4, whose h-component carries t-1
    code, out, _ = run_cli(capsys, "ideal", "contains", "--p", "t-1", "[v_1, v_2]")
    assert (code, out) == (0, "member: true\n")


def test_convert_scalar_zero_with_realization(capsys):
    code, out, _ = run_cli(capsys, "convert", "--to", "loop", "--realization", "onsager", "0")
    assert (code, out) == (0, "0\n")
    code, _, err = run_cli(capsys, "convert", "--to", "loop", "1")
    assert code == 2


def test_usage_errors(capsys):
    assert run_cli(capsys, "bracket")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    code, _, err = run_cli(capsys, "bracket", "A_1 +* 2")
    assert code == 2
    assert "position" in err
    code, _, err = run_cli(capsys, "ideal", "closed", "--p", "b_0")
    assert code == 2


def test_non_reciprocal_closed_query_fails(capsys):
    code, _, err = run_cli(capsys, "ideal", "closed", "--p", "t^2+t")
    assert code == 1
    assert "reciprocal" in err


def test_verify_suites_exit_zero(capsys):
    for suite, window in (("onsager", 3), ("loop", 4), ("tetra", 4), ("dg", 4)):
        code, out, _ = run_cli(capsys, "verify", suite, "--window", str(window))
        assert code == 0, (suite, out)
        assert "FAIL" not in out
        assert "ok" in out


CLASSIFY_GOLDEN = """\
flags=100100         closed=true  z-delta: -
flags=100010         closed=true  z-delta: -
flags=100110         closed=false z-delta: w_1*(t-1)
flags=100111         closed=true  z-delta: -
flags=010100         closed=true  z-delta: -
flags=010010         closed=true  z-delta: -
flags=010110         closed=false z-delta: w_1*(t-1)
flags=010111         closed=true  z-delta: -
flags=110100         closed=false z-delta: w_2*t
flags=110010         closed=false z-delta: w_2*t
flags=110110         closed=false z-delta: w_2*t,w_1*(t-1)
flags=110111         closed=false z-delta: w_2*t
flags=111100         closed=true  z-delta: -
flags=111010         closed=true  z-delta: -
flags=111110         closed=false z-delta: w_1*(t-1)
flags=111111         closed=true  z-delta: -
eta=<nonzero>        closed=false z-delta: w_2*t,w_1*(t-1)
"""


def test_classify_golden(capsys):
    code, out, _ = run_cli(capsys, "ideal", "classify", "--q", "1")
    assert code == 0
    assert out == CLASSIFY_GOLDEN
    closed_lines = [l for l in out.strip().split("\n") if "closed=true" in l]
    assert len(closed_lines) == 9


def test_series_b_golden(capsys):
    code, out, _ = run_cli(capsys, "series-b")
    assert code == 0
    assert out == (
        "derived series dimensions: [6, 4, 0]\n"
        "lower central series dimensions: [6, 4, 4]\n"
        "solvable: true\n"
        "nilpotent: false\n"
    )


def test_records_mode(capsys, monkeypatch):
    monkeypatch.setenv("ONSAGER_OUTPUT", "records")
    code, out, _ = run_cli(capsys, "bracket", "[A_1, A_0]")
    assert (code, out) == (0, "result=2*G_1\n")
    code, out, _ = run_cli(capsys, "ideal", "closed", "--p", "t^2+3*t+1")
    assert (code, out) == (0, "closed=true\n")
    code, out, _ = run_cli(capsys, "series-b")
    assert out.startswith("series=derived dims=6,4,0\n")


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "onsager.cli", "bracket", "[G_1, A_0]"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "-A_-1 + A_1\n"


def test_polynomial_arguments_reject_gaussian_coefficients(capsys):
    for argv in (
        ("ideal", "closed", "--p", "t^2+i*t+1"),
        ("ideal", "contains", "--p", "t-i", "b_0"),
        ("ideal", "classify", "--q", "t+i"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: polynomial coefficients must be rational\n", argv


def _run_module(*argv):
    return subprocess.run([sys.executable, "-m", "onsager.cli", *argv], capture_output=True, text=True)


def test_recursion_limit_reports_error_without_traceback():
    # The recursive-descent parser runs out of stack on deeply nested input.
    result = _run_module("bracket", "(" * 300 + "A_1" + ")" * 300)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_large_index_converts_and_round_trips(capsys):
    # The closed-form embedding has no recursion depth to run out of.
    forward = _run_module("convert", "--to", "v", "A_1200")
    assert (forward.returncode, forward.stderr) == (0, "")
    # The printed element (~1.7 MB, a sum of 2400 terms) is too long for one
    # argv string on Linux, so the way back runs in process.
    code, out, err = run_cli(capsys, "convert", "--to", "onsager", forward.stdout.strip())
    assert (code, out, err) == (0, "A_1200\n", "")


def test_negative_window_is_a_usage_error(capsys):
    for suite, window in (("onsager", "-1"), ("tetra", "-3")):
        code, out, err = run_cli(capsys, "verify", suite, "--window", window)
        assert (code, out) == (2, ""), suite
        assert "window must be a nonnegative integer" in err
