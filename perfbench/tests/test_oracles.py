"""The benchmark's oracles agree with the program on small cases.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jobs
import oracles
import run
import stream
from onsager import cli, core, tetra
from onsager.expressions import format_value
from onsager.ideals import ReciprocalIdeal
from onsager.polynomials import LaurentPoly
from onsager.v_ideals import classify_ideals
from spans import BOUNDARIES, boundary_name

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def poly(coeffs):
    return LaurentPoly(dict(enumerate(coeffs)))


@pytest.mark.parametrize("m", range(-58, 60))
def test_chebyshev_a_matches_phi_v(m):
    assert format_value(tetra.phi_v(core.A(m))) == oracles.format_v([], *oracles.phi_a(m))


@pytest.mark.parametrize("l", range(1, 60))
def test_chebyshev_g_matches_phi_v(l):
    assert format_value(tetra.phi_v(core.G(l))) == oracles.format_v(oracles.phi_g(l), [], [])


def test_printers_match_on_random_combinations():
    rng = random.Random(5)
    for _ in range(50):
        a_terms, g_terms = jobs._random_abstract(rng, 12, rng.randint(1, 5))
        x = core.OnsagerElement(a_terms, g_terms)
        assert format_value(x) == oracles.format_onsager(a_terms, g_terms)
        assert format_value(tetra.phi_v(x)) == oracles.format_v(*oracles.phi_element(a_terms, g_terms))


@pytest.mark.parametrize("window", [1, 2, 3])
def test_verify_suite_expectations(window):
    assert cli_output(["verify", "onsager", "--window", str(window)]) == (
        0, "\n".join(oracles.verify_onsager_lines(window)) + "\n")
    assert cli_output(["verify", "loop", "--window", str(window)]) == (
        0, "\n".join(oracles.verify_loop_lines(window)) + "\n")


@pytest.mark.parametrize("suite", sorted(oracles.VERIFY_OK_LINES))
def test_verify_ok_line_counts(suite):
    code, out = cli_output(["verify", suite])
    assert code == 0 and oracles.all_ok(out.splitlines(), oracles.VERIFY_OK_LINES[suite])


def test_planted_closedness():
    for L in range(4):
        for K in range(4):
            ideal = ReciprocalIdeal(poly(oracles.planted(L, K, [3, -5])))
            assert ideal.is_closed() == oracles.closed_expected(L, K)
            assert (ideal.mult_one, ideal.mult_minus_one) == (L, K)


def test_classify_table_does_not_depend_on_q():
    for q in ([1, 3, 1], [2, -7, 0, 0, 0, 1], [0, 1], [5, 1]):
        records = classify_ideals(poly(q))
        assert [(r.kind, r.descriptor, r.closed, tuple(r.z_delta)) for r in records] == list(
            oracles.CLASSIFY_TABLE)


def test_coprime_certificate():
    assert oracles.coprime_mod_p([1, 1], [3, 0, 1])
    assert not oracles.coprime_mod_p([1, 1], oracles.pmul([1, 1], [3, 0, 1]))


@pytest.mark.parametrize("name", sorted(jobs.CLI_WORKLOADS))
def test_light_cli_jobs_pass_their_checks(name):
    # Jobs under half a second in a fresh process; the ladder tops are
    # covered by the benchmark runs themselves.
    light = {"jacobi-abstract", "verify-dg", "verify-tetra"}
    for index in range(2):
        for job in jobs.CLI_WORKLOADS[name](7, index):
            if job.kind in light or (job.size is not None and job.size <= 16):
                code, out = cli_output(job.argv)
                assert code == 0 and job.check(out), job.argv


def test_stream_pass_passes_its_checks():
    records, passes = stream.run_stream(seed=3, seconds=0, min_passes=1)
    assert passes == 1 and len(records) == stream.JOBS_PER_PASS
    assert all(ok for _, _, _, ok in records), records


def test_wrong_answers_fail_the_checks():
    job = jobs.embed_degree_pass(1, 0)[0]
    assert not job.check(cli_output(["convert", "--to", "v", "A_2"])[1])
    assert not jobs.expect_text("0")("2*G_1\n")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tail_percentile_has_ten_jobs_beyond(name):
    n = run.MIN_PASSES[name] * run.jobs_per_pass(name)
    pct = run.tail_percentile(name)
    assert n * (100 - pct) / 100 >= 10


def test_traced_cli_reports_every_boundary():
    env = run.child_env(ROOT)
    proc = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), "bracket", "[A_1, A_0]"],
                          capture_output=True, text=True, env=env, check=True)
    data = json.loads(proc.stdout)
    assert data["rc"] == 0 and data["stdout"] == "2*G_1\n"
    assert set(data["spans"]) == {boundary_name(m, q) for m, q in BOUNDARIES}
    assert data["spans"]["cli.main"][0] == 1
    assert data["spans"]["core.bracket"][0] == 1


def test_probe_reaches_every_boundary():
    env = run.child_env(ROOT)
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py")], capture_output=True, text=True,
                          env=env, check=True)
    data = json.loads(proc.stdout)
    assert data["failed"] == 0
    assert all(calls > 0 for calls, _ in data["spans"].values())


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.E2E_UNITS[metric["name"]]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for m, q in BOUNDARIES:
        assert per_layer[f"{boundary_name(m, q)}.calls"] == "count"
        assert per_layer[f"{boundary_name(m, q)}.self_s"] == "s"
    for name, unit in per_layer.items():
        assert run.per_layer_unit(name) == unit
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_scalar_text_never_reads_as_an_option():
    assert jobs._text(Fraction(-2, 3)) == "(-2/3)"
