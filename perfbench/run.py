"""The onsager benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

* ``verify-window``  CLI verify suites over a window ladder, plus seeded
  ``jacobi`` calls on random abstract elements.
* ``embed-degree``   CLI conversions into the v-module over a degree
  ladder, back out of it, and three-point ``jacobi`` calls.
* ``ideal-stream``   seeded ideal-toolkit library calls in one process.

Load comes from one client in a closed loop: one job process at a time,
the next started when the last has exited.  Every job's output is checked
against an oracle from ``oracles``.

With ``--trace 0`` the run measures whole passes of the workload for about
``--seconds`` and prints the end-to-end metrics, its times scaled by a
calibration task timed in the same run (see ``CAL_CODE``).  With ``--trace 1`` it
runs one pass (several for ``ideal-stream``) both plainly and with span
wrappers, then the fixed probe and the layer ladders, and prints the
per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import jobs
import stream
from ladders import slope
from spans import BOUNDARIES, MODULES, boundary_name

BENCH = Path(__file__).resolve().parent
PY = sys.executable

WORKLOADS = ("verify-window", "embed-degree", "ideal-stream")
# The job kind whose sizes form each workload's ladder.
LADDER = {"verify-window": "verify-onsager", "embed-degree": "convert-v", "ideal-stream": "closed"}
# Enough whole passes that the tail percentile has ten jobs beyond it.
MIN_PASSES = {"verify-window": 4, "embed-degree": 4, "ideal-stream": 20}
# ideal-stream passes per traced run; a CLI traced run is one pass.
TRACE_STREAM_PASSES = 5
SETUP_REPS = 10
SETUP_PER_PASS = 2
# On a shared machine the speed of every kind of work can drift together
# by 20-40 % for minutes.  A fixed calibration task that does not touch
# onsager (a fresh interpreter, stdlib imports, Fraction, dict and
# big-integer work, like a small job) is timed beside the jobs, and the
# end-to-end times are scaled by CAL_NOMINAL_S / (its median in the run):
# seconds on a machine where the task takes CAL_NOMINAL_S.
CAL_CODE = (
    "from fractions import Fraction as F\nimport argparse, dataclasses, re\n"
    "d, x = {}, 3 ** 2000\n"
    "for i in range(1, 6000):\n"
    "    d[i % 97] = d.get(i % 97, 0) + F(i, i % 13 + 1) * F(3, 7)\n"
    "    x = (x * 7 + i) % 5 ** 3000\n"
)
CAL_NOMINAL_S = 0.2
JOB_TIMEOUT_S = 60.0
STREAM_TIMEOUT_S = 120.0
# Every child is killed by this many seconds after start-up, so a run that
# hangs still ends within the 180 s a run may take.
HARD_LIMIT_S = 160.0
_START = time.perf_counter()

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
    "largest_s": "s", "size_exp": "slope", "peak_rss_mb": "MB", "ok_frac": "frac",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed job)."""


@dataclass
class Proc:
    rc: int
    out: str
    err: str
    wall: float
    rss_kb: int
    timed_out: bool


@dataclass
class Sample:
    kind: str
    size: Optional[int]
    wall: float
    ok: bool


@dataclass
class Run:
    samples: list = field(default_factory=list)
    rss_kb: int = 0
    passes: int = 0
    imports: list = field(default_factory=list)
    calibration: list = field(default_factory=list)


def time_left(cap):
    return max(0.0, min(cap, _START + HARD_LIMIT_S - time.perf_counter()))


def run_process(argv, env, timeout=JOB_TIMEOUT_S):
    """Run one process to completion; wall time and its own peak RSS."""
    timeout = time_left(timeout)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    text = {pipe: b"".join(parts).decode(errors="replace") for pipe, parts in chunks.items()}
    return Proc(proc.returncode, text[proc.stdout], text[proc.stderr], wall, usage.ru_maxrss, timed_out)


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k not in ("ONSAGER_OUTPUT", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def cli_argv(job):
    return [PY, "-m", "onsager.cli", *job.argv]


def cli_ok(proc, job):
    """Exit 0, no traceback, no timeout, and the oracle's output."""
    return proc.rc == 0 and not proc.timed_out and "Traceback" not in proc.err and job.check(proc.out)


def child_json(proc, what):
    if proc.rc != 0 or proc.timed_out:
        raise BenchError(f"{what} exited with {proc.rc}: {proc.err.strip()[-2000:]}")
    return json.loads(proc.out)


# --- set-up ---


def check_checkout(root, env):
    """onsager imports from this checkout's src/; returns the bare interpreter start."""
    probe = run_process([PY, "-c", "import onsager; print(onsager.__file__)"], env)
    if probe.rc != 0:
        raise BenchError(f"cannot import onsager from {root / 'src'}: {probe.err.strip()[-2000:]}")
    if not Path(probe.out.strip()).resolve().is_relative_to(root / "src"):
        raise BenchError(f"onsager imported from {probe.out.strip()}, not from this checkout")
    interp = [run_process([PY, "-S", "-c", "pass"], env) for _ in range(SETUP_REPS)]
    if any(p.rc != 0 for p in interp):
        raise BenchError("interpreter start-up failed")
    return statistics.median(p.wall for p in interp)


def process_times(argv, env, count):
    procs = [run_process(argv, env) for _ in range(count)]
    if any(p.rc != 0 for p in procs):
        raise BenchError(f"{' '.join(argv[1:])!r} failed: {procs[0].err.strip()[-2000:]}")
    return [p.wall for p in procs]


def sample_setup(run, env, count):
    """Fresh ``import onsager`` times and calibration-task times."""
    run.imports += process_times([PY, "-c", "import onsager"], env, count)
    run.calibration += process_times([PY, "-S", "-c", CAL_CODE], env, count)


# --- measured (untraced) runs ---


def measure_cli(name, seed, seconds, env):
    run = Run()
    for index in jobs.whole_passes(seconds, MIN_PASSES[name]):
        if not time_left(JOB_TIMEOUT_S):
            break
        # Set-up and calibration are sampled between passes, so they see
        # the same machine load as the jobs.
        sample_setup(run, env, SETUP_PER_PASS)
        for job in jobs.CLI_WORKLOADS[name](seed, index):
            proc = run_process(cli_argv(job), env)
            run.samples.append(Sample(job.kind, job.size, proc.wall, cli_ok(proc, job)))
            run.rss_kb = max(run.rss_kb, proc.rss_kb)
        run.passes = index + 1
    return run


def stream_argv(seed, seconds, min_passes, trace=False):
    argv = [PY, str(BENCH / "stream.py"), "--seed", str(seed), "--seconds", str(seconds),
            "--min-passes", str(min_passes)]
    return argv + ["--trace"] if trace else argv


def stream_run(proc):
    data = child_json(proc, "ideal-stream")
    run = Run([Sample(*record) for record in data["records"]], proc.rss_kb, data["passes"])
    return run, data.get("spans")


def measure_stream(seed, seconds, env):
    before = Run()
    sample_setup(before, env, SETUP_REPS // 2)
    proc = run_process(stream_argv(seed, seconds, MIN_PASSES["ideal-stream"]), env, STREAM_TIMEOUT_S)
    run = stream_run(proc)[0]
    run.imports, run.calibration = before.imports, before.calibration
    sample_setup(run, env, SETUP_REPS - SETUP_REPS // 2)
    return run


def jobs_per_pass(name):
    if name == "ideal-stream":
        return stream.JOBS_PER_PASS
    return len(jobs.CLI_WORKLOADS[name](0, 0))


def tail_percentile(name):
    """Highest percentile, in steps of 5, with at least ten jobs beyond it
    in the shortest run (``MIN_PASSES`` whole passes).

    Fixed per workload, so a faster commit that fits more passes into the
    run reports the same percentile.
    """
    n = MIN_PASSES[name] * jobs_per_pass(name)
    return max(p for p in range(50, 100, 5) if n * (100 - p) >= 1000)


def ladder_medians(run, kind):
    sizes = sorted({s.size for s in run.samples if s.kind == kind})
    return {size: statistics.median(s.wall for s in run.samples if s.kind == kind and s.size == size)
            for size in sizes}


def e2e_metrics(name, run):
    setup_s = statistics.median(run.imports)
    cal_s = statistics.median(run.calibration)
    scale = CAL_NOMINAL_S / cal_s
    walls = [s.wall for s in run.samples]
    passed = sum(s.ok for s in run.samples)
    pct = tail_percentile(name)
    tail = statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]
    rungs = ladder_medians(run, LADDER[name])
    # CLI jobs include interpreter start and import; the slope is of the
    # work above that.  Library calls in the stream include neither.
    offset = 0.0 if name == "ideal-stream" else setup_s
    raw = {
        "setup_s": setup_s,
        "ops_per_s": passed / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail,
        "largest_s": rungs[max(rungs)],
    }
    metrics = {name: value / scale if name == "ops_per_s" else value * scale for name, value in raw.items()}
    metrics.update({
        "size_exp": slope([(size, max(t - offset, 1e-3)) for size, t in rungs.items()]),
        "peak_rss_mb": run.rss_kb / 1024,
        "ok_frac": passed / len(walls),
    })
    notes = [
        f"passes {run.passes}, jobs {len(walls)}, failed {len(walls) - passed}, "
        f"failed_frac {(len(walls) - passed) / len(walls):.6g}",
        f"job_tail_s is p{pct}: {sum(w > tail for w in walls)} of {len(walls)} jobs beyond it",
        "ladder " + LADDER[name] + ": " + ", ".join(f"{size} -> {t:.4f} s" for size, t in rungs.items()),
        f"calibration task median {cal_s:.4f} s (nominal {CAL_NOMINAL_S} s): times scaled by {scale:.4f}",
        "unscaled " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
    ]
    return metrics, notes


# --- traced runs ---


class TraceTotals:
    def __init__(self):
        self.spans = {boundary_name(m, q): [0, 0.0] for m, q in BOUNDARIES}
        self.plain_s = 0.0
        self.traced_s = 0.0
        self.covered_s = 0.0
        self.attempted = 0
        self.failed = 0

    def count(self, ok):
        self.attempted += 1
        self.failed += not ok

    def add_spans(self, spans):
        for name, (calls, self_s) in spans.items():
            self.spans[name][0] += calls
            self.spans[name][1] += self_s

    def overhead_frac(self):
        return self.traced_s / self.plain_s - 1.0


def trace_cli(job_list, env, totals):
    """Each job plainly and then traced, alternating, for paired times."""
    for job in job_list:
        plain = run_process(cli_argv(job), env)
        totals.count(cli_ok(plain, job))
        traced = run_process([PY, str(BENCH / "traced_cli.py"), *job.argv], env)
        try:
            data = json.loads(traced.out) if traced.rc == 0 and not traced.timed_out else None
        except ValueError:
            data = None
        totals.count(data is not None and data["rc"] == 0 and "Traceback" not in data["stderr"]
                     and job.check(data["stdout"]))
        if data is not None:
            totals.add_spans(data["spans"])
        totals.plain_s += plain.wall
        totals.traced_s += traced.wall
        totals.covered_s += traced.wall


def trace_stream(seed, passes, env, totals):
    plain, _ = stream_run(run_process(stream_argv(seed, 0, passes), env, STREAM_TIMEOUT_S))
    proc = run_process(stream_argv(seed, 0, passes, trace=True), env, STREAM_TIMEOUT_S)
    traced, spans = stream_run(proc)
    for sample in plain.samples + traced.samples:
        totals.count(sample.ok)
    totals.add_spans(spans)
    totals.plain_s += sum(s.wall for s in plain.samples)
    totals.traced_s += sum(s.wall for s in traced.samples)
    totals.covered_s += proc.wall


def trace_workload(name, seed, env, full):
    """Paired plain and traced runs; ``full`` is a whole pass, else one job."""
    totals = TraceTotals()
    if name == "ideal-stream":
        trace_stream(seed, TRACE_STREAM_PASSES if full else 1, env, totals)
    else:
        job_list = jobs.CLI_WORKLOADS[name](seed, 0)
        trace_cli(job_list if full else job_list[:1], env, totals)
    return totals


def per_layer_metrics(name, seed, env, interp_s):
    totals = trace_workload(name, seed, env, full=True)
    probe = run_process([PY, str(BENCH / "probe.py")], env)
    data = child_json(probe, "probe")
    totals.add_spans(data["spans"])
    totals.covered_s += probe.wall
    totals.attempted += data["attempted"]
    totals.failed += data["failed"]

    metrics = {}
    for module, qualname in BOUNDARIES:
        key = boundary_name(module, qualname)
        calls, self_s = totals.spans[key]
        metrics[f"{key}.calls"] = calls
        metrics[f"{key}.self_s"] = self_s
    for module in MODULES:
        own = sum(totals.spans[boundary_name(m, q)][1] for m, q in BOUNDARIES if m == module)
        metrics[f"{module}.self_frac"] = own / totals.covered_s
    metrics["trace.overhead_frac"] = totals.overhead_frac()
    metrics["cli.interp_start_s"] = interp_s

    ladders = child_json(run_process([PY, str(BENCH / "ladders.py"), "--seed", str(seed)], env,
                                     STREAM_TIMEOUT_S), "ladders")
    metrics.update(ladders["metrics"])
    totals.attempted += ladders["attempted"]
    totals.failed += ladders["failed"]
    return metrics, totals


def per_layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".exp"):
        return "slope"
    return name.rsplit("_", 1)[1]


# --- environment record ---


def environment(root, interp_s, overhead):
    sha = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "onsager").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cli.interp_start_s": interp_s,
        "trace.overhead_frac": overhead,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "onsager" / "__init__.py").is_file():
        print(f"error: {root} is not an onsager checkout (no src/onsager)", file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        interp_s = check_checkout(root, env)
        if args.trace:
            metrics, totals = per_layer_metrics(args.workload, args.seed, env, interp_s)
            attempted, failed = totals.attempted, totals.failed
            overhead = metrics["trace.overhead_frac"]
            units = {name: per_layer_unit(name) for name in metrics}
            notes = [f"traced {totals.attempted} checks, {totals.failed} failed"]
        else:
            if args.workload == "ideal-stream":
                run = measure_stream(args.seed, args.seconds, env)
            else:
                run = measure_cli(args.workload, args.seed, args.seconds, env)
            metrics, notes = e2e_metrics(args.workload, run)
            units = E2E_UNITS
            # One paired job records the tracing overhead in every result;
            # its checks count like any other job's.
            totals = trace_workload(args.workload, args.seed, env, full=False)
            overhead = totals.overhead_frac()
            attempted = len(run.samples) + totals.attempted
            failed = attempted - sum(s.ok for s in run.samples) - (totals.attempted - totals.failed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(root, interp_s, overhead)))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
