"""Layer ladders: single-layer timings over a size series, no wrappers active.

Usage: python perfbench/ladders.py --seed N

Prints one JSON object: ``metrics`` (name -> value, in the unit its name
ends with) and the number of checked results and failures.  Each rung is
the median of several timed calls; rungs slower than 0.2 s are timed
once.  Every ladder with three or more rungs also gets an
``.exp`` metric: the log-log slope of time against size.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import operator
import random
import statistics
import sys
import time
from fractions import Fraction

import oracles

SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}


def slope(points):
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def time_call(fn, setup=None, reps=3, slow=0.2):
    """Median seconds of ``fn()``, with ``setup()`` untimed before each call.

    A rung whose first call is slow is timed once.
    """
    times, result = [], None
    for _ in range(reps):
        if setup:
            setup()
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        if times[0] > slow:
            break
    return statistics.median(times), result


def time_op(fn, args_list, batches=5):
    """Median seconds per call over batches of calls on prepared arguments."""
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        per_call.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(per_call)


class Ladders:
    def __init__(self, seed):
        self.rng = random.Random(f"ladders/{seed}")
        self.metrics = {}
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"ladder check failed: {what}", file=sys.stderr)

    def record(self, name, seconds, unit):
        self.metrics[f"{name}_{unit}"] = seconds * SCALE[unit]

    def ladder(self, name, unit, sizes, prefix, rung):
        """Time ``rung(size)`` for each size; record each rung and the slope."""
        points = []
        for size in sizes:
            seconds = rung(size)
            self.record(f"{name}.{prefix}{size}", seconds, unit)
            points.append((size, seconds))
        if len(points) >= 3:
            self.metrics[f"{name}.exp"] = slope(points)

    def ints(self, n, span=9):
        return [self.rng.randint(-span, span) or 1 for _ in range(n)]

    # --- scalars ---

    def scalars(self):
        from onsager.scalars import gaussian

        fracs = [(Fraction(self.rng.randint(1, 99), self.rng.randint(1, 99)),
                  Fraction(self.rng.randint(1, 99), self.rng.randint(1, 99))) for _ in range(2000)]
        ints = [(self.rng.randint(1, 10**6), self.rng.randint(1, 10**6)) for _ in range(2000)]
        gauss = [(gaussian(a, b), gaussian(b, a)) for a, b in fracs[:500]]
        self.record("scalars.fraction_mul", time_op(operator.mul, fracs), "ns")
        self.record("scalars.int_mul", time_op(operator.mul, ints), "ns")
        self.record("scalars.gaussian_mul", time_op(operator.mul, gauss), "ns")

    # --- one bracket in each realization ---

    def brackets(self):
        from onsager import core, loop, tetra
        from onsager.polynomials import LaurentPoly

        def abstract(k):
            return core.OnsagerElement(
                {self.rng.randint(-4 * k, 4 * k): Fraction(self.rng.randint(1, 9), self.rng.randint(1, 9))
                 for _ in range(k)},
                {self.rng.randint(1, 4 * k): self.rng.randint(1, 9) for _ in range(k // 2)},
            )

        def loop_element(k):
            terms = lambda: {e: Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 9))  # noqa: E731
                             for e in self.rng.sample(range(-2 * k, 2 * k + 1), k)}
            return loop.LoopElement(LaurentPoly(terms()), LaurentPoly(terms()), LaurentPoly(terms()))

        def bracket_rung(make, fn):
            return lambda k: time_op(fn, [(make(k), make(k)) for _ in range(4)], batches=3)

        self.ladder("core.bracket", "us", (4, 16, 64), "k", bracket_rung(abstract, core.bracket))
        self.ladder("loop.loop_bracket", "us", (4, 16), "k", bracket_rung(loop_element, loop.loop_bracket))

        def v_element():
            return tetra.VElement(*(LaurentPoly(dict(enumerate(self.ints(4)))) for _ in range(3)))

        def tp_element():
            return tetra.phi(core.OnsagerElement({self.rng.randint(-3, 3): 1}, {self.rng.randint(1, 3): 1}))

        self.record("tetra.v_bracket", time_op(tetra.v_bracket, [(v_element(), v_element()) for _ in range(20)]),
                    "us")
        self.record("tetra.tp_bracket", time_op(tetra.tp_bracket, [(tp_element(), tp_element()) for _ in range(5)]),
                    "us")

    # --- polynomial kernel ---

    def polynomials(self):
        from onsager.polynomials import LaurentPoly, poly_divmod, poly_gcd

        def poly(coeffs):
            return LaurentPoly(dict(enumerate(coeffs)))

        def coeffs(p):
            return [p.coeff(e) for e in range(p.degree + 1)] if not p.is_zero else []

        def mul(d):
            a, b = self.ints(d + 1), self.ints(d + 1)
            seconds, product = time_call(lambda: poly(a) * poly(b))
            self.check(coeffs(product) == oracles.pmul(a, b), f"mul d{d}")
            return seconds

        def divmod_(d):
            a, b = self.ints(2 * d + 1), self.ints(d) + [1]
            seconds, (q, r) = time_call(lambda: poly_divmod(poly(a), poly(b)))
            self.check(oracles.padd(oracles.pmul(coeffs(q), b), coeffs(r)) == oracles.trim(a)
                       and len(coeffs(r)) <= d, f"divmod d{d}")
            return seconds

        def gcd(d):
            while True:
                a, b = self.ints(d) + [1], self.ints(2 * d) + [1]
                if oracles.coprime_mod_p(a, b):
                    break
            seconds, g = time_call(lambda: poly_gcd(poly(a), poly(b)))
            self.check(coeffs(g) == [1], f"gcd d{d}")
            return seconds

        self.ladder("polynomials.mul", "ms", (50, 100, 200, 400), "d", mul)
        self.ladder("polynomials.divmod", "ms", (100, 200, 400), "d", divmod_)
        self.ladder("polynomials.gcd", "ms", (10, 20, 40), "d", gcd)

    # --- exact linear algebra ---

    def linalg(self):
        from onsager.linalg import rref

        def rung(n):
            # Unit lower times unit upper triangular: determinant 1, full rank.
            low = [[1 if i == j else (self.rng.randint(-3, 3) if j < i else 0) for j in range(n)]
                   for i in range(n)]
            up = [[1 if i == j else (self.rng.randint(-3, 3) if j > i else 0) for j in range(n)]
                  for i in range(n)]
            m = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            seconds, (rows, pivots) = time_call(lambda: rref(m))
            self.check(pivots == list(range(n)), f"rref n{n}")
            return seconds

        self.ladder("linalg.rref", "ms", (8, 16, 32), "n", rung)

    # --- the embedding and its inverse, cold as in a fresh CLI process ---

    def embedding(self):
        from onsager import core, tetra
        from onsager.expressions import format_value

        def cold():
            for obj in vars(tetra).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()

        def phi_v(m):
            seconds, v = time_call(lambda: tetra.phi_v(core.A(m)), setup=cold, reps=1)
            self.check(format_value(v) == oracles.format_v([], *oracles.phi_a(m)), f"phi_v m{m}")
            return seconds

        def phi_inverse(d):
            a_terms = {d + 1: 3, -d: Fraction(-1, 2), self.rng.randint(1 - d, d): 5}
            g_terms = {d + 1: Fraction(2, 3)}
            coords = oracles.phi_element(a_terms, g_terms)
            v = tetra.VElement(*(_laurent(c) for c in coords))
            seconds, x = time_call(lambda: tetra.phi_inverse(v), setup=cold)
            self.check(format_value(x) == oracles.format_onsager(a_terms, g_terms), f"phi_inverse d{d}")
            return seconds

        self.ladder("tetra.phi_v", "ms", (100, 200, 400), "m", phi_v)
        self.ladder("tetra.phi_inverse", "ms", (10, 20, 40), "d", phi_inverse)

    # --- ideal toolkits ---

    def ideals(self):
        from onsager.ideals import ReciprocalIdeal, crt_lift
        from onsager.loop import LoopElement
        from onsager.v_ideals import classify_ideals

        q = [self.rng.randint(-9, 9) for _ in range(8)] + [1]
        seconds, records = time_call(lambda: classify_ideals(_laurent(q)))
        self.check([(r.kind, r.descriptor, r.closed, tuple(r.z_delta)) for r in records]
                   == list(oracles.CLASSIFY_TABLE), "classify_ideals")
        self.record("v_ideals.classify_ideals", seconds, "ms")

        ks = self.rng.sample(range(3, 200), 6)
        moduli = [oracles.planted(2, 0, ks[:2]), oracles.planted(0, 2, ks[2:4]), oracles.planted(0, 0, ks[4:])]
        targets = []
        for _ in moduli:
            p = {e: self.rng.randint(-9, 9) for e in range(-3, 4)}
            r = {l: self.rng.randint(1, 9) for l in (1, 2, 3)}
            r.update({-l: -c for l, c in list(r.items())})
            targets.append((p, r))
        pairs = [(LoopElement(_laurent(p), _laurent(oracles.laurent_inverse(p)), _laurent(r)),
                  ReciprocalIdeal(_laurent(m))) for (p, r), m in zip(targets, moduli)]
        seconds, lifted = time_call(lambda: crt_lift(pairs))
        p_out, r_out = dict(lifted.p.items()), dict(lifted.r.items())
        self.check(all(oracles.laurent_divisible(oracles.laurent_sub(p_out, p), m)
                       and oracles.laurent_divisible(oracles.laurent_sub(r_out, r), m)
                       for (p, r), m in zip(targets, moduli)), "crt_lift")
        self.record("ideals.crt_lift", seconds, "ms")

    # --- the verify windows of the baseline table, in process ---

    def verify_windows(self):
        from onsager import cli

        for w in (6, 10):
            out = io.StringIO()

            def run():
                with contextlib.redirect_stdout(out):
                    return cli.main(["verify", "onsager", "--window", str(w)])

            seconds, code = time_call(run, reps=1)
            self.check(code == 0 and out.getvalue().strip().splitlines() == oracles.verify_onsager_lines(w),
                       f"verify onsager w{w}")
            self.record(f"cli.verify_onsager.w{w}", seconds, "s")

    def run(self):
        self.scalars()
        self.brackets()
        self.polynomials()
        self.linalg()
        self.embedding()
        self.ideals()
        self.verify_windows()


def _laurent(coeffs):
    from onsager.polynomials import LaurentPoly

    if isinstance(coeffs, dict):
        return LaurentPoly(coeffs)
    return LaurentPoly({e: c for e, c in enumerate(coeffs) if c})


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    ladders = Ladders(args.seed)
    ladders.run()
    json.dump({"metrics": ladders.metrics, "attempted": ladders.attempted, "failed": ladders.failed},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
