"""The ideal-stream workload: seeded library calls in one process.

Usage: python perfbench/stream.py --seed N --seconds S --min-passes M [--trace]

Runs whole passes of ideal-toolkit calls one after another, so module
caches stay warm across calls, and prints one JSON object with a record
per job: its kind, its ladder size, the seconds spent inside the library
call and whether the result matched the planted answer.  Input building
and checking happen outside the timed call.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

import oracles
from jobs import whole_passes

# Ladder rungs r: deg P = 3r with (L, K) = (r, r) or (r-1, r-1).
CLOSED_RUNGS = (6, 12, 24)
CONTAINS_PER_PASS = 9
JOBS_PER_PASS = len(CLOSED_RUNGS) + 3 + CONTAINS_PER_PASS
# Pool for the irreducible reciprocal factors t^2 - k t + 1.
K_POOL = tuple(k for k in range(-60, 61) if abs(k) >= 3)


def _poly(coeffs):
    from onsager.polynomials import LaurentPoly

    return LaurentPoly({e: c for e, c in enumerate(coeffs) if c})


def _laurent(terms):
    from onsager.polynomials import LaurentPoly

    return LaurentPoly(terms)


def _coeffs(poly):
    return [poly.coeff(e) for e in range(poly.degree + 1)]


def _as_dict(poly):
    return dict(poly.items())


def _loop(p, r):
    """The fixed loop element with e-part p and h-part r (dicts)."""
    from onsager.loop import LoopElement

    return LoopElement(_laurent(p), _laurent(oracles.laurent_inverse(p)), _laurent(r))


def _random_fixed(rng, span=3):
    p = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in range(-span, span + 1)}
    r = {}
    for l in range(1, span + 1):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        r[l], r[-l] = c, -c
    return ({e: c for e, c in p.items() if c}, {e: c for e, c in r.items() if c})


def _factors(rng, count):
    return rng.sample(K_POOL, count)


def closed_job(rng, r):
    from onsager.ideals import ReciprocalIdeal

    L = K = rng.choice((r, r - 1))
    ks = _factors(rng, (3 * r - L - K) // 2)
    P = _poly(oracles.planted(L, K, ks))

    def run():
        ideal = ReciprocalIdeal(P)
        return ideal, ideal.is_closed()

    def check(result):
        ideal, closed = result
        return (closed == oracles.closed_expected(L, K)
                and (ideal.mult_one, ideal.mult_minus_one) == (L, K))

    return "closed", 3 * r, run, check


def intersect_job(rng):
    from onsager.ideals import ReciprocalIdeal

    ks = _factors(rng, 9)
    b = oracles.planted(0, rng.randint(0, 2), ks[:3])
    c1 = oracles.planted(0, 0, ks[3:6])
    c2 = oracles.planted(2, 0, ks[6:])
    i1 = ReciprocalIdeal(_poly(oracles.pmul(b, c1)))
    i2 = ReciprocalIdeal(_poly(oracles.pmul(b, c2)))
    expected = oracles.pprod([b, c1, c2])
    return ("intersect", None, lambda: i1.intersect(i2),
            lambda result: _coeffs(result.poly) == expected)


def crt_job(rng):
    from onsager.ideals import ReciprocalIdeal

    count = rng.choice((2, 3))
    ks = _factors(rng, 2 * count)
    moduli = [oracles.planted(2 if i == 0 else 0, 0, ks[2 * i:2 * i + 2]) for i in range(count)]
    targets = [_random_fixed(rng) for _ in moduli]
    pairs = [(_loop(p, r), ReciprocalIdeal(_poly(m))) for (p, r), m in zip(targets, moduli)]

    def run():
        from onsager.ideals import crt_lift

        return crt_lift(pairs)

    def check(lifted):
        p, q, r = _as_dict(lifted.p), _as_dict(lifted.q), _as_dict(lifted.r)
        return oracles.is_fixed_loop(p, q, r) and all(
            oracles.laurent_divisible(oracles.laurent_sub(p, tp), m)
            and oracles.laurent_divisible(oracles.laurent_sub(r, tr), m)
            for (tp, tr), m in zip(targets, moduli)
        )

    return "crt-lift", None, run, check


def contains_job(rng, member):
    from onsager.ideals import ReciprocalIdeal

    P = oracles.planted(rng.randint(0, 3), rng.randint(0, 3), _factors(rng, 4))
    g = [rng.randint(-5, 5) for _ in range(4)] + [1]
    p = oracles.laurent_from(oracles.pmul(P, g), shift=-rng.randint(0, 4))
    # r = h P - h(1/t) P(1/t) is antisymmetric and, P being reciprocal,
    # divisible by P in k[t, 1/t].
    hp = oracles.laurent_from(oracles.pmul(P, [rng.randint(-5, 5) for _ in range(3)]))
    r = oracles.laurent_sub(hp, oracles.laurent_inverse(hp))
    if not member:
        if rng.random() < 0.5:
            p = oracles.laurent_sub(p, {0: -1})  # add b_0 to the e-part
        else:
            r = oracles.laurent_sub(r, {1: -1, -1: 1})  # add c_1 to the h-part
    ideal = ReciprocalIdeal(_poly(P))
    x = _loop(p, r)
    return "contains", None, lambda: ideal.contains(x), lambda result: result is member


def classify_job(rng):
    from onsager.v_ideals import classify_ideals

    degree = rng.randint(2, 32)
    q = [rng.randint(-9, 9) for _ in range(degree)] + [1]
    Q = _poly(q)

    def check(records):
        return [(rec.kind, rec.descriptor, rec.closed, tuple(rec.z_delta)) for rec in records] == list(
            oracles.CLASSIFY_TABLE
        ) and all(_coeffs(rec.q) == q for rec in records)

    return "classify", None, lambda: classify_ideals(Q), check


def stream_pass(seed, index):
    rng = random.Random(f"{seed}/{index}")
    jobs = [closed_job(rng, r) for r in CLOSED_RUNGS]
    jobs += [intersect_job(rng), crt_job(rng), classify_job(rng)]
    jobs += [contains_job(rng, i % 2 == 0) for i in range(CONTAINS_PER_PASS)]
    return jobs


def run_stream(seed, seconds, min_passes):
    records, passes = [], 0
    for index in whole_passes(seconds, min_passes):
        for kind, size, run, check in stream_pass(seed, index):
            t0 = time.perf_counter()
            try:
                result = run()
                elapsed = time.perf_counter() - t0
                ok = bool(check(result))
            except Exception as exc:  # a failed job is recorded, never dropped
                elapsed = time.perf_counter() - t0
                ok = False
                print(f"job {kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            records.append([kind, size, elapsed, ok])
        passes = index + 1
    return records, passes


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import onsager  # noqa: F401  (import before timing)

    records, passes = run_stream(args.seed, args.seconds, args.min_passes)
    out = {"records": records, "passes": passes}
    if tracer is not None:
        out["spans"] = tracer.snapshot()
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
