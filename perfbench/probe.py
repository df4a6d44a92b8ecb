"""A short traced call through every span boundary.

Usage: python perfbench/probe.py

Every traced run ends with this probe, so each boundary reports a measured
self time on every workload, including the layers the workload itself
bypasses.  Prints the span statistics as JSON and whether every result
matched its oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import oracles
from spans import Tracer

# (argv, expected stdout) for the boundaries the CLI reaches.
CLI_CALLS = (
    (["bracket", "[A_1, A_0]"], "2*G_1"),
    (["bracket", "[b_1, b_0]"], "(t - t^-1)*h"),
    (["jacobi", "x", "y", "t''*z"], "0"),
    (["convert", "--to", "loop", "A_3"], "t^3*e + t^-3*f"),
    (["convert", "--to", "onsager", "b_2"], "A_2"),
    (["convert", "--to", "onsager", oracles.format_v(oracles.phi_g(3), *oracles.phi_a(4))], "A_4 + G_3"),
    (["ideal", "closed", "--p", "(t-1)^2*(t+1)^2*(t^2+3*t+1)"], "closed: true"),
    (["ideal", "contains", "--p", "t-1", "[b_1, b_0]"], "member: true"),
    (["series-b"], "derived series dimensions: [6, 4, 0]\nlower central series dimensions: [6, 4, 4]\n"
                   "solvable: true\nnilpotent: false"),
)


def library_calls():
    """Calls the CLI cannot reach; each returns whether it matched."""
    from onsager.ideals import ReciprocalIdeal, crt_lift
    from onsager.loop import basis_b
    from onsager.polynomials import LaurentPoly
    from onsager.v_ideals import classify_ideals

    def poly(coeffs):
        return LaurentPoly(dict(enumerate(coeffs)))

    q3, q4 = oracles.quadratic(3), oracles.quadratic(4)
    i3, i4 = ReciprocalIdeal(poly(q3)), ReciprocalIdeal(poly(q4))
    meet = i3.intersect(i4)
    lifted = crt_lift([(basis_b(0), i3), (basis_b(1), i4)])
    records = classify_ideals(poly([1, 1]))
    return [
        [meet.poly.coeff(e) for e in range(5)] == oracles.pmul(q3, q4),
        i3.contains(basis_b(0)) is False,
        oracles.laurent_divisible(oracles.laurent_sub(dict(lifted.p.items()), {0: 1}), q3),
        oracles.laurent_divisible(oracles.laurent_sub(dict(lifted.p.items()), {1: 1}), q4),
        [(r.kind, r.descriptor, r.closed, tuple(r.z_delta)) for r in records] == list(oracles.CLASSIFY_TABLE),
    ]


def main():
    tracer = Tracer()
    tracer.install()
    from onsager import cli

    checks = []
    for argv, expected in CLI_CALLS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        checks.append(code == 0 and out.getvalue().strip() == expected)
    checks += library_calls()
    json.dump({"attempted": len(checks), "failed": checks.count(False), "spans": tracer.snapshot()},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
