"""Seeded job lists for the two CLI workloads.

A pass is one fixed structure of jobs; the seed only changes the values
inside it (random elements and scalar multipliers), never the sizes.  So
every pass of every seed has the same shape, and percentiles over whole
passes land on the same kind of job whatever the pass count.

Every job carries its own expected output, computed by ``oracles``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles


@dataclass(frozen=True)
class Job:
    kind: str
    size: Optional[int]
    argv: tuple
    check: Callable[[str], bool]


def expect_text(text):
    return lambda out: out.strip() == text


def expect_lines(lines):
    return lambda out: out.strip().splitlines() == lines


def expect_all_ok(count):
    return lambda out: oracles.all_ok(out.strip().splitlines(), count)


def pass_rng(seed, index):
    return random.Random(f"{seed}/{index}")


def whole_passes(seconds, min_passes):
    """Pass indices: at least ``min_passes``, then more while the next pass,
    taking as long as the last one, would end within ``seconds``.

    Whole passes keep the job mix of a run exactly that of one pass.
    """
    start = time.perf_counter()
    index, last = 0, 0.0
    while index < min_passes or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        yield index
        last = time.perf_counter() - pass_start
        index += 1


def _scalar(rng, span=9):
    """A nonzero rational with small numerator and denominator."""
    num = rng.choice([n for n in range(-span, span + 1) if n])
    return Fraction(num, rng.randint(1, span))


def _text(c):
    """Scalar text that never starts with '-', so argparse reads it as a value."""
    return f"({c})" if c < 0 else str(c)


def _abstract_text(a_terms, g_terms):
    parts = [f"{_text(c)}*A_{m}" for m, c in a_terms.items()]
    parts += [f"{_text(c)}*G_{l}" for l, c in g_terms.items()]
    return " + ".join(parts)


def _random_abstract(rng, span, count):
    a_terms, g_terms = {}, {}
    for _ in range(count):
        if rng.random() < 0.6:
            a_terms[rng.randint(-span, span)] = _scalar(rng)
        else:
            g_terms[rng.randint(1, span)] = _scalar(rng)
    return a_terms, g_terms


# --- verify-window ---

ONSAGER_WINDOWS = (4, 6, 8)
LOOP_WINDOWS = (8, 16)
JACOBI_PER_PASS = 9


def verify_window_pass(seed, index):
    rng = pass_rng(seed, index)
    jobs = [
        Job("verify-onsager", w, ("verify", "onsager", "--window", str(w)),
            expect_lines(oracles.verify_onsager_lines(w)))
        for w in ONSAGER_WINDOWS
    ]
    jobs += [
        Job("verify-loop", w, ("verify", "loop", "--window", str(w)),
            expect_lines(oracles.verify_loop_lines(w)))
        for w in LOOP_WINDOWS
    ]
    jobs += [
        Job(f"verify-{suite}", None, ("verify", suite), expect_all_ok(count))
        for suite, count in sorted(oracles.VERIFY_OK_LINES.items())
    ]
    for _ in range(JACOBI_PER_PASS):
        elements = [_abstract_text(*_random_abstract(rng, 8, rng.randint(2, 4))) for _ in range(3)]
        jobs.append(Job("jacobi-abstract", None, ("jacobi", *elements), expect_text("0")))
    return jobs


# --- embed-degree ---

EMBED_DEGREES = (50, 100, 200)
INVERSE_DEGREES = (8, 16, 32)
THREE_POINT_POWERS = (8, 16, 32)
FAMILIES = ("A_m", "A_1-m", "G_m")


def _family_element(family, m, c):
    if family == "A_m":
        return {m: c}, {}
    if family == "A_1-m":
        return {1 - m: c}, {}
    return {}, {m: c}


def _convert_to_v(kind, size, a_terms, g_terms):
    v = oracles.phi_element(a_terms, g_terms)
    return Job(kind, size, ("convert", "--to", "v", _abstract_text(a_terms, g_terms)),
               expect_text(oracles.format_v(*v)))


def embed_degree_pass(seed, index):
    rng = pass_rng(seed, index)
    # Every pass converts each family at every rung, so the ladder's
    # medians mix the families the same way in every run.
    jobs = [
        _convert_to_v("convert-v", m, *_family_element(family, m, _scalar(rng)))
        for m in EMBED_DEGREES
        for family in FAMILIES
    ]
    for d in INVERSE_DEGREES:
        # Top degree d in every lane, plus one lower-degree A term.
        a_terms = {d + 1: _scalar(rng), -d: _scalar(rng), rng.randint(1 - d, d): _scalar(rng)}
        g_terms = {d + 1: _scalar(rng)}
        v_text = oracles.format_v(*oracles.phi_element(a_terms, g_terms))
        jobs.append(Job("convert-onsager", d, ("convert", "--to", "onsager", v_text),
                        expect_text(oracles.format_onsager(a_terms, g_terms))))
    for k in THREE_POINT_POWERS:
        c1, c2, c3 = (_text(_scalar(rng)) for _ in range(3))
        elements = (
            f"t'^{k}*x + {c1}*y",
            f"t''^{k}*y + {c2}*z",
            f"{c3}*x + t'^{k}*t''^{k}*z",
        )
        jobs.append(Job("jacobi-three-point", k, ("jacobi", *elements), expect_text("0")))
    return jobs


CLI_WORKLOADS = {
    "verify-window": verify_window_pass,
    "embed-degree": embed_degree_pass,
}
