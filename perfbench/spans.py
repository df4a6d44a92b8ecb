"""Span wrappers around the public boundaries of each ``onsager`` module.

``install()`` replaces every boundary function with a wrapper that counts
calls and accumulates self time: the span's wall time minus the time its
child spans cover.  A function is replaced wherever a module bound it, by
``from ... import`` or as a class attribute alias such as ``__rmul__ =
__mul__``, so calls through any of those names are counted.

Spans are aggregated per boundary in memory, not recorded one by one: the
hot boundaries are called millions of times in a single job.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, qualified name) for each boundary, grouped by layer.  The
# scalar layer's boundary is ``as_scalar``: ``Fraction`` arithmetic itself
# runs inline in its callers and is part of their self time.
BOUNDARIES = (
    ("cli", "main"),
    ("expressions", "parse_value"),
    ("expressions", "parse_element"),
    ("expressions", "parse_polynomial"),
    ("expressions", "format_value"),
    ("core", "bracket"),
    ("loop", "loop_bracket"),
    ("loop", "to_loop"),
    ("loop", "from_loop"),
    ("tetra", "v_bracket"),
    ("tetra", "tp_bracket"),
    ("tetra", "to_v"),
    ("tetra", "phi_v"),
    ("tetra", "phi_inverse"),
    ("polynomials", "LaurentPoly.__mul__"),
    ("polynomials", "poly_divmod"),
    ("polynomials", "poly_gcd"),
    ("polynomials", "poly_xgcd"),
    ("polynomials", "crt_solve"),
    ("polynomials", "multiplicity_at"),
    ("polynomials", "ThreePointFraction.__init__"),
    ("linalg", "rref"),
    ("ideals", "ReciprocalIdeal.__init__"),
    ("ideals", "ReciprocalIdeal.intersect"),
    ("ideals", "ReciprocalIdeal.contains"),
    ("ideals", "crt_lift"),
    ("v_ideals", "classify_ideals"),
    ("v_ideals", "residual_of"),
    ("scalars", "as_scalar"),
)

MODULES = (
    "scalars", "polynomials", "linalg", "core", "loop",
    "tetra", "ideals", "v_ideals", "expressions", "cli",
)


def boundary_name(module, qualname):
    return f"{module}.{qualname}"


class Tracer:
    """Per-boundary call counts and self times for one process."""

    def __init__(self):
        self.stats = {boundary_name(m, q): [0, 0.0] for m, q in BOUNDARIES}
        self._children = [0.0]

    def wrap(self, name, fn):
        stats = self.stats[name]
        children = self._children
        clock = time.perf_counter

        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - inner

        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        return span

    def install(self):
        """Patch every boundary in every loaded ``onsager`` module."""
        for module, _ in BOUNDARIES:
            importlib.import_module(f"onsager.{module}")
        namespaces = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "onsager" or name.startswith("onsager."))
        ]
        for module, qualname in BOUNDARIES:
            owner = importlib.import_module(f"onsager.{module}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(boundary_name(module, qualname), original)
            if path:
                targets = [owner]
            else:
                targets = namespaces
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)

    def snapshot(self):
        return {name: [calls, self_s] for name, (calls, self_s) in self.stats.items()}
