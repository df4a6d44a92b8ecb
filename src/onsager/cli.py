"""Command-line front end.

Subcommands: bracket, jacobi, convert, verify, ideal (contains / closed /
classify), series-b.  Set ONSAGER_OUTPUT=records for line-delimited
machine-readable output instead of prose.

Exit codes: 0 success, 1 check or domain failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import core, ideals, loop, tetra, v_ideals
from .core import check_dolan_grady, jacobi_defect, reconstruct_basis
from .expressions import (
    ExpressionError,
    format_value,
    parse_element,
    parse_polynomial,
    parse_value,
    realization_of,
)
from .polynomials import T, T_MINUS_ONE, TP_T_DPRIME, TP_T_PRIME, format_laurent, monic, reciprocal_sign


def _records_mode() -> bool:
    return os.environ.get("ONSAGER_OUTPUT", "text") == "records"


def _emit(fields: dict) -> None:
    if _records_mode():
        print(" ".join(f"{k}={v}" for k, v in fields.items() if k != "text"))
    else:
        print(fields.get("text", " ".join(f"{k}: {v}" for k, v in fields.items())))


def _cmd_bracket(args) -> int:
    value = parse_value(args.expr)
    text = format_value(value)
    _emit({"result": text, "text": text})
    return 0


def _cmd_jacobi(args) -> int:
    elements = [parse_element(e) for e in (args.e1, args.e2, args.e3)]
    kinds = {realization_of(e) for e in elements}
    if len(kinds) > 1:
        raise ExpressionError(f"mixed realizations: {sorted(kinds)}")
    defect = jacobi_defect(*elements)
    text = format_value(defect)
    _emit({"defect": text, "zero": str(defect.is_zero).lower(), "text": text})
    return 0


def _convert(value, target: str):
    source = realization_of(value)
    if source is None:
        raise ExpressionError("expression did not evaluate to an algebra element")
    if target == "onsager":
        if source == "onsager":
            return value
        if source == "loop":
            return loop.from_loop(value)
        return tetra.phi_inverse(tetra.to_v(value))
    if target == "loop":
        if source == "loop":
            return value
        if source == "onsager":
            return loop.to_loop(value)
        return loop.to_loop(tetra.phi_inverse(tetra.to_v(value)))
    if target == "v":
        if source == "tetra":
            return tetra.to_v(value)
        if source == "onsager":
            return tetra.phi_v(value)
        return tetra.phi_v(loop.from_loop(value))
    raise ExpressionError(f"unknown conversion target {target!r}")


def _cmd_convert(args) -> int:
    value = parse_element(args.expr, args.realization)
    result = _convert(value, args.to)
    text = format_value(result)
    _emit({"result": text, "text": text})
    return 0


def _check_line(name: str, detail: str, ok: bool, defect: str = "") -> None:
    if _records_mode():
        fields = {"check": name, "detail": detail.replace(" ", "_"), "ok": str(ok).lower()}
        if defect:
            fields["defect"] = defect.replace(" ", "_")
        print(" ".join(f"{k}={v}" for k, v in fields.items()))
    elif ok:
        print(f"ok {name} {detail}")
    else:
        print(f"FAIL {name} {detail}" + (f" defect={defect}" if defect else ""))


def _abstract_basis(window: int) -> list:
    return [core.A(m) for m in range(-window, window + 1)] + [core.G(l) for l in range(1, window + 1)]


def _verify_onsager(window: int) -> bool:
    basis = _abstract_basis(window)
    failures = 0
    count = 0
    for x in basis:
        for y in basis:
            for z in basis:
                count += 1
                if not jacobi_defect(x, y, z).is_zero:
                    failures += 1
    _check_line("jacobi", f"window {window} ({count} triples)", failures == 0,
                f"{failures} nonzero defects" if failures else "")
    return failures == 0


def _verify_loop(window: int) -> bool:
    ok_all = True
    bad = 0
    for l in range(0, window + 1):
        for m in range(-window, window + 1):
            if loop.loop_bracket(loop.basis_b(l), loop.basis_b(m)) != loop.basis_c(l - m):
                bad += 1
            expected = 2 * (loop.basis_b(m + l) - loop.basis_b(m - l))
            if loop.loop_bracket(loop.basis_c(l), loop.basis_b(m)) != expected:
                bad += 1
            if not loop.loop_bracket(loop.basis_c(l), loop.basis_c(m)).is_zero:
                bad += 1
    _check_line("loop-basis-relations", f"l in [0,{window}], m in [-{window},{window}]", bad == 0,
                f"{bad} failing identities" if bad else "")
    ok_all &= bad == 0

    basis = _abstract_basis(window)
    bad = 0
    for x in basis:
        for y in basis:
            lhs = loop.to_loop(core.bracket(x, y))
            rhs = loop.loop_bracket(loop.to_loop(x), loop.to_loop(y))
            if lhs != rhs:
                bad += 1
        if loop.from_loop(loop.to_loop(x)) != x:
            bad += 1
    _check_line("realization-homomorphism", f"basis pairs, window {window}", bad == 0,
                f"{bad} failures" if bad else "")
    ok_all &= bad == 0
    return ok_all


def _verify_tetra(window: int) -> bool:
    report = tetra.verify_tetra_relations()
    for record in report.records:
        _check_line(record.name, record.detail, record.ok, record.defect)
    ok_all = report.all_pass

    u0, u1, u2 = tetra.u_elements()
    checks = [
        ("[u_0,u_1] = -u_2*t", tetra.tp_bracket(u0, u1) == -(T * u2)),
        ("[u_1,u_2] = -u_0*t'", tetra.tp_bracket(u1, u2) == -(TP_T_PRIME * u0)),
        ("[u_2,u_0] = -u_1*t''", tetra.tp_bracket(u2, u0) == -(TP_T_DPRIME * u1)),
    ]
    v0, v1, v2 = tetra.v_elements()
    checks += [
        ("[v_0,v_1] = -v_2*(t-1)", tetra.tp_bracket(v0, v1) == -(T_MINUS_ONE * v2)),
        ("[v_1,v_2] = -v_0", tetra.tp_bracket(v1, v2) == -v0),
        ("[v_2,v_0] = v_1*t", tetra.tp_bracket(v2, v0) == T * v1),
    ]
    for detail, ok in checks:
        _check_line("generator-relations", detail, ok)
        ok_all &= ok

    witness = tetra.independence_witness(window)
    _check_line("independence-witness", f"leading monomials distinct, m <= {window}",
                witness.leading_monomials_distinct)
    ok_all &= witness.leading_monomials_distinct
    return ok_all


def _verify_dg(window: int) -> bool:
    ok_all = True
    pairs = [
        ("abstract", core.A(0), core.A(1)),
        ("loop", loop.basis_b(0), loop.basis_b(1)),
        ("v-module", tetra.phi_v(core.A(0)), tetra.phi_v(core.A(1))),
    ]
    for name, a, b in pairs:
        report = check_dolan_grady(a, b)
        _check_line("dolan-grady", name, report.both_hold)
        ok_all &= report.both_hold
    rebuilt = reconstruct_basis(window)
    bad = 0
    for name, element in rebuilt.items():
        letter, index = name.split("_")
        expected = core.A(int(index)) if letter == "A" else core.G(int(index))
        if element != expected:
            bad += 1
    _check_line("reconstruct-basis", f"n <= {window}", bad == 0,
                f"{bad} mismatches" if bad else "")
    ok_all &= bad == 0
    return ok_all


def _cmd_verify(args) -> int:
    window = args.window if args.window is not None else {"onsager": 6, "loop": 8, "tetra": 8, "dg": 6}[args.suite]
    runner = {
        "onsager": _verify_onsager,
        "loop": _verify_loop,
        "tetra": _verify_tetra,
        "dg": _verify_dg,
    }[args.suite]
    return 0 if runner(window) else 1


def _cmd_ideal_contains(args) -> int:
    poly = monic(parse_polynomial(args.p))
    element = _convert(parse_element(args.expr), "loop")
    if not loop.is_fixed(element):
        raise ExpressionError("membership is defined for fixed loop elements only")
    if reciprocal_sign(poly) is not None:
        report = ideals.ReciprocalIdeal(poly).membership_report(element)
    else:
        member = ideals.divides_element(poly, element)
        report = {"member": member, "witness": [] if member else ["some component not divisible"]}
    fields = {"member": str(report["member"]).lower()}
    if report["witness"]:
        fields["witness"] = ";".join(w.replace(" ", "_") for w in report["witness"])
    fields["text"] = f"member: {str(report['member']).lower()}" + (
        f" ({'; '.join(report['witness'])})" if report["witness"] else ""
    )
    _emit(fields)
    return 0


def _cmd_ideal_closed(args) -> int:
    poly = monic(parse_polynomial(args.p))
    ideal = ideals.ReciprocalIdeal(poly)
    closed = ideal.is_closed()
    _emit({"closed": str(closed).lower(), "text": f"closed: {str(closed).lower()}"})
    return 0


def _cmd_ideal_classify(args) -> int:
    poly = monic(parse_polynomial(args.q))
    records = v_ideals.classify_ideals(poly)
    for rec in records:
        delta = ",".join(rec.z_delta) if rec.z_delta else "-"
        if _records_mode():
            print(
                f"q={format_laurent(rec.q).replace(' ', '')} kind={rec.kind} "
                f"spec={rec.descriptor.replace(' ', '_')} closed={str(rec.closed).lower()} "
                f"z_delta={delta.replace(' ', '')}"
            )
        else:
            print(f"{rec.descriptor:20s} closed={str(rec.closed).lower():5s} z-delta: {delta}")
    return 0


def _cmd_series_b(args) -> int:
    b = v_ideals.quotient_b()
    derived = v_ideals.derived_series(b)
    lower = v_ideals.lower_central_series(b)
    derived_dims = [len(s) for s in derived]
    lower_dims = [len(s) for s in lower]
    if _records_mode():
        print("series=derived dims=" + ",".join(str(d) for d in derived_dims))
        print("series=lower_central dims=" + ",".join(str(d) for d in lower_dims))
    else:
        print(f"derived series dimensions: {derived_dims}")
        print(f"lower central series dimensions: {lower_dims}")
        print("solvable: " + str(len(derived[-1]) == 0).lower())
        stabilized = len(lower) >= 2 and len(lower[-1]) > 0
        print("nilpotent: " + str(not stabilized).lower())
    return 0


def _window(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"window must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onsager",
        description="Exact computations in four realizations of the Onsager algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="evaluate an expression (brackets allowed)")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("jacobi", help="Jacobi defect of three elements")
    p.add_argument("e1")
    p.add_argument("e2")
    p.add_argument("e3")
    p.set_defaults(func=_cmd_jacobi)

    p = sub.add_parser("convert", help="convert an element between realizations")
    p.add_argument("--to", required=True, choices=["onsager", "loop", "v"])
    p.add_argument("--realization", choices=["onsager", "loop", "tetra"],
                   help="source realization for scalar-only expressions")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("verify", help="run a relation-verification suite")
    p.add_argument("suite", choices=["onsager", "loop", "tetra", "dg"])
    p.add_argument("--window", type=_window, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ideal", help="divisibility-ideal queries")
    ideal_sub = p.add_subparsers(dest="ideal_command", required=True)

    pc = ideal_sub.add_parser("contains", help="membership of an element in I_P")
    pc.add_argument("--p", required=True, help="polynomial generator P(t)")
    pc.add_argument("expr")
    pc.set_defaults(func=_cmd_ideal_contains)

    pc = ideal_sub.add_parser("closed", help="decide closedness of I_P")
    pc.add_argument("--p", required=True, help="monic reciprocal polynomial P(t)")
    pc.set_defaults(func=_cmd_ideal_closed)

    pc = ideal_sub.add_parser("classify", help="enumerate and classify ideals for J = q(t)k[t]")
    pc.add_argument("--q", required=True, help="monic polynomial q(t)")
    pc.set_defaults(func=_cmd_ideal_classify)

    p = sub.add_parser("series-b", help="derived and lower central series of the 6-dim quotient")
    p.set_defaults(func=_cmd_series_b)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ExpressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError covers division by zero and failed exact divisions.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
