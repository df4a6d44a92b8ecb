"""Expression language shared by the CLI and the golden tests.

Grammar (whitespace-insensitive):

    expr    := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' signed-integer)?
    primary := integer | atom | '(' expr ')' | '[' expr ',' expr ']'

Atoms: A_<int>, G_<int> (abstract basis); b_<int>, c_<int>, e, f, h (loop
realization); X_<ij>, u_<i>, v_<i>, x, y, z (three-point realization);
t, t', t'' (coefficient ring, with t' = 1 - 1/t and t'' = 1/(1-t)); i (the
imaginary unit).  Mixing atoms of different realizations is a typed error.

Values evaluate to scalars, Laurent polynomials, three-point fractions, or
algebra elements; division is exact and errors when the quotient leaves
the ring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import core, loop, tetra
from .polynomials import (
    LaurentPoly,
    ONE_MINUS_T,
    T,
    TP_T_DPRIME,
    ThreePointFraction,
    exact_div,
    multiplicity_at,
    poly_divmod,
)
from .scalars import GaussianRational, I, is_scalar


class ExpressionError(ValueError):
    """Any parse- or evaluation-time failure, carrying a source position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ParseError(ExpressionError):
    pass


class RealizationError(ExpressionError):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|(?P<name>[A-Za-z](?:_-?\d+)?'{0,2})"
    r"|(?P<op>[-+*/^()\[\],]))"
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("num"):
            tokens.append(Token("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            tokens.append(Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


# AST nodes are tuples: ("num", int), ("atom", name, pos), ("neg", node),
# ("add"/"sub"/"mul"/"div", left, right), ("pow", node, int), ("bracket", l, r).


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.source = source
        self.index = 0

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.source))
        self.index += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text!r}", tok.pos)
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.product()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self.take()
                rhs = self.product()
                node = ("add" if tok.text == "+" else "sub", node, rhs)
            else:
                return node

    def product(self):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text in "*/":
                self.take()
                rhs = self.unary()
                node = ("mul" if tok.text == "*" else "div", node, rhs)
            else:
                return node

    def unary(self):
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.primary()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.take()
            node = ("pow", node, self._signed_int())
        return node

    def _signed_int(self) -> int:
        tok = self.take()
        negative = False
        if tok.kind == "op" and tok.text == "-":
            negative = True
            tok = self.take()
        if tok.kind != "num":
            raise ParseError("exponent must be an integer", tok.pos)
        value = int(tok.text)
        return -value if negative else value

    def primary(self):
        tok = self.take()
        if tok.kind == "num":
            return ("num", int(tok.text))
        if tok.kind == "name":
            return ("atom", tok.text, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "op" and tok.text == "[":
            left = self.expr()
            self.expect_op(",")
            right = self.expr()
            self.expect_op("]")
            return ("bracket", left, right)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text: str):
    """Parse to an AST; raises ParseError with a position on bad input."""
    return _Parser(tokenize(text), text).parse()


_ATOM_REALIZATION = {"A": "onsager", "G": "onsager", "b": "loop", "c": "loop",
                     "e": "loop", "f": "loop", "h": "loop",
                     "X": "tetra", "u": "tetra", "v": "tetra",
                     "x": "tetra", "y": "tetra", "z": "tetra"}


def _atom_value(name: str, pos: int):
    letter = name[0]
    primes = len(name) - len(name.rstrip("'"))
    stem = name.rstrip("'")
    index = None
    if "_" in stem:
        letter, index_text = stem.split("_", 1)
        index = index_text
    if primes:
        if letter != "t" or index is not None:
            raise ParseError(f"primes are only meaningful on t: {name!r}", pos)
        if primes == 1:
            return LaurentPoly({0: 1, -1: -1})
        return TP_T_DPRIME
    if index is None:
        if letter == "t":
            return T
        if letter == "i":
            return I
        if letter == "e":
            return loop.E
        if letter == "f":
            return loop.F
        if letter == "h":
            return loop.H
        if letter == "x":
            return tetra.X_ATOM
        if letter == "y":
            return tetra.Y_ATOM
        if letter == "z":
            return tetra.Z_ATOM
        raise ParseError(f"unknown atom {name!r}", pos)
    if letter == "A":
        return core.A(int(index))
    if letter == "G":
        return core.G(int(index))
    if letter == "b":
        return loop.basis_b(int(index))
    if letter == "c":
        return loop.basis_c(int(index))
    if letter == "X":
        if len(index) != 2 or not index.isdigit():
            raise ParseError(f"X-atoms need two digit indices, e.g. X_01: {name!r}", pos)
        try:
            return tetra.psi_generator(int(index[0]), int(index[1]))
        except ValueError as exc:
            raise ParseError(str(exc), pos) from exc
    if letter in ("u", "v"):
        idx = int(index)
        if not 0 <= idx <= 2:
            raise ParseError(f"{letter}-atom index must be 0, 1 or 2: {name!r}", pos)
        triple = tetra.u_elements() if letter == "u" else tetra.v_elements()
        return triple[idx]
    raise ParseError(f"unknown atom {name!r}", pos)


def realization_of(value) -> str | None:
    if isinstance(value, core.OnsagerElement):
        return "onsager"
    if isinstance(value, loop.LoopElement):
        return "loop"
    if isinstance(value, tetra.ThreePointElement):
        return "tetra"
    return None


def _check_realizations(ast, found: set):
    stack = [ast]
    while stack:
        node = stack.pop()
        if node[0] == "atom":
            # t, t', t'' and i are coefficient atoms and fix no realization
            letter = node[1].rstrip("'").split("_")[0]
            r = _ATOM_REALIZATION.get(letter) if letter not in ("t", "i") else None
            if r is not None:
                found.add(r)
        else:
            stack += [child for child in node[1:] if isinstance(child, tuple)]


def evaluate(ast):
    """Evaluate an AST to a scalar, polynomial, fraction, or algebra element."""
    found: set = set()
    _check_realizations(ast, found)
    if len(found) > 1:
        raise RealizationError(f"mixed realizations in one expression: {sorted(found)}")
    return _eval(ast)


def _eval(ast):
    kind = ast[0]
    if kind == "num":
        return Fraction(ast[1])
    if kind == "atom":
        return _atom_value(ast[1], ast[2])
    if kind == "neg":
        return -_eval(ast[1])
    if kind == "pow":
        return _power(_eval(ast[1]), ast[2])
    if kind == "bracket":
        left, right = _eval(ast[1]), _eval(ast[2])
        if realization_of(left) is None or type(left) is not type(right):
            raise ExpressionError("bracket requires two elements of one realization")
        return left.bracket(right)
    if kind in ("add", "sub"):
        # A sum parses to a left-deep chain: fold it in a loop, not by recursion.
        chain = []
        while ast[0] in ("add", "sub"):
            chain.append(ast)
            ast = ast[1]
        value = _eval(ast)
        for op, _, right in reversed(chain):
            value = _add(value, _eval(right) if op == "add" else -_eval(right))
        return value
    left, right = _eval(ast[1]), _eval(ast[2])
    if kind == "mul":
        return _multiply(left, right)
    if kind == "div":
        return _divide(left, right)
    raise AssertionError(f"unknown node {kind}")


def _is_coeff(v) -> bool:
    return is_scalar(v) or isinstance(v, (LaurentPoly, ThreePointFraction))


def _add(a, b):
    ea, eb = realization_of(a), realization_of(b)
    if ea or eb:
        if type(a) is not type(b):
            raise ExpressionError("cannot add an algebra element and a coefficient")
        return a + b
    return _demote(a + b)


def _multiply(a, b):
    ea, eb = realization_of(a), realization_of(b)
    if ea and eb:
        raise ExpressionError("algebra elements do not multiply; use the bracket [ , ]")
    if ea or eb:
        coeff, element = (b, a) if ea else (a, b)
        if not _is_coeff(coeff):
            raise ExpressionError("element coefficients must be scalars or polynomials")
        if isinstance(element, core.OnsagerElement) and not is_scalar(coeff):
            raise ExpressionError("abstract-basis coefficients must be scalars")
        if isinstance(element, loop.LoopElement) and isinstance(coeff, ThreePointFraction):
            coeff = coeff.to_laurent()
        return coeff * element
    return _demote(a * b)


def _divide(a, b):
    if realization_of(b) is not None:
        raise ExpressionError("cannot divide by an algebra element")
    if realization_of(a) is not None:
        if not is_scalar(b):
            raise ExpressionError("elements can only be divided by scalars")
        if b == 0:
            raise ExpressionError("division by zero")
        return (Fraction(1) / b) * a
    if is_scalar(a) and is_scalar(b):
        if b == 0:
            raise ExpressionError("division by zero")
        return a / b
    ta = a if isinstance(a, ThreePointFraction) else ThreePointFraction(a)
    tb = b if isinstance(b, ThreePointFraction) else ThreePointFraction(b)
    if tb.is_zero:
        raise ExpressionError("division by zero")
    num = tb.num
    shift = num.valuation
    unit_core = num.shift(-shift)
    ones = multiplicity_at(unit_core, 1)
    for _ in range(ones):
        unit_core = exact_div(unit_core, ONE_MINUS_T)
    # tb = unit_core * t^shift * (1-t)^ones / (t^tb.a (1-t)^tb.b)
    num_extra_t = max(0, tb.a - shift)
    num_extra_one = max(0, tb.b - ones)
    den_extra_t = max(0, shift - tb.a)
    den_extra_one = max(0, ones - tb.b)
    numerator = ta.num * LaurentPoly.term(1, num_extra_t) * ONE_MINUS_T ** num_extra_one
    quotient, rem = poly_divmod(numerator, unit_core)
    if not rem.is_zero:
        raise ExpressionError("division does not stay in the ring")
    return _demote(ThreePointFraction(quotient, ta.a + den_extra_t, ta.b + den_extra_one))


def _power(base, exponent: int):
    if realization_of(base) is not None:
        raise ExpressionError("algebra elements cannot be raised to powers")
    if is_scalar(base):
        if exponent < 0 and base == 0:
            raise ExpressionError("division by zero")
        return base ** exponent
    if isinstance(base, LaurentPoly):
        if exponent >= 0 or len(dict(base.items())) == 1:
            return _demote(base ** exponent)
        base = ThreePointFraction(base)
    if exponent >= 0:
        out = ThreePointFraction(LaurentPoly.one())
        for _ in range(exponent):
            out = out * base
        return _demote(out)
    positive = _power(base, -exponent)
    return _divide(Fraction(1), positive)


def _demote(value):
    """Normalize coefficient values to the smallest ring that holds them."""
    if isinstance(value, ThreePointFraction):
        if value.b == 0:
            value = value.to_laurent()
        else:
            return value
    if isinstance(value, LaurentPoly):
        items = dict(value.items())
        if not items:
            return Fraction(0)
        if set(items) == {0}:
            return items[0]
        return value
    return value


def parse_value(text: str):
    return evaluate(parse(text))


def parse_element(text: str, realization: str | None = None):
    """Evaluate to an algebra element, optionally coercing scalar zero."""
    value = parse_value(text)
    actual = realization_of(value)
    if actual is None:
        if value == 0 and realization is not None:
            return _zero_element(realization)
        raise ExpressionError(
            "expression has no algebra atoms; pass a realization to interpret it"
            if realization is None
            else "only the zero scalar converts to an element"
        )
    if realization is not None and actual != realization:
        raise RealizationError(f"expected a {realization} expression, found {actual}")
    return value


def _zero_element(realization: str):
    if realization == "onsager":
        return core.ZERO
    if realization == "loop":
        return loop.ZERO
    if realization == "tetra":
        return tetra.TP_ZERO
    raise ExpressionError(f"unknown realization {realization!r}")


def parse_polynomial(text: str) -> LaurentPoly:
    """Evaluate to a plain polynomial in k[t] (used by the ideal commands)."""
    value = parse_value(text)
    if is_scalar(value):
        value = LaurentPoly.term(value)
    if not isinstance(value, LaurentPoly):
        raise ExpressionError("expected a polynomial expression")
    if any(isinstance(c, GaussianRational) for _, c in value.items()):
        raise ExpressionError("polynomial coefficients must be rational")
    if not value.is_polynomial:
        raise ExpressionError("negative exponents are not allowed in this polynomial")
    return value


def format_value(value) -> str:
    """Canonical text for any evaluator result."""
    if is_scalar(value):
        from .scalars import format_scalar

        return format_scalar(value)
    return str(value)
