"""Ideal-file parsing, point parsing and deterministic rendering.

Ideal file grammar (one construct per line)::

    file   := line*
    line   := comment | vars-line | poly-line | blank
    comment:= '#' ...
    vars   := 'vars' ident (ident)*
    poly   := 'poly' expr
    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | ident | '(' expr ')'
    rational := nat ('/' nat)?
    ident  := letter (letter|digit|'_')*

Exactly one vars-line, before any poly-line.  Multiplication is always
explicit: ``xy`` is a single identifier, never a product.  Coefficients
are exact rationals; floating literals are rejected.  Parentheses nest
at most 100 deep, and a number may not pass the interpreter's
integer-string digit limit.  Errors name a line and a 1-based column in
the raw line.

Each poly-line is computed with ints where the literals are integers,
and becomes one Polynomial at the end.  A product of numbers and
variable powers is formed as one term; every other value is a plain
term dict, computed through Polynomial's own term arithmetic.  Caps
keep any line from hanging: an exponent above 1,000,000 (an error at
the exponent), a value of total degree above 10,000 (at the '^' or '*'
that would form it), or more than 250,000 units of work on one line (at
the operator whose step would pass it; see _MAX_WORK).  All rendering
is deterministic so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .groebner import Basis
from .cone import ConeDescription
from .polyring import (
    MonomialOrder,
    Polynomial,
    VariableContext,
    _add_into,
    _mul_terms,
    _pow_products,
    _pow_terms,
    _raw,
    _sub_into,
)

if TYPE_CHECKING:  # imported where needed: gb, cone and member never need numeric
    from .numeric import VerificationReport


class ParseError(ValueError):
    """Syntax or semantic error in user input, with its line and column."""

    def __init__(self, message: str, line: int, column: int, source: str = "<input>"):
        self.line = line
        self.column = column
        super().__init__(f"{source}:{line}:{column}: {message}")


class IdealFile(NamedTuple):
    """A parsed ideal presentation: variables plus generator polynomials."""

    context: VariableContext
    polynomials: tuple[Polynomial, ...]
    source: str
    poly_lines: tuple[int, ...]


# Deepest parenthesis nesting on a poly-line.  The parser recurses once
# per level, so the cap keeps it far below the interpreter's limit.
_MAX_NESTING = 100
# Caps on what one poly-line may build, so that no short line can hang
# the parser: the largest '^' exponent, the largest total degree of any
# value, both checked before a power or product is expanded, and the most
# work the line may take, charged before each step runs.  Multiplying a
# term dict of s terms and b coefficient bits by one of t terms and c bits
# costs s*t pairs of terms, each one unit of work per 8 variables (rounded
# up), about a microsecond of interpreter time, plus b*c/2**21 units for
# the coefficient products, counted as schoolbook products of 2**21 bit
# pairs a unit.  A power is charged for each of its binary-powering
# products, a sum one unit per term added and a negation one per term.
# A product of plain factors, formed as one term, pays the same.
# A line over the work cap has run at most _MAX_WORK units, well under a
# second.
_MAX_EXPONENT = 1_000_000
_MAX_DEGREE = 10_000
_MAX_WORK = 250_000

# One token: a natural number, an identifier, an operator, or any other
# nonblank character, which starts no token.  A scan skips the blanks
# between tokens, one character at a time, since no token starts with one.
_TOKEN_RE = re.compile(r"\d+|[A-Za-z][A-Za-z0-9_]*|[-+*/^()]|\S")

_Token = tuple[str, str, int]  # (kind, value, column)


def _tokens(raw: str, start: int, lineno: int, source: str) -> list[_Token]:
    """The tokens of raw[start:], with 1-based columns in the raw line.

    The kind is 'nat', 'ident' or, for an operator, the operator itself.
    The first character that starts no token is an error at its column.
    A last ('end', '', column) token stands just past the line's last
    nonblank character.
    """
    out = []
    for m in _TOKEN_RE.finditer(raw, start):
        value = m[0]
        column = m.start() + 1
        if value.isdecimal():  # re's \d and str.isdecimal agree
            kind = "nat"
        elif value[0].isascii() and value[0].isalpha():
            kind = "ident"
        elif value in "-+*/^()":  # value is one character, as are all other tokens
            kind = value
        else:
            raise ParseError(f"unexpected character {value!r}", lineno, column, source)
        out.append((kind, value, column))
    out.append(("end", "", len(raw.rstrip()) + 1))  # rstrip strips what \S skips
    return out


def _bits(c: int | Fraction) -> int:
    """The bit lengths of c's numerator and denominator, summed."""
    if type(c) is int:
        return c.bit_length() + 1  # the denominator 1 has one bit
    return c.numerator.bit_length() + c.denominator.bit_length()


def _parse_poly(raw: str, start: int, context: VariableContext, lineno: int,
                source: str) -> Polynomial:
    """The polynomial of the poly-line raw, whose expression starts at
    raw[start], by recursive descent.

    A product of plain factors (a number, ``n/d``, a variable or a power
    of a variable) is formed as one term, from a coefficient and an
    exponent list.  Every other value is a term dict, computed with
    Polynomial's own term arithmetic: a parenthesised factor or a power
    of a number is read on that route, and so is the rest of the term it
    stands in.  An integer literal stays an int and only ``a/b`` is a
    Fraction, so the one Polynomial built at the end equals, term for
    term and in dict order, what Polynomial arithmetic on the same text
    gives.  No value is held twice, so each term is added into the sum,
    or subtracted from it, in place, and a leading minus negates in
    place.  Each product, power, sum and negation is charged before it
    runs (see _MAX_WORK), at the same token on both routes: cost prices
    every product, and a variable's power ``x^k`` pays at its '^' for
    the _pow_products(k) products of the dict route's binary powering.

    The tokens are the strings _TOKEN_RE reads, without columns.  An
    error looks its column up in _tokens, which raises first if a
    character on the line starts no token, as if the line had been
    tokenized before it was parsed.
    """
    toks = _TOKEN_RE.findall(raw, start)
    toks.append("")  # the end of the line
    pos = 0  # the index of the next token
    one = (0,) * context.n  # the exponent tuple of a constant
    index = {name: i for i, name in enumerate(context.names)}
    pair = -(-context.n // 8)  # the units of work of one pair of terms
    spent = 0  # the work charged on this line so far

    def fail(message: str, at: int):
        raise ParseError(message, lineno, _tokens(raw, start, lineno, source)[at][2], source)

    def number(at: int) -> int:
        try:
            return int(toks[at])
        except ValueError:  # beyond the interpreter's int-string digit limit
            fail(f"number longer than {sys.get_int_max_str_digits()} digits", at)

    def rational() -> int | Fraction:
        """The number that starts at the next token, a nat."""
        nonlocal pos
        c = number(pos)
        pos += 1
        if toks[pos] == "/":
            den = pos + 1
            pos += 2
            if not toks[den].isdecimal():
                fail("'/' requires a natural-number denominator", den)
            d = number(den)
            if d == 0:
                fail("zero denominator", den)
            c = Fraction(c, d)
        return c

    def exponent() -> int:
        """The natural number after a '^' already taken."""
        nonlocal pos
        at = pos
        pos += 1
        if not toks[at].isdecimal():
            fail("'^' requires a natural-number exponent", at)
        k = number(at)
        if k > _MAX_EXPONENT:
            fail(f"exponent above the cap of {_MAX_EXPONENT}", at)
        return k

    def check_degree(degree: int, at: int):
        if degree > _MAX_DEGREE:
            fail(f"degree {degree} above the cap of {_MAX_DEGREE}", at)

    def charge(work: int, at: int):
        nonlocal spent
        spent += work
        if spent > _MAX_WORK:
            fail(f"more than {_MAX_WORK} units of work on one line", at)

    def cost(terms_a: int, bits_a: int, terms_b: int, bits_b: int) -> int:
        """The units of work of multiplying a value of terms_a terms and
        bits_a coefficient bits by one of terms_b terms and bits_b bits."""
        return terms_a * terms_b * pair + (bits_a * bits_b >> 21)

    unit = cost(1, _bits(1), 1, _bits(1))  # x^a * x^b: one pair, coefficients 1

    def product(p: dict, q: dict, at: int) -> dict:
        charge(cost(len(p), sum(map(_bits, p.values())),
                    len(q), sum(map(_bits, q.values()))), at)
        return _mul_terms(p, q)

    def times(p: dict, q: dict, star: int) -> dict:
        check_degree(max(map(sum, p), default=0) + max(map(sum, q), default=0), star)
        return product(p, q, star)

    def expr(depth: int) -> dict:
        nonlocal pos
        minus = None
        if toks[pos] == "-":
            minus = pos
            pos += 1
        p = term(depth)
        if minus is not None:
            charge(len(p), minus)
            for m, c in p.items():
                p[m] = -c
        while toks[pos] in ("+", "-"):
            op = pos
            pos += 1
            rhs = term(depth)
            charge(len(rhs), op)
            (_add_into if toks[op] == "+" else _sub_into)(p, rhs)
        return p

    def term(depth: int) -> dict:
        """A product of factors.  While every factor is plain, the product
        is held as a coefficient c and an exponent list e, with c = 0 for
        the empty dict, of degree 0; the first other factor moves the rest
        of the term to the dict route."""
        nonlocal pos
        c, e, degree = 1, list(one), 0  # the product of the factors so far
        star = None  # the '*' before the factor being read
        while True:
            tok = toks[pos]
            i = index.get(tok)
            if i is not None:
                pos += 1
                q, k = 1, 1
                if toks[pos] == "^":
                    caret = pos
                    pos += 1
                    k = exponent()
                    if k > 1:  # x^0 is 1 and x^1 is x, with no product
                        check_degree(k, caret)
                        charge(unit * _pow_products(k), caret)
            elif tok.isdecimal():
                q, k = rational(), 0
                if toks[pos] == "^":
                    return finish(c, e, star, power({one: q} if q else {}), depth)
            else:
                return finish(c, e, star, factor(depth), depth)
            if star is not None:
                check_degree((degree if c else 0) + k, star)
                if c and q:
                    charge(cost(1, _bits(c), 1, _bits(q)), star)
            c *= q
            if k:
                e[i] += k
                degree += k
            if toks[pos] != "*":
                return {tuple(e): c} if c else {}
            star = pos
            pos += 1

    def finish(c: int | Fraction, e: list[int], star: int | None, q: dict,
               depth: int) -> dict:
        """The rest of a term on the dict route, from the product c*x^e of
        its plain factors before star and the factor q after it."""
        nonlocal pos
        p = q if star is None else times({tuple(e): c} if c else {}, q, star)
        while toks[pos] == "*":
            star = pos
            pos += 1
            p = times(p, factor(depth), star)
        return p

    def factor(depth: int) -> dict:
        return power(base(depth))

    def power(p: dict) -> dict:
        nonlocal pos
        if toks[pos] == "^":
            caret = pos
            pos += 1
            k = exponent()
            if k != 1:  # p^1 is p, term for term and in order
                check_degree(k * max(map(sum, p), default=0), caret)
                p = _pow_terms(p, k, {one: 1}, lambda a, b: product(a, b, caret))
        return p

    def base(depth: int) -> dict:
        nonlocal pos
        tok = toks[pos]
        if tok.isdecimal():
            c = rational()
            return {one: c} if c else {}
        at = pos
        pos += 1
        i = index.get(tok)
        if i is not None:
            return {one[:i] + (1,) + one[i + 1:]: 1}
        if tok == "(":
            if depth == _MAX_NESTING:
                fail(f"parentheses nested deeper than {_MAX_NESTING}", at)
            p = expr(depth + 1)
            if toks[pos] != ")":
                fail("expected ')'", pos)
            pos += 1
            return p
        if tok[:1].isalpha():  # an identifier; fail reports any other letter first
            fail(f"unknown identifier \"{tok}\"", at)
        fail(f"unexpected {tok!r}" if tok else "unexpected end of expression", at)

    p = expr(0)
    if toks[pos]:
        fail(f"unexpected {toks[pos]!r}", pos)
    return _raw(context, {m: Fraction(c) for m, c in p.items()})


def parse_ideal(text: str, source: str = "<input>") -> IdealFile:
    """Parse an ideal file into a context and generator list."""
    context: VariableContext | None = None
    polys: list[Polynomial] = []
    poly_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split(None, 1)[0]
        start = len(raw) - len(raw.lstrip())  # the keyword's 0-based column
        end = start + len(keyword)
        if keyword == "vars":
            if context is not None:
                raise ParseError("duplicate vars-line", lineno, 1, source)
            names = []
            for kind, value, col in _tokens(raw, end, lineno, source)[:-1]:
                if kind != "ident":
                    raise ParseError(f"expected variable name, got {value!r}",
                                     lineno, col, source)
                names.append(value)
            if not names:
                raise ParseError("vars-line needs at least one variable",
                                 lineno, end + 1, source)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable in vars-line", lineno, 1, source)
            context = VariableContext(tuple(names))
        elif keyword == "poly":
            if context is None:
                raise ParseError("poly-line before vars-line", lineno, 1, source)
            polys.append(_parse_poly(raw, end, context, lineno, source))
            poly_lines.append(lineno)
        else:
            raise ParseError(f"expected 'vars' or 'poly', got {keyword!r}",
                             lineno, start + 1, source)
    if context is None:
        raise ParseError("missing vars-line", 1, 1, source)
    if not any(not p.is_zero() for p in polys):
        raise ParseError("no nonzero polynomial", 1, 1, source)
    return IdealFile(context, tuple(polys), source, tuple(poly_lines))


_RAT = r"\d+(?:/\d+)?"
_POINT_ENTRY_RE = re.compile(
    rf"^\s*(?:(?P<re>[+-]?{_RAT})(?:(?P<im>[+-]{_RAT})i)?|(?P<imonly>[+-]?{_RAT})i)\s*$")


class ParsedPoint(NamedTuple):
    """A point with exact rational real/imaginary parts per coordinate."""

    entries: tuple[tuple[Fraction, Fraction], ...]

    @property
    def complexes(self) -> tuple[complex, ...]:
        """The coordinates as complex doubles; a ParseError names the first
        coordinate beyond double range."""
        out = []
        for k, (re, im) in enumerate(self.entries):
            try:
                out.append(complex(re, im))
            except OverflowError:
                raise ParseError(f"coordinate {k + 1} is beyond double precision",
                                 1, k + 1) from None
        return tuple(out)

    @property
    def rationals(self) -> tuple[Fraction, ...] | None:
        """Exact coordinates when no entry has an imaginary part."""
        if any(im != 0 for _, im in self.entries):
            return None
        return tuple(re for re, _ in self.entries)


def parse_point(text: str, context: VariableContext) -> ParsedPoint:
    """Parse a comma-separated point like ``0,0,1`` or ``1/2,-3`` or ``0,1+1i``."""
    parts = text.split(",")
    if len(parts) != context.n:
        raise ParseError(f"expected {context.n} coordinates, got {len(parts)}", 1, 1)
    entries = []
    for k, part in enumerate(parts):
        m = _POINT_ENTRY_RE.match(part)
        if not m:
            raise ParseError(f"malformed coordinate {part.strip()!r}", 1, k + 1)
        re_text, im_text = ("0", m["imonly"]) if m["imonly"] else (m["re"], m["im"] or "0")
        try:
            entries.append((Fraction(re_text), Fraction(im_text)))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in coordinate {part.strip()!r}",
                             1, k + 1) from None
        except ValueError:  # beyond the interpreter's int-string digit limit
            raise ParseError(f"number longer than {sys.get_int_max_str_digits()} digits "
                             f"in coordinate {k + 1}", 1, k + 1) from None
    return ParsedPoint(tuple(entries))


# -- rendering ----------------------------------------------------------


def _render_monomial(e: tuple[int, ...], names: Sequence[str]) -> str:
    parts = []
    for name, k in zip(names, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


# Integers of at most this many bits (below 640 digits, the least
# int-to-string limit the interpreter accepts) are converted by str at once.
_CHUNK_BITS = 2000


def _digits(n: int) -> str:
    """str(n) for n >= 0, also past the interpreter's int-to-string digit
    limit: a longer number is split into two decimal halves."""
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    k = int(n.bit_length() * 0.30103) // 2  # about half of n's digits
    high, low = divmod(n, 10 ** k)
    return _digits(high) + _digits(low).zfill(k)


def _rational(q: Fraction) -> str:
    """str(q) for q >= 0, at any length."""
    return _digits(q.numerator) + ("" if q.denominator == 1 else "/" + _digits(q.denominator))


def render_polynomial(f: Polynomial, order: MonomialOrder) -> str:
    """Terms in strictly descending order; stable across runs."""
    if f.is_zero():
        return "0"
    names = f.context.names
    pieces = []
    for i, m in enumerate(sorted(f.terms, key=order.key, reverse=True)):
        c = f.terms[m]
        mono = _render_monomial(m, names)
        mag = abs(c)
        if not mono:
            body = _rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_rational(mag)}*{mono}"
        if i == 0:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def format_complex(z: complex) -> str:
    """Compact text form of a complex number: '3', '0.5', '1+1i', '-2i'."""

    def fmt(x: float) -> str:
        return repr(int(x)) if x == int(x) else repr(x)

    if z.imag == 0:
        return fmt(z.real)
    if z.real == 0:
        return fmt(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return f"{fmt(z.real)}{sign}{fmt(abs(z.imag))}i"


def dumps(obj) -> str:
    """Deterministic compact JSON (insertion key order, repr floats)."""
    import json  # only --json output needs it
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _basis_payload(basis: Basis) -> dict:
    return {
        "vars": list(basis.context.names),
        "order": basis.order.kind,
        "groebner_basis": [render_polynomial(g, basis.order) for g in basis],
    }


def _report_payload(report: VerificationReport) -> dict:
    payload: dict = {"kind": report.kind}
    if report.direction is not None:
        payload["direction"] = [format_complex(z) for z in report.direction]
    if report.schedule is not None:
        payload["schedule"] = {
            "t0": report.schedule.t0,
            "factor": report.schedule.factor,
            "steps": report.schedule.steps,
        }
    if report.radius is not None:
        payload["radius"] = report.radius
    if report.trials is not None:
        payload["trials"] = report.trials
    payload["samples"] = [[t, value] for t, value in report.samples]
    payload["fitted_decay_exponent"] = report.fitted_decay_exponent
    payload["verdict"] = report.verdict
    payload["seed"] = report.seed
    payload["diagnostics"] = report.diagnostics
    return payload


def render_report_text(report: VerificationReport) -> str:
    """Line-oriented text form of a verification report."""
    lines = [f"kind: {report.kind}"]
    if report.direction is not None:
        lines.append("direction: " + ",".join(format_complex(z) for z in report.direction))
    if report.schedule is not None:
        s = report.schedule
        lines.append(f"schedule: t0={s.t0:g} factor={s.factor:g} steps={s.steps}")
    if report.radius is not None:
        lines.append(f"radius: {report.radius:g}")
    if report.trials is not None:
        lines.append(f"trials: {report.trials}")
    label = "R" if report.kind == "sample" else "t"
    for t, value in report.samples:
        rendered = "n/a" if value is None else repr(value)
        lines.append(f"{label}={t:g} value={rendered}")
    exponent = report.fitted_decay_exponent
    lines.append("fitted_decay_exponent: "
                 + ("n/a" if exponent is None else repr(exponent)))
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines)


def render_json(result) -> str:
    """Stable JSON text for a Basis, ConeDescription or VerificationReport."""
    if isinstance(result, Basis):
        return dumps(_basis_payload(result))
    if isinstance(result, ConeDescription):
        payload = _basis_payload(result.source_basis)
        payload["cone_generators"] = [
            render_polynomial(g, result.generators.order) for g in result.generators
        ]
        return dumps(payload)
    from .numeric import VerificationReport
    if isinstance(result, VerificationReport):
        return dumps(_report_payload(result))
    raise TypeError(f"cannot render {type(result).__name__}")
