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
are exact rationals; floating literals are rejected.  All rendering is
deterministic so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .groebner import Basis
from .cone import ConeDescription
from .polyring import (
    MonomialOrder,
    Polynomial,
    VariableContext,
    constant,
    variable,
)

if TYPE_CHECKING:  # imported where needed: gb, cone and member never need numeric
    from .numeric import VerificationReport


class ParseError(ValueError):
    """Syntax or semantic error in user input, with source position."""

    def __init__(self, message: str, line: int, column: int, source: str = "<input>"):
        self.message = message
        self.line = line
        self.column = column
        self.source = source
        super().__init__(f"{source}:{line}:{column}: {message}")


class IdealFile(NamedTuple):
    """A parsed ideal presentation: variables plus generator polynomials."""

    context: VariableContext
    polynomials: tuple[Polynomial, ...]
    source: str
    poly_lines: tuple[int, ...]


_TOKEN_RE = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*/^()]))")


class _Tokens:
    def __init__(self, text: str, lineno: int, source: str):
        self.text = text
        self.lineno = lineno
        self.source = source
        self.pos = 0
        self.items: list[tuple[str, str, int]] = []  # (kind, value, column)
        while True:
            m = _TOKEN_RE.match(text, self.pos)
            if not m:
                rest = text[self.pos:].strip()
                if rest:
                    col = self.pos + len(text[self.pos:]) - len(text[self.pos:].lstrip()) + 1
                    raise ParseError(f"unexpected character {rest[0]!r}",
                                     lineno, col, source)
                break
            self.pos = m.end()
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind) + 1))
            if self.pos >= len(text):
                break
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.index] if self.index < len(self.items) else None

    def next(self) -> tuple[str, str, int] | None:
        tok = self.peek()
        if tok is not None:
            self.index += 1
        return tok

    def error(self, message: str, column: int | None = None):
        if column is None:
            tok = self.peek()
            column = tok[2] if tok else len(self.text) + 1
        raise ParseError(message, self.lineno, column, self.source)


class _ExprParser:
    """Recursive-descent parser for one poly-line expression."""

    def __init__(self, tokens: _Tokens, context: VariableContext):
        self.toks = tokens
        self.ctx = context

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.toks.peek() is not None:
            kind, value, col = self.toks.peek()
            self.toks.error(f"unexpected {value!r}", col)
        return p

    def expr(self) -> Polynomial:
        negate = False
        tok = self.toks.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.toks.next()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while True:
            tok = self.toks.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.toks.next()
                rhs = self.term()
                p = p + rhs if tok[1] == "+" else p - rhs
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            tok = self.toks.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.toks.next()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.base()
        tok = self.toks.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.toks.next()
            etok = self.toks.next()
            if etok is None or etok[0] != "nat":
                self.toks.error("'^' requires a natural-number exponent",
                                etok[2] if etok else None)
            p = p ** int(etok[1])
        return p

    def base(self) -> Polynomial:
        tok = self.toks.next()
        if tok is None:
            self.toks.error("unexpected end of expression")
        kind, value, col = tok
        if kind == "nat":
            num = int(value)
            nxt = self.toks.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.toks.next()
                dtok = self.toks.next()
                if dtok is None or dtok[0] != "nat":
                    self.toks.error("'/' requires a natural-number denominator",
                                    dtok[2] if dtok else None)
                if int(dtok[1]) == 0:
                    self.toks.error("zero denominator", dtok[2])
                return constant(self.ctx, Fraction(num, int(dtok[1])))
            return constant(self.ctx, num)
        if kind == "ident":
            if value not in self.ctx.names:
                self.toks.error(f"unknown identifier \"{value}\"", col)
            return variable(self.ctx, value)
        if kind == "op" and value == "(":
            p = self.expr()
            closing = self.toks.next()
            if closing is None or closing[1] != ")":
                self.toks.error("expected ')'", closing[2] if closing else None)
            return p
        self.toks.error(f"unexpected {value!r}", col)


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
        rest = line[len(keyword):]
        offset = raw.index(keyword) + len(keyword)
        if keyword == "vars":
            if context is not None:
                raise ParseError("duplicate vars-line", lineno, 1, source)
            toks = _Tokens(rest, lineno, source)
            names = []
            while (tok := toks.next()) is not None:
                if tok[0] != "ident":
                    raise ParseError(f"expected variable name, got {tok[1]!r}",
                                     lineno, tok[2] + offset, source)
                names.append(tok[1])
            if not names:
                raise ParseError("vars-line needs at least one variable",
                                 lineno, offset + 1, source)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable in vars-line", lineno, 1, source)
            context = VariableContext(tuple(names))
        elif keyword == "poly":
            if context is None:
                raise ParseError("poly-line before vars-line", lineno, 1, source)
            toks = _Tokens(rest, lineno, source)
            try:
                p = _ExprParser(toks, context).parse()
            except ParseError as err:
                raise ParseError(err.message, lineno, err.column + offset, source) from None
            polys.append(p)
            poly_lines.append(lineno)
        else:
            raise ParseError(f"expected 'vars' or 'poly', got {keyword!r}",
                             lineno, raw.index(keyword) + 1, source)
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
        return tuple(complex(re, im) for re, im in self.entries)

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
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
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
