"""Symbolic commutator words: AST, text parser, and series evaluation.

Syntax examples:
    (a b)^n                    product with a formal exponent
    [b,a]^C(n,2) a^n b^n       right side of a collection identity
    [_2 a, b]                  shorthand: two copies of a, then b
    [[b,a],a,b,a]^(6C(n,3)+18C(n,4)+12C(n,5))

Brackets are right-normed: the parser nests [x,y,z] as [x,[y,z]], so every
bracket node has two sides, and [g,h] = g h g^{-1} h^{-1} (conjugation on the
left).  Exponents are integer combinations of 1, n, and C(n,t).

``Expr.evaluate`` with a memo computes each distinct subtree that does not
use n once: a tree checked for many n, or several trees sharing brackets
such as [b,a] inside [a,b,a] and [b,b,a], build each such commutator once.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .freenil import FreenilError, TruncatedSeries, group_commutator


class ExprError(FreenilError):
    pass


@dataclass(frozen=True)
class ExpPoly:
    """Integer combination sum_t terms[t] * C(n, t); t = 0 is the constant 1."""

    terms: tuple[tuple[int, int], ...]  # sorted (t, coeff), coeff != 0

    @classmethod
    def constant(cls, v: int) -> "ExpPoly":
        return cls(((0, v),) if v else ())

    @classmethod
    def binomial(cls, t: int, coeff: int = 1) -> "ExpPoly":
        return cls(((t, coeff),) if coeff else ())

    @property
    def is_constant(self) -> bool:
        return all(t == 0 for t, _ in self.terms)

    def evaluate(self, n: Optional[int]) -> int:
        if self.is_constant:
            return self.terms[0][1] if self.terms else 0
        if n is None:
            raise ExprError("formal exponent used without a value for n")
        return sum(coeff * math.comb(n, t) for t, coeff in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for t, coeff in self.terms:
            if t == 0:
                parts.append(str(coeff))
            elif t == 1:
                parts.append(f"{coeff}n" if coeff != 1 else "n")
            else:
                parts.append((str(coeff) if coeff != 1 else "") + f"C(n,{t})")
        return "+".join(parts).replace("+-", "-")


class Expr:
    """A commutator expression; each node type defines ``_value``."""

    uses_n: bool  # whether the value depends on n, fixed when the node is made

    def evaluate(
        self,
        binding: dict[str, TruncatedSeries],
        n: Optional[int] = None,
        memo: Optional[dict["Expr", TruncatedSeries]] = None,
    ) -> TruncatedSeries:
        """The value of this tree under ``binding`` at ``n``.  With ``memo``,
        each subtree that does not use n is computed once and kept in it,
        keyed by the subtree itself, so equal subtrees share one entry across
        calls and across n.  A memo belongs to one binding: pass the same
        dict only with the binding that filled it."""
        if memo is None or self.uses_n:
            return self._value(binding, n, memo)
        value = memo.get(self)
        if value is None:
            value = memo[self] = self._value(binding, n, memo)
        return value

    def _value(self, binding, n, memo) -> TruncatedSeries:
        raise NotImplementedError


@dataclass(frozen=True)
class Letter(Expr):
    name: str
    uses_n = False

    def _value(self, binding, n, memo):
        try:
            return binding[self.name]
        except KeyError:
            raise ExprError(f"unbound letter {self.name!r}") from None

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Bracket(Expr):
    """[left, right] = left right left^{-1} right^{-1}."""

    left: Expr
    right: Expr

    def __post_init__(self):
        object.__setattr__(self, "uses_n", self.left.uses_n or self.right.uses_n)

    def _value(self, binding, n, memo):
        return group_commutator(
            self.left.evaluate(binding, n, memo), self.right.evaluate(binding, n, memo)
        )

    def __str__(self):
        # print the right-normed chain [x, [y, z]] as [x,y,z]
        items, node = [], self
        while isinstance(node, Bracket):
            items.append(node.left)
            node = node.right
        return "[" + ",".join(map(str, [*items, node])) + "]"


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: ExpPoly

    def __post_init__(self):
        object.__setattr__(
            self, "uses_n", self.base.uses_n or not self.exponent.is_constant
        )

    def _value(self, binding, n, memo):
        return self.base.evaluate(binding, n, memo).power(self.exponent.evaluate(n))

    def __str__(self):
        base = str(self.base)
        if isinstance(self.base, (Product, Power)):
            base = f"({base})"
        return f"{base}^({self.exponent})"


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple[Expr, ...]

    def __post_init__(self):
        if not self.factors:
            raise ExprError("empty product")
        object.__setattr__(self, "uses_n", any(f.uses_n for f in self.factors))

    def _value(self, binding, n, memo):
        acc = self.factors[0].evaluate(binding, n, memo)
        for f in self.factors[1:]:
            acc = acc * f.evaluate(binding, n, memo)
        return acc

    def __str__(self):
        return " ".join(
            f"({f})" if isinstance(f, Product) else str(f) for f in self.factors
        )


_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|\d+|[\[\](),^+\-_])")


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ExprError(f"bad character at position {pos}: {text[pos]!r}")
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ExprError(f"expected {tok!r}, got {got!r}")

    # product := factor+   (stops at ',', ']', ')' or end)
    def parse_product(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek() not in (None, ",", "]", ")"):
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self) -> Expr:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.next()
            return Power(atom, self.parse_exponent())
        return atom

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok == "(":
            inner = self.parse_product()
            self.expect(")")
            return inner
        if tok == "[":
            items: list[Expr] = []
            while True:
                if self.peek() == "_":
                    self.next()
                    count = int(self.next())
                    item = self.parse_product()
                    items.extend([item] * count)
                else:
                    items.append(self.parse_product())
                tok2 = self.next()
                if tok2 == "]":
                    break
                if tok2 != ",":
                    raise ExprError(f"expected ',' or ']' in bracket, got {tok2!r}")
            if len(items) < 2:
                raise ExprError("bracket needs at least two items")
            expr = items.pop()
            while items:
                expr = Bracket(items.pop(), expr)
            return expr
        if tok.isidentifier() and tok != "n":
            return Letter(tok)
        raise ExprError(f"unexpected token {tok!r}")

    def parse_exponent(self) -> ExpPoly:
        if self.peek() == "(":
            self.next()
            poly = self.parse_exp_sum()
            self.expect(")")
            return poly
        return self.parse_exp_term(allow_sign=True)

    def parse_exp_sum(self) -> ExpPoly:
        acc: dict[int, int] = {}
        first = True
        while True:
            term = self.parse_exp_term(allow_sign=first or self.peek() in ("+", "-"))
            for t, coeff in term.terms:
                acc[t] = acc.get(t, 0) + coeff
            first = False
            if self.peek() != "+" and self.peek() != "-":
                break
        return ExpPoly(tuple(sorted((t, cf) for t, cf in acc.items() if cf)))

    def parse_exp_term(self, allow_sign: bool = False) -> ExpPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if not allow_sign:
                raise ExprError("unexpected sign in exponent")
            if self.next() == "-":
                sign = -sign
        coeff = 1
        have_coeff = False
        tok = self.peek()
        if tok is not None and tok.isdigit():
            coeff = int(self.next())
            have_coeff = True
        tok = self.peek()
        if tok == "n":
            self.next()
            return ExpPoly.binomial(1, sign * coeff)
        if tok == "C":
            self.next()
            self.expect("(")
            self.expect("n")
            self.expect(",")
            t = int(self.next())
            self.expect(")")
            return ExpPoly.binomial(t, sign * coeff)
        if have_coeff:
            return ExpPoly.constant(sign * coeff)
        raise ExprError(f"bad exponent near {tok!r}")


def parse_expr(text: str) -> Expr:
    parser = _Parser(text)
    expr = parser.parse_product()
    if parser.peek() is not None:
        raise ExprError(f"trailing input at token {parser.peek()!r}")
    return expr
