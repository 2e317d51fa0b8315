"""Exact sparse polynomials in one variable, plus symbolic series terms.

Everything here is exact rational arithmetic (`fractions.Fraction`).  The
same class serves both roles the package needs:

* polynomials in the edge probability p with rational coefficients, and
* chromatic polynomials in the colour count (integer coefficients, which
  are just Fractions with denominator 1).

Floats never appear; callers convert at the very end if they need to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


class Polynomial:
    """Sparse exact polynomial: {exponent: coefficient}, no stored zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    if e < 0:
                        raise ValueError(f"negative exponent {e}")
                    self.coeffs[int(e)] = c

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({0: 1})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial({0: other})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial({0: other})
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = Polynomial()
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        res = Polynomial()
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial({0: other})
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            res = Polynomial()
            if other:
                res.coeffs = {e: c * other for e, c in self.coeffs.items()}
            return res
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = Polynomial()
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def coeff(self, e: int) -> Fraction:
        return self.coeffs.get(e, Fraction(0))

    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return max(self.coeffs) if self.coeffs else -1

    def __call__(self, x) -> Fraction:
        """Exact evaluation at a rational point."""
        x = Fraction(x)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * x**e
        return total

    def to_json(self) -> dict:
        """{exponent: [num, den]} mapping, exponents as strings for JSON."""
        return {
            str(e): [self.coeffs[e].numerator, self.coeffs[e].denominator]
            for e in sorted(self.coeffs)
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Iterable[int]]) -> "Polynomial":
        return cls({int(e): Fraction(num, den) for e, (num, den) in data.items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{e}")
        return " + ".join(parts)


def falling_factorial(n, t: int) -> Fraction:
    """[n]_t = n (n-1) ... (n-t+1), exact; [n]_0 = 1."""
    n = Fraction(n)
    out = Fraction(1)
    for i in range(t):
        out *= n - i
    return out


def falling_factorial_poly(t: int) -> Polynomial:
    """[x]_t expanded into monomials (signed Stirling numbers of the first kind)."""
    out = Polynomial.one()
    for i in range(t):
        out = out * Polynomial({1: 1, 0: -i})
    return out


@dataclass(frozen=True)
class SeriesTerm:
    """One symbolic term c * [n]_a * p^b of the expansion series."""

    coeff: Fraction
    n_falling: int
    p_power: int

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("series terms carry non-zero coefficients")
        if self.n_falling < 1 or self.p_power < 1:
            raise ValueError("series terms need n_falling >= 1 and p_power >= 1")

    def to_json(self) -> dict:
        return {
            "coeff_num": self.coeff.numerator,
            "coeff_den": self.coeff.denominator,
            "n_falling": self.n_falling,
            "p_power": self.p_power,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "SeriesTerm":
        return cls(
            coeff=Fraction(data["coeff_num"], data["coeff_den"]),
            n_falling=int(data["n_falling"]),
            p_power=int(data["p_power"]),
        )


def log_fraction(x: Fraction) -> float:
    """log of a positive rational, accurate even when x is very close to 1.

    Near 1 the value is computed as log1p(x - 1) with the difference formed
    exactly first, so the absolute error is ~1e-16 * |log x| rather than
    ~1e-16 * |log numerator|.
    """
    if x <= 0:
        raise ValueError("log of non-positive value")
    if Fraction(1, 2) < x < 2:
        return math.log1p(float(x - 1))
    # math.log works on arbitrary-size ints without overflowing
    return math.log(x.numerator) - math.log(x.denominator)
