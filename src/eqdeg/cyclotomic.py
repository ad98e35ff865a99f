"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Character values and fixed-space dimension counts must come out as exact
integers, so root-of-unity sums are never rounded.  A value is a
polynomial in zeta_n = exp(2*pi*i/n) reduced modulo the n-th cyclotomic
polynomial; the power basis 1, zeta, ..., zeta^(phi(n)-1) makes the
representation unique at a fixed order, and mixed-order arithmetic lifts
to the lcm.  Hot sums need not build a `Cyc` per term: `_reduce` also takes
a coefficient vector of length n, so a sum of many terms can be added up in
the powers of zeta_n and reduced once (as `o2gamma.fixed_dim` and
`ddedeg.coupling_coefficient` do).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree."""
    if n < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        q, r = divmod(num[i], den[dn])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i - dn] = q
        for j in range(dn + 1):
            num[i - dn + j] -= q * den[j]
    if any(num[:dn]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce(coeffs: list, n: int) -> tuple:
    """Reduce a polynomial in zeta_n modulo Phi_n; return phi(n) coords.

    Integer coefficients stay integers (Phi_n is monic with integer
    coefficients); Fraction coefficients stay Fractions."""
    phi = _phi(n)
    cp = cyclotomic_polynomial(n)
    work = list(coeffs) + [Fraction(0)] * max(0, phi - len(coeffs))
    for i in range(len(work) - 1, phi - 1, -1):
        c = work[i]
        if c:
            for j in range(phi + 1):
                work[i - phi + j] -= c * cp[j]
        work.pop()
    return tuple(work[:phi])


class Cyc:
    """Immutable cyclotomic number."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        if all(c == 0 for c in coeffs[1:]):
            self.order = 1
            self.coeffs = (coeffs[0] if coeffs else Fraction(0),)
        else:
            self.order = order
            self.coeffs = coeffs

    @staticmethod
    def rational(q) -> "Cyc":
        return Cyc(1, (Fraction(q),))

    @staticmethod
    def root_of_unity(k: int, n: int) -> "Cyc":
        """exp(2*pi*i*k/n)."""
        if n <= 0:
            raise ValueError("order must be positive")
        k %= n
        g = gcd(k, n)
        k, n = k // g, n // g
        poly = [Fraction(0)] * (k + 1)
        poly[k] = Fraction(1)
        return Cyc(n, _reduce(poly, n))

    def _lift(self, n: int) -> tuple[Fraction, ...]:
        if n == self.order:
            return self.coeffs
        step = n // self.order
        poly = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            poly[i * step] += c
        return _reduce(poly, n)

    def __add__(self, other) -> "Cyc":
        other = _coerce(other)
        n = lcm(self.order, other.order)
        a, b = self._lift(n), other._lift(n)
        return Cyc(n, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Cyc":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Cyc":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Cyc":
        if isinstance(other, (int, Fraction)):
            return Cyc(self.order, tuple(c * other for c in self.coeffs))
        other = _coerce(other)
        n = lcm(self.order, other.order)
        a, b = self._lift(n), other._lift(n)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyc(n, _reduce(prod, n))

    __rmul__ = __mul__

    def conjugate(self) -> "Cyc":
        n = self.order
        poly = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            poly[(n - i) % n] += c
        return Cyc(n, _reduce(poly, n))

    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ArithmeticError(f"not a rational value: {self!r}")
        return self.coeffs[0]

    def as_integer(self) -> int:
        q = self.as_fraction()
        if q.denominator != 1:
            raise ArithmeticError(f"not an integer: {q}")
        return q.numerator

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        n = lcm(self.order, other.order)
        return self._lift(n) == other._lift(n)

    def __hash__(self):
        # equal values stored at different orders must hash alike, so hash
        # an invariant of the value: its mean over the Galois conjugates,
        # which is the value itself when it is rational
        return hash(self._galois_mean())

    def _galois_mean(self) -> Fraction:
        """Trace over Q divided by the degree phi(order).

        The trace of zeta_n^i is mu(m) * phi(n) / phi(m) with
        m = n / gcd(i, n), and mu(m) = -(coefficient of x^(phi(m) - 1) in
        Phi_m), so the mean is the same at every order the value lifts to.
        """
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if c:
                cp = cyclotomic_polynomial(self.order // gcd(i, self.order))
                total += c * Fraction(-cp[-2], len(cp) - 1)
        return total

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z{self.order}^{i}" if i else str(c))
        return " + ".join(terms)


def _coerce(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc.rational(x)
    raise TypeError(f"cannot interpret {x!r} as a cyclotomic number")

