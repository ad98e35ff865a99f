import random
from fractions import Fraction
from math import cos, isclose, pi

import pytest

from eqdeg.cyclotomic import Cyc, cyclotomic_polynomial
from eqdeg.ddedeg import LinearizationData, coupling_coefficient


def cos_turn(t: Fraction) -> Cyc:
    """cos(2*pi*t) as the mean of two conjugate roots of unity."""
    a = Cyc.root_of_unity(t.numerator, t.denominator)
    b = Cyc.root_of_unity(-t.numerator, t.denominator)
    return (a + b) * Fraction(1, 2)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity_sum_to_zero():
    for n in (2, 3, 4, 5, 6, 7, 12):
        total = Cyc.rational(0)
        for k in range(n):
            total = total + Cyc.root_of_unity(k, n)
        assert total == Cyc.rational(0)


def test_root_product_is_additive_in_exponent():
    for n in (5, 8, 12):
        for a in range(n):
            for b in range(n):
                lhs = Cyc.root_of_unity(a, n) * Cyc.root_of_unity(b, n)
                assert lhs == Cyc.root_of_unity(a + b, n)


def test_mixed_order_arithmetic():
    # zeta_6 = -zeta_3^2
    z6 = Cyc.root_of_unity(1, 6)
    z3 = Cyc.root_of_unity(1, 3)
    assert z6 == -(z3 * z3)
    assert z6 * z6 * z6 == Cyc.rational(-1)


def test_conjugate_and_cosine():
    z5 = Cyc.root_of_unity(1, 5)
    assert (z5 * z5.conjugate()) == Cyc.rational(1)
    # 2*(cos(2pi/5) + cos(4pi/5)) = -1
    c1 = cos_turn(Fraction(1, 5))
    c2 = cos_turn(Fraction(2, 5))
    assert (c1 + c2) * 2 == Cyc.rational(-1)


def test_rational_extraction_guards():
    z5 = Cyc.root_of_unity(1, 5)
    with pytest.raises(ArithmeticError):
        z5.as_fraction()
    assert (z5 + z5.conjugate() + cos_turn(Fraction(2, 5)) * 2).as_fraction() == Fraction(-1)
    with pytest.raises(ArithmeticError):
        Cyc.rational(Fraction(1, 2)).as_integer()


def cyc_value(z: Cyc) -> float:
    """The real part of z as a float."""
    return sum(float(c) * cos(2 * pi * i / z.order) for i, c in enumerate(z.coeffs))


@pytest.mark.parametrize("m", range(1, 13))
def test_coupling_coefficient_matches_symbolic_cosines(m):
    # c_k = sum_j mu_j cos(2 pi j k / m) on seeded reversible rows is a
    # Fraction exactly when the symbolic sum is rational, else its float
    rng = random.Random(m)
    rows = []
    for _ in range(5):
        half = [Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(m // 2 + 1)]
        rows.append(tuple(half[min(j, m - j)] for j in range(m)))
    for row in rows:
        data = LinearizationData(m=m, mu={0: row})
        for k in range(m + 1):
            terms = (cos_turn(Fraction(j * k, m)) * v for j, v in enumerate(row))
            exact = sum(terms, Cyc.rational(0))
            c = coupling_coefficient(data, 0, k)
            if exact.is_rational():
                assert type(c) is Fraction and c == exact.as_fraction()
            else:
                assert type(c) is float and isclose(c, cyc_value(exact), abs_tol=1e-9)
    # equal delayed values: c_k = mu_0 - mu_1 off the multiples of m, at every m
    data = LinearizationData(m=m, mu={0: (Fraction(5),) + (Fraction(-3, 2),) * (m - 1)})
    c_0 = 5 - Fraction(3, 2) * (m - 1)
    assert [coupling_coefficient(data, 0, k) for k in range(m + 1)] == (
        [c_0] + [Fraction(13, 2)] * (m - 1) + [c_0]
    )


def test_hash_agrees_with_equality_across_orders():
    z12 = Cyc.root_of_unity(1, 12)
    i4 = Cyc.root_of_unity(1, 4)
    mixed = z12 + (i4 - z12)  # equal to i, but stored at order 12
    assert mixed == i4 and mixed.order != i4.order
    assert hash(mixed) == hash(i4)
    half = Fraction(1, 2)
    assert Cyc.rational(half) == half and hash(Cyc.rational(half)) == hash(half)
    assert hash(Cyc.rational(3)) == hash(3)
    # every value written at a multiple of its order hashes as it did
    for n in (3, 4, 5, 6, 8):
        x = Cyc.root_of_unity(1, n) * 2 + Cyc.root_of_unity(n - 1, n) * Fraction(1, 3)
        for m in (2, 3, 4):
            lifted = Cyc(n * m, x._lift(n * m))
            assert lifted == x and hash(lifted) == hash(x), (n, m)
