from fractions import Fraction

import pytest

from eqdeg import o2gamma as og
from eqdeg.basicdeg import (
    GRingElement,
    basic_degree,
    degree_product,
    x_o,
)
from eqdeg.chartab import bundled_table
from eqdeg.o2gamma import (
    GammaContext,
    fixed_dim,
    fold,
    full_group,
    maximal_orbit_types,
    weyl_order,
)

F = Fraction


def test_antipodal_one_dim_degree(z1ctx):
    # V has the antipodal action only; the degree is (G) minus the class of
    # the index-two kernel O(2) x Gamma
    deg = basic_degree(z1ctx, 0, 0)
    assert len(deg.coeffs) == 2
    unit_cls = full_group(z1ctx)
    assert deg.coeff(unit_cls) == 1
    other = next(c for c in deg.coeffs if c is not unit_cls)
    assert other.kind == "o2" and len(other.K) == 1
    assert deg.coeff(other) == -1


def test_all_even_dims_gives_unit():
    # Z4 rotation plane: every reflection-type class has even fixed dimension
    table = bundled_table("Z4")
    ctx = GammaContext.from_character_table(table)
    # the 2-dim real rotation character is the sum of the two conjugate rows
    rot_row = tuple(
        table.rows[1][table.class_of(g)] + table.rows[3][table.class_of(g)]
        for g in table.group.elements
    )
    ctx2 = GammaContext(table.group, [rot_row])
    cands = og.mode1_candidates(ctx2)
    dims = [fixed_dim(c, 1, 0) for c in cands]
    assert all(d % 2 == 0 for d in dims)
    assert basic_degree(ctx2, 1, 0) == GRingElement.unit(ctx2)


def test_basic_degree_mode1_trivial_character(d6ctx):
    deg = basic_degree(d6ctx, 1, 0)
    assert len(deg.coeffs) == 2
    top = maximal_orbit_types(d6ctx, 1, 0)[0]
    assert deg.coeff(top) == -x_o(d6ctx, 1, 0, top) == -1
    assert deg.coeff(full_group(d6ctx)) == 1


def test_basic_degree_refuses_a_negative_mode(d6ctx):
    with pytest.raises(ValueError, match="k must be >= 0"):
        basic_degree(d6ctx, -1, 0)


def test_involution_for_all_factors(d6ctx):
    unit = GRingElement.unit(d6ctx)
    for (k, l) in [(0, 0), (0, 3), (0, 4), (0, 5),
                   (1, 0), (1, 3), (1, 4), (1, 5),
                   (2, 3), (2, 4), (2, 5)]:
        deg = basic_degree(d6ctx, k, l)
        assert deg * deg == unit, (k, l)


def test_x_o_trichotomy(d6ctx):
    top = maximal_orbit_types(d6ctx, 1, 0)[0]
    assert x_o(d6ctx, 1, 0, top) == 1  # odd dim, Weyl order 2
    assert x_o(d6ctx, 1, 3, top) == 0  # even (zero) dim in another block
    assert weyl_order(top) == 2


def test_same_type_square_cancels(d6ctx):
    # two factors sharing a maximal class with odd fixed dims: the class
    # coefficient in the product vanishes
    deg = basic_degree(d6ctx, 1, 3)
    top = maximal_orbit_types(d6ctx, 1, 3)[0]
    assert deg.coeff(top) != 0
    square = deg * deg
    assert square.coeff(top) == 0


def test_folded_pair_coefficient_survives(d6ctx):
    # a mode-1 factor times its mode-2 fold keeps coefficient -x_o at the
    # base class (no conjugate of the fold contains the base, so there is
    # no cross term to cancel it)
    for l in (3, 4):
        d1 = basic_degree(d6ctx, 1, l)
        d2 = basic_degree(d6ctx, 2, l)
        prod = d1 * d2
        for base in maximal_orbit_types(d6ctx, 1, l):
            xo = x_o(d6ctx, 1, l, base)
            assert og.n_count_amalgam(base, fold(base, 2)) == 0
            assert prod.coeff(base) == -xo != 0
            assert prod.coeff(fold(base, 2)) == -xo


def test_degree_product_reductions(d6ctx):
    unit = GRingElement.unit(d6ctx)
    assert degree_product(d6ctx, []) == unit
    assert degree_product(d6ctx, [(1, 3, 2)]) == unit
    assert degree_product(d6ctx, [(1, 3, 4), (1, 4, 2)]) == unit
    single = degree_product(d6ctx, [(1, 3, 3)])
    assert single == basic_degree(d6ctx, 1, 3)


def test_recurrence_consistency_reverification(d6ctx):
    # every division of the marks identity is exact; a remainder raises
    for (k, l) in [(0, 0), (1, 4), (2, 5)]:
        basic_degree(d6ctx, k, l)  # must not raise RecurrenceError


def test_ring_element_arithmetic(d6ctx):
    unit = GRingElement.unit(d6ctx)
    a = basic_degree(d6ctx, 1, 0)
    assert a * unit == a
    assert (a - a) == GRingElement(d6ctx, {})
    assert a.scaled(3).coeff(full_group(d6ctx)) == 3
    assert "G" in a.render()
    payload = a.to_jsonable()
    assert any(item["coefficient"] == 1 for item in payload)


def test_mixed_kind_associativity(d6ctx):
    # products mixing constant-mode classes (O(2) x K) with finite dihedral
    # classes must still associate
    a = basic_degree(d6ctx, 0, 4)
    b = basic_degree(d6ctx, 1, 4)
    c = basic_degree(d6ctx, 2, 5)
    assert (a * b) * c == a * (b * c)
    assert (a * a) * b == a * (a * b)
