import itertools

import pytest

from eqdeg.burnside import BurnsideElement, LatticeMismatchError, marks_row, mult_classes
from eqdeg.permgroup import Group, subgroup_lattice


def lattice_for(name):
    return subgroup_lattice(Group.from_name(name))


def test_z2_trivial_square():
    lat = lattice_for("Z2")
    triv = 0
    prod = mult_classes(lat, triv, triv)
    assert prod.coeffs == {triv: 2}


def test_d6_free_square():
    lat = lattice_for("D6")
    triv = 0
    prod = mult_classes(lat, triv, triv)
    assert prod.coeffs == {triv: 12}


def test_unit_element():
    lat = lattice_for("D6")
    unit = BurnsideElement.unit(lat)
    for i in range(len(lat.classes)):
        gen = BurnsideElement.generator(lat, i)
        assert unit * gen == gen
        assert gen * unit == gen


def test_whole_group_squared():
    lat = lattice_for("D6")
    top = len(lat.classes) - 1
    assert mult_classes(lat, top, top).coeffs == {top: 1}


def test_bilinearity():
    lat = lattice_for("S3")
    top = len(lat.classes) - 1
    h = 1
    a = BurnsideElement.unit(lat) - BurnsideElement.generator(lat, h)
    sq = a * a
    expected = (
        BurnsideElement.unit(lat)
        - 2 * BurnsideElement.generator(lat, h)
        + mult_classes(lat, h, h)
    )
    assert sq == expected


def test_coeff_access():
    lat = lattice_for("D6")
    a = BurnsideElement.unit(lat) - 2 * BurnsideElement.generator(lat, 3)
    assert a.coeff(3) == -2
    assert a.coeff(0) == 0
    assert BurnsideElement.zero(lat).coeff(1) == 0


def test_diagonal_coefficient_is_weyl_order():
    # the (H)-coefficient of (H)*(H) equals |W(H)|
    for name in ("D6", "S3"):
        lat = lattice_for(name)
        for i in range(len(lat.classes)):
            prod = mult_classes(lat, i, i)
            assert prod.coeff(i) == lat.weyl_order(i), (name, i)


def test_commutativity_and_associativity_exhaustive():
    for name in ("D6", "S3"):
        lat = lattice_for(name)
        n = len(lat.classes)
        for i in range(n):
            for j in range(n):
                assert mult_classes(lat, i, j) == mult_classes(lat, j, i)
        gens = [BurnsideElement.generator(lat, i) for i in range(n)]
        for i, j, k in itertools.product(range(n), repeat=3):
            assert (gens[i] * gens[j]) * gens[k] == gens[i] * (gens[j] * gens[k])


def test_orbit_total_consistency():
    for name in ("D6", "S3"):
        lat = lattice_for(name)
        g_order = lat.group.order
        n = len(lat.classes)
        for i in range(n):
            for j in range(n):
                prod = mult_classes(lat, i, j)
                total = sum(
                    c * g_order // lat.classes[l].order for l, c in prod.coeffs.items()
                )
                expected = (g_order // lat.classes[i].order) * (
                    g_order // lat.classes[j].order
                )
                assert total == expected


def test_marks_oracle_inverts_products():
    # independent check: fixed points are multiplicative over products,
    # so marks(H)*marks(K) must equal the mark vector of (H)(K)
    for name in ("D6", "S3"):
        lat = lattice_for(name)
        n = len(lat.classes)
        marks = [marks_row(lat, h) for h in range(n)]
        for i in range(n):
            for j in range(n):
                prod = mult_classes(lat, i, j)
                for l in range(n):
                    lhs = marks[i][l] * marks[j][l]
                    rhs = sum(c * marks[h][l] for h, c in prod.coeffs.items())
                    assert lhs == rhs, (name, i, j, l)


def test_lattice_mismatch_rejected():
    a = BurnsideElement.unit(lattice_for("D6"))
    b = BurnsideElement.unit(lattice_for("S3"))
    with pytest.raises(LatticeMismatchError):
        a * b


def test_render_and_json():
    lat = lattice_for("Z2")
    a = BurnsideElement.unit(lat) - 2 * BurnsideElement.generator(lat, 0)
    text = a.render()
    assert "(Z2)" in text and "2(Z1)" in text
    assert BurnsideElement.zero(lat).render() == "0"
