"""Burnside-ring laws on the production product path.

A plain Gamma' context multiplies O(2) x K classes through
`GRingElement` -> `class_product` -> `_product_o2`, the double-coset rule
of Gamma', so the finite ring A(Gamma') is checked as the engine (and
`eqdeg burnside`) uses it.  Class index i of the lattice stands for
O(2) x K_i.
"""

import itertools

import pytest

from eqdeg import o2gamma as og
from eqdeg.basicdeg import GRingElement
from eqdeg.chartab import SignedGroup, bundled_table
from eqdeg.cli import bundled_example_path, load_config, run_analyze
from eqdeg.o2gamma import GammaContext, class_product, make_o2
from eqdeg.permgroup import Group

from conftest import marks_row, three_delay_config

RINGS = {}


def ring_for(name):
    """A plain context, the O(2) x K class of every lattice class, and the
    generator of each."""
    if name not in RINGS:
        ctx = GammaContext.from_character_table(bundled_table(name))
        classes = [make_o2(ctx, cls.rep_set) for cls in ctx.lattice.classes]
        gens = [GRingElement(ctx, {c: 1}) for c in classes]
        RINGS[name] = ctx, classes, gens
    return RINGS[name]


def by_index(ctx, elem):
    """The coefficients of a ring element keyed by lattice class index."""
    return {ctx.lattice.class_of(c.K): v for c, v in elem.coeffs.items()}


def test_z2_trivial_square():
    ctx, _, gens = ring_for("Z2")
    assert by_index(ctx, gens[0] * gens[0]) == {0: 2}


def test_d6_free_square():
    ctx, _, gens = ring_for("D6")
    assert by_index(ctx, gens[0] * gens[0]) == {0: 12}


def test_unit_element():
    ctx, _, gens = ring_for("D6")
    unit = GRingElement.unit(ctx)
    assert unit == gens[-1]
    for gen in gens:
        assert unit * gen == gen
        assert gen * unit == gen


def test_whole_group_squared():
    ctx, _, gens = ring_for("D6")
    top = len(gens) - 1
    assert by_index(ctx, gens[top] * gens[top]) == {top: 1}


def test_bilinearity():
    ctx, _, gens = ring_for("S3")
    unit = GRingElement.unit(ctx)
    h = 1
    a = unit - gens[h]
    assert a * a == unit - gens[h].scaled(2) + gens[h] * gens[h]


def test_coeff_access():
    ctx, classes, gens = ring_for("D6")
    a = GRingElement.unit(ctx) - gens[3].scaled(2)
    assert a.coeff(classes[3]) == -2
    assert a.coeff(classes[0]) == 0
    assert GRingElement(ctx, {}).coeff(classes[1]) == 0


def test_diagonal_coefficient_is_weyl_order():
    # the (H)-coefficient of (H)*(H) equals |W(H)|
    for name in ("D6", "S3"):
        ctx, classes, gens = ring_for(name)
        for i, gen in enumerate(gens):
            assert (gen * gen).coeff(classes[i]) == ctx.lattice.classes[i].weyl_order, (name, i)


def test_commutativity_and_associativity_exhaustive():
    for name in ("D6", "S3"):
        ctx, classes, gens = ring_for(name)
        n = len(gens)
        for i in range(n):
            for j in range(n):
                c1, c2 = classes[i], classes[j]
                assert og._product_o2(ctx, c1, c2) == og._product_o2(ctx, c2, c1)
                assert gens[i] * gens[j] == gens[j] * gens[i]
        for i, j, k in itertools.product(range(n), repeat=3):
            assert (gens[i] * gens[j]) * gens[k] == gens[i] * (gens[j] * gens[k])


def test_orbit_total_consistency():
    # |G/H x G/K| = sum of the orbit sizes |G/L| over the product's terms
    for name in ("D6", "S3"):
        ctx, _, gens = ring_for(name)
        lat = ctx.lattice
        g_order = lat.group.order
        n = len(gens)
        for i in range(n):
            for j in range(n):
                prod = by_index(ctx, gens[i] * gens[j])
                total = sum(c * g_order // lat.classes[l].order for l, c in prod.items())
                expected = (g_order // lat.classes[i].order) * (
                    g_order // lat.classes[j].order
                )
                assert total == expected


def test_marks_oracle_inverts_products():
    # independent check: fixed points are multiplicative over products,
    # so marks(H)*marks(K) must equal the mark vector of (H)(K)
    for name in ("D6", "S3"):
        ctx, _, gens = ring_for(name)
        n = len(gens)
        marks = [marks_row(ctx.lattice, h) for h in range(n)]
        for i in range(n):
            for j in range(n):
                prod = by_index(ctx, gens[i] * gens[j])
                for l in range(n):
                    lhs = marks[i][l] * marks[j][l]
                    rhs = sum(c * marks[h][l] for h, c in prod.items())
                    assert lhs == rhs, (name, i, j, l)


def test_product_rejects_double_cosets_that_miss_the_group(monkeypatch):
    # a double-coset walk that skips a representative leaves part of Gamma'
    # uncovered, which the product reports instead of returning a wrong sum;
    # the finite pairs are mode-1 candidates of S3 x Z2, each with a
    # reflection, whose product runs over double cosets of their rotations
    ctx = GammaContext(Group.from_name("S3"), [])
    classes = [make_o2(ctx, cls.rep_set) for cls in ctx.lattice.classes]
    signed_ctx = GammaContext.from_signed_group(SignedGroup(bundled_table("S3")))
    fins = og.mode1_candidates(signed_ctx)
    assert len(fins) > 2 and all(any(s == -1 for (_, s, _) in c.elems) for c in fins)
    reps = Group.double_coset_reps
    monkeypatch.setattr(
        Group, "double_coset_reps", lambda self, a, b: itertools.islice(reps(self, a, b), 1, None)
    )
    for c1, c2 in itertools.product(classes, repeat=2):
        with pytest.raises(AssertionError, match="do not cover"):
            og._product_o2(ctx, c1, c2)
    for c1, c2 in itertools.product(fins, repeat=2):
        with pytest.raises(AssertionError, match="do not cover"):
            og._product_fin_fin(signed_ctx, c1, c2)


def test_double_cosets_are_walked_once_per_pair(monkeypatch):
    # the bundled analysis asks for the double cosets of a few hundred pairs
    # of subgroups of Gamma' thousands of times; the context keeps each walk
    walks = []
    reps = Group.double_coset_reps

    def spy(self, a, b):
        walks.append((a, b))
        return reps(self, a, b)

    monkeypatch.setattr(Group, "double_coset_reps", spy)
    run_analyze(load_config(bundled_example_path()))
    assert walks and len(walks) == len(set(walks))


@pytest.mark.parametrize(
    "config",
    [None, three_delay_config("S4", ["-10"] * 5)],
    ids=["bundled", "S4-10"],
)
def test_full_group_is_the_unit_of_every_interned_class(config):
    # (G) * (H) = (H) with no walk; the double-coset rule gives the same
    ctx = run_analyze(config or load_config(bundled_example_path())).ctx
    g = og.full_group(ctx)
    classes = list(ctx._interned.values())
    assert any(c.kind == "fin" for c in classes)
    for c in classes:
        assert class_product(g, c) == class_product(c, g) == {c: 1}, c.name()
        assert og._product_o2(ctx, g, c) == {c: 1}, c.name()
    # the unit rule comes after the context check
    other = GammaContext.from_signed_group(SignedGroup(bundled_table("S3")))
    for c in (g, classes[-1]):
        with pytest.raises(ValueError, match="different groups"):
            class_product(og.full_group(other), c)
        with pytest.raises(ValueError, match="different groups"):
            class_product(c, og.full_group(other))


def test_lattice_mismatch_rejected():
    d6, d6_classes, _ = ring_for("D6")
    s3, s3_classes, _ = ring_for("S3")
    with pytest.raises(ValueError, match="different groups"):
        class_product(d6_classes[0], s3_classes[0])
    with pytest.raises(ValueError, match="different groups"):
        GRingElement.unit(d6) * GRingElement.unit(s3)


def test_render_and_json():
    ctx, classes, gens = ring_for("Z2")
    a = GRingElement.unit(ctx) - gens[0].scaled(2)
    assert a.render() == "(G) - 2(O(2) x Z1)"
    assert (gens[0].scaled(-1) + GRingElement.unit(ctx)).render() == "(G) - (O(2) x Z1)"
    assert gens[0].scaled(-3).render() == "-3(O(2) x Z1)"
    assert GRingElement(ctx, {}).render() == "0"
    assert [t["coefficient"] for t in a.to_jsonable()] == [-2, 1]
    assert [t["class"] for t in a.to_jsonable()] == ["O(2) x Z1", "G"]
