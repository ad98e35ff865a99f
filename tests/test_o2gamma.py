import sys
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from eqdeg import o2gamma as og
from eqdeg.basicdeg import basic_degree
from eqdeg.chartab import SignedGroup, bundled_table
from eqdeg.cli import bundled_example_path, load_config, run_analyze
from eqdeg.cyclotomic import Cyc
from eqdeg.permgroup import Group
from eqdeg.o2gamma import (
    GammaContext,
    class_product,
    fixed_dim,
    fold,
    full_group,
    make_fin,
    make_o2,
    mark,
    maximal_orbit_types,
    mode1_candidates,
    n_count_amalgam,
    orbit_types,
    subconjugate,
    weyl_order,
)

from conftest import (
    all_pairings_candidates,
    full_key_walk,
    marks_row,
    product_mark,
    three_delay_config,
)


@pytest.fixture(scope="module")
def trivctx():
    # a bare trivial finite factor: the ambient group is just O(2)
    return GammaContext.from_character_table(bundled_table("Z1"))


def test_d6_labels_name_distinct_classes(d6ctx):
    expected = {"Z2-": 7, "~D1": 6, "D2d": 13, "~D2d": 14, "~D2z": 15, "D6z": 27}
    assert set(og.D6_LABELS) == set(expected)
    assert {label: d6ctx.names.index(label) for label in expected} == expected
    assert all(d6ctx.names.count(label) == 1 for label in expected)


@pytest.mark.parametrize("name", ["D6", "D4", "S4"])
def test_plain_context_keeps_lattice_names(name):
    # the D6 labels name subgroups of D6 x Z2; a plain Gamma' has none
    ctx = GammaContext.from_character_table(bundled_table(name))
    lattice_names = [cls.name for cls in ctx.lattice.classes]
    assert ctx.names == lattice_names
    assert [ctx.subgroup_name(cls.rep_set) for cls in ctx.lattice.classes] == lattice_names


def test_o2_element_algebra(d6ctx):
    # every stored element set is a subgroup of O(2) x Gamma' on the
    # smallest grid that holds it: (u1, s1)(u2, s2) = (u1 + s1 * u2, s1 * s2)
    classes = list(mode1_candidates(d6ctx))
    classes += [fold(c, 3) for c in maximal_orbit_types(d6ctx, 1, 4)]
    for cls in classes:
        m, elems = cls.grid, cls.elems
        assert gcd(m, *(u for (u, _, _) in elems)) == 1
        for (u1, s1, g1) in elems:
            for (u2, s2, g2) in elems:
                prod = ((u1 + s1 * u2) % m, s1 * s2, d6ctx.mult[g1][g2])
                assert prod in elems, cls.name()


def test_trivial_gamma_mode1_candidates(trivctx):
    cands = mode1_candidates(trivctx)
    assert len(cands) == 1
    cls = cands[0]
    assert cls.fingerprint() == ("D", 2, 2, 1, 1, 1)  # the reflection pair
    assert fixed_dim(cls, 1, 0) == 1
    assert orbit_types(trivctx, 1, 0) == [cls]
    assert maximal_orbit_types(trivctx, 1, 0) == [cls]


def test_full_group_and_so2_weyl(d6ctx):
    g = full_group(d6ctx)
    assert weyl_order(g) == 1
    assert fixed_dim(g, 1, 4) == 0


def test_rotation_only_subgroup_is_refused(d6ctx):
    # its Weyl group is infinite, so it is no class of the Burnside ring
    e = d6ctx.identity
    with pytest.raises(ValueError, match="needs a reflection"):
        make_fin(d6ctx, {(0, 1, e), (1, 1, e)}, 2)


def test_d6_candidate_enumeration_includes_expected_shapes(d6ctx):
    cands = [c for c in mode1_candidates(d6ctx) if fixed_dim(c, 1, 4) > 0]
    # fingerprint()[1] is |H| and fingerprint()[3] is |L|
    kinds = {(c.fingerprint()[1], c.fingerprint()[3]) for c in cands}
    assert (4, 2) in kinds  # H = D2 pairing a Z2 quotient
    assert (12, 12) in kinds  # H = D6 pairing a full dihedral quotient
    for c in cands:
        assert any(s == -1 for (_, s, _) in c.elems) and weyl_order(c) >= 1


def test_k0_candidates_are_products_with_o2(d6ctx):
    cands = [make_o2(d6ctx, cls.rep_set) for cls in d6ctx.lattice.classes]
    cands = [c for c in cands if fixed_dim(c, 0, 0) > 0]
    assert cands and all(c.kind == "o2" for c in cands)
    sizes = {len(c.K) for c in cands}
    assert 12 in sizes  # the index-2 kernel of the signed trivial character
    types = orbit_types(d6ctx, 0, 0)
    assert len(types) == 1 and len(types[0].K) == 12


def test_mode1_maxima_d6(d6ctx):
    expect = {
        0: [("D", 4, 2, 2, 12, 24)],
        3: [("D", 4, 2, 2, 12, 24)],
        4: [("D", 12, 1, 12, 2, 24), ("D", 4, 2, 2, 4, 8), ("D", 4, 2, 2, 4, 8)],
        5: [("D", 12, 1, 12, 2, 24), ("D", 4, 2, 2, 4, 8), ("D", 4, 2, 2, 4, 8)],
    }
    for l, fps in expect.items():
        got = sorted(m.fingerprint() for m in maximal_orbit_types(d6ctx, 1, l))
        assert got == sorted(fps), l


def test_mode1_orbit_types_are_found_once_per_block(monkeypatch):
    # basic_degree and maximal_orbit_types ask for them at every mode and
    # conclusion of the bundled analysis; each block's are found once
    calls = []
    realised = og._realised

    def counted(cands, k, l):
        calls.append((k, l))
        return realised(cands, k, l)

    monkeypatch.setattr(og, "_realised", counted)
    run_analyze(load_config(bundled_example_path()))
    assert sorted(l for (k, l) in calls if k == 1) == [0, 3, 4, 5]
    assert len(set(calls)) == len(calls)


def test_fold_functoriality_and_invariants(d6ctx):
    for l in (0, 4):
        for cls in maximal_orbit_types(d6ctx, 1, l):
            assert fold(cls, 1) == cls
            f6 = fold(fold(cls, 2), 3)
            assert f6 == fold(cls, 6)
            f2 = fold(cls, 2)
            assert weyl_order(f2) == weyl_order(cls)
            assert fixed_dim(f2, 2, l) == fixed_dim(cls, 1, l)


def test_fold_pairs_match_mode2_maxima(d6ctx):
    for l in (3, 4, 5):
        base = maximal_orbit_types(d6ctx, 1, l)
        folded = maximal_orbit_types(d6ctx, 2, l)
        assert sorted(fold(c, 2).key for c in base) == sorted(c.key for c in folded)


def test_fold_h_part_doubles(d6ctx):
    cls = maximal_orbit_types(d6ctx, 1, 3)[0]
    # fingerprint()[1] is |H|: D2 has order 4
    assert cls.fingerprint()[1] == 4
    assert fold(cls, 2).fingerprint()[1] == 8
    d6top = next(c for c in maximal_orbit_types(d6ctx, 1, 4) if c.fingerprint()[1] == 12)
    assert fold(d6top, 2).fingerprint()[1] == 24


def test_n_count_identities(d6ctx):
    g = full_group(d6ctx)
    for l in (0, 4):
        for cls in maximal_orbit_types(d6ctx, 1, l):
            assert n_count_amalgam(cls, g) == 1
            assert n_count_amalgam(cls, cls) == 1
            assert subconjugate(cls, g)
    types = orbit_types(d6ctx, 1, 4)
    for c1 in types:
        for c2 in types:
            n = n_count_amalgam(c1, c2)
            assert (n > 0) == subconjugate(c1, c2)
            if c1 is not c2 and n:
                assert c2.size % c1.size == 0


def test_weyl_orders_of_maxima_are_two(d6ctx):
    # all top classes of the worked example have two-element Weyl groups
    for l in (0, 3, 4, 5):
        for k in (1, 2):
            for cls in maximal_orbit_types(d6ctx, k, l):
                assert weyl_order(cls) == 2


def test_odd_fixed_dims_of_maxima(d6ctx):
    for l in (0, 3, 4, 5):
        for cls in maximal_orbit_types(d6ctx, 1, l):
            assert fixed_dim(cls, 1, l) % 2 == 1


def _all_pairs_product_fin_fin(ctx, c1, c2) -> dict:
    """Reference fin x fin product: every pair of reflections is tried for
    every g in Gamma'."""
    grid = lcm(c1.grid, c2.grid)
    a_elems = {(u * grid // c1.grid, s, g) for (u, s, g) in c1.elems}
    b_elems = {(u * grid // c2.grid, s, g) for (u, s, g) in c2.elems}
    a_rot = {(u, g) for (u, s, g) in a_elems if s == 1}
    a_refl = [(u, g) for (u, s, g) in a_elems if s == -1]
    b_rot = {(u, g) for (u, s, g) in b_elems if s == 1}
    b_refl = [(u, g) for (u, s, g) in b_elems if s == -1]
    weights = {}
    for g in range(ctx.n):
        conj_g = ctx.conj[g]
        inv_tab = ctx.conj[ctx.inv[g]]
        rot_part = frozenset((u, 1, x) for (u, x) in a_rot if (u, inv_tab[x]) in b_rot)
        buckets = {}
        for (alpha, c) in a_refl:
            for (beta, b) in b_refl:
                if conj_g[b] == c:
                    buckets.setdefault((alpha - beta) % grid, []).append((alpha, -1, c))
        for refls in buckets.values():
            inter = rot_part | frozenset(refls)
            weights[inter] = weights.get(inter, 0) + 2 * len(inter)
    out = {}
    for inter, weight in weights.items():
        cls = make_fin(ctx, inter, grid)
        out[cls] = out.get(cls, 0) + weight
    total = len(a_elems) * len(b_elems)
    assert all(2 * w % total == 0 for w in out.values())
    return {cls: 2 * w // total for cls, w in out.items()}


def _coset_id_product_o2_fin(ctx, c_o2, c_fin) -> dict:
    """Reference (O(2) x K) x fin product: one g per double coset K g K_fin,
    recognised by building the whole double coset for every g."""
    out = {}
    seen = set()
    for g in range(ctx.n):
        coset_id = frozenset(
            ctx.mult[a][ctx.mult[g][b]] for a in c_o2.K for b in c_fin.k_part()
        )
        if coset_id in seen:
            continue
        seen.add(coset_id)
        target = {ctx.conj[ctx.inv[g]][x] for x in c_o2.K}
        inter = {(u, s, x) for (u, s, x) in c_fin.elems if x in target}
        if any(s == -1 for (_, s, _) in inter):
            cls = make_fin(ctx, inter, c_fin.grid)
            out[cls] = out.get(cls, 0) + 1
    return out


def test_class_product_unit_and_commutativity(d6ctx):
    g = full_group(d6ctx)
    fins = maximal_orbit_types(d6ctx, 1, 4)[:2]
    fins += [fold(c, 2) for c in maximal_orbit_types(d6ctx, 1, 3)]
    o2s = [g] + orbit_types(d6ctx, 0, 0)
    samples = o2s + fins
    for c1 in samples:
        assert class_product(g, c1) == {c1: 1}
        for c2 in samples:
            assert class_product(c1, c2) == class_product(c2, c1)
    # the O(2) product against the reference loop (the finite products are
    # checked in test_fin_products_match_the_all_g_reference)
    for c1 in fins:
        for c_o2 in o2s:
            expected = _coset_id_product_o2_fin(d6ctx, c_o2, c1)
            assert og._product_o2(d6ctx, c_o2, c1) == expected


# ---------------------------------------------------------------------------
# element codes against the tuple serialisation they replace


@pytest.fixture(scope="module")
def code_ctxs(d6ctx):
    return {
        "D6": d6ctx,
        "D4": GammaContext.from_signed_group(SignedGroup(bundled_table("D4"))),
        "S3": GammaContext.from_signed_group(SignedGroup(bundled_table("S3"))),
    }


@pytest.mark.parametrize("name", ["S3", "D4", "D6"])
def test_fin_products_match_the_all_g_reference(code_ctxs, name):
    # every pair of finite classes of the basic degrees at modes 1 and 2,
    # among them folded classes on grids > 1, whose product runs on the lcm
    # grid: one g per double coset of the rotation projections gives the
    # product of the loop over every g in Gamma', in both orders
    ctx = code_ctxs[name]
    support = sorted(
        {
            cls
            for mode in (1, 2)
            for l in range(len(ctx.chars))
            for cls in basic_degree(ctx, mode, l).coeffs
            if cls.kind == "fin"
        },
        key=lambda c: c.key,
    )
    assert len({c.grid for c in support}) > 1
    for i, c1 in enumerate(support):
        for c2 in support[i:]:
            expected = _all_pairs_product_fin_fin(ctx, c1, c2)
            assert og._product_fin_fin(ctx, c1, c2) == expected, (c1.name(), c2.name())
            assert og._product_fin_fin(ctx, c2, c1) == expected, (c1.name(), c2.name())


def _lifted(cls, grid):
    f = grid // cls.grid
    return frozenset((u * f, s, g) for (u, s, g) in cls.elems)


def _conjugate(ctx, elems, grid, kappa, shift, g):
    """Twist by kappa if asked, shift every reflection parameter by `shift`
    (a rotation by shift / (2 * grid)), then conjugate by g in Gamma'."""
    out = set()
    for (u, s, x) in elems:
        if kappa:
            u = -u % grid
        if s == -1:
            u = (u + shift) % grid
        out.add((u, s, ctx.conj[g][x]))
    return frozenset(out)


def _reference_key(ctx, elems, grid):
    """The least conjugate with an axis at 0, as sorted (numerator,
    denominator, s, g) with t = u/grid in lowest terms."""

    def turn(u):
        c = gcd(u, grid)
        return (u // c, grid // c)

    best = None
    for kappa in (False, True):
        twisted = _conjugate(ctx, elems, grid, kappa, 0, ctx.identity)
        for b in sorted({u for (u, s, _) in twisted if s == -1}) or [0]:
            for g in range(ctx.n):
                x = _conjugate(ctx, twisted, grid, False, -b, g)
                ser = tuple(sorted((*turn(u), s, y) for (u, s, y) in x))
                if best is None or ser < best:
                    best = ser
    return ("fin", best)


def _all_conjugates(ctx, elems, grid):
    """Every conjugate with its reflections on the grid, one per (twist,
    shift, g); each shift is realised by two rotations."""
    return [
        _conjugate(ctx, elems, grid, kappa, shift, g)
        for kappa in (False, True)
        for shift in range(grid)
        for g in range(ctx.n)
    ]


@pytest.mark.parametrize("name", ["D6", "D4", "S3"])
def test_canonical_keys_match_tuple_serialisation(code_ctxs, name):
    ctx = code_ctxs[name]
    rng = np.random.default_rng(5)
    for base in mode1_candidates(ctx):
        for cls in (base, fold(base, 2), fold(base, 3)):
            assert og._fin_key(ctx, cls.elems, cls.grid)[0] == _reference_key(
                ctx, cls.elems, cls.grid
            ), cls.name()
        # the key of a random conjugate, on a grid twice as fine
        grid = 2 * base.grid
        moved = _conjugate(
            ctx,
            _lifted(base, grid),
            grid,
            bool(rng.integers(2)),
            int(rng.integers(grid)),
            int(rng.integers(ctx.n)),
        )
        assert make_fin(ctx, moved, grid) is base, base.name()


def _holds_class(x):
    return isinstance(x, og.AmalgamatedClass) or (
        isinstance(x, (tuple, frozenset)) and any(map(_holds_class, x))
    )


@pytest.mark.parametrize(
    "config",
    [
        None,
        three_delay_config("D5", ["-15/2", "-13/4", "-17/3", "-1/3"]),
        three_delay_config("S4", ["-15/2", "-13/4", "-17/3", "-1/3", "-11/2"]),
        three_delay_config("D4", ["-30"] * 5),
    ],
    ids=["D6-bundled", "D5", "S4", "D4-30"],
)
def test_key_walk_matches_the_full_walk(config):
    # the key walk skips the conjugates that H's own elements repeat and
    # sorts only those whose first coset is least; its key and count must
    # be those of the full walk, for every finite class an analysis
    # interns: the bundled D6 example, D5 (an odd d has one axis orbit), S4
    # (a non-abelian Gamma') and D4 with every leading value -30 (classes
    # on grids up to 20, folded to modes 2-5)
    result = run_analyze(config or load_config(bundled_example_path()))
    ctx = result.ctx
    classes = [c for c in ctx._interned.values() if c.kind == "fin"]
    assert classes
    for cls in classes:
        walked = og._fin_key(ctx, cls.elems, cls.grid)
        assert walked == full_key_walk(ctx, cls.elems, cls.grid), cls.name()
    # `memoised` checks no argument against its context: that is sound only
    # while no key holds a class; fixed dimensions and marks are not kept
    assert ctx.memo
    assert not [key[0].__name__ for key in ctx.memo if _holds_class(key[1:])]
    assert not {"fixed_dim", "mark"} & {key[0].__name__ for key in ctx.memo}


def _signed_ctx(name):
    return GammaContext.from_signed_group(SignedGroup(bundled_table(name)))


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D8", "S4", "D12"])
def test_candidates_match_the_enumeration_over_every_pairing(name):
    # one sigma per coset <rho> sigma and one of rho, rho^-1 give the same
    # classes, in the same order and first made from the same element sets
    # (fresh contexts, so neither run sees the other's interned classes)
    got = mode1_candidates(_signed_ctx(name))
    expected = all_pairings_candidates(_signed_ctx(name))
    assert [c.key for c in got] == [c.key for c in expected]
    assert [c.elems for c in got] == [c.elems for c in expected]


@pytest.mark.parametrize("name", ["D4", "D6", "S4"])
def test_mark_matches_the_product_coefficient(name):
    # the walk counts the (double coset, bucket) terms whose meet is all of
    # c1; the oracle builds every meet of the product.  Every ordered pair
    # of a sample of the mode-1 candidates and their folds by 2 and 3, so
    # that the pairs meet on grids 1 to 6 and above
    ctx = _signed_ctx(name)
    base = mode1_candidates(ctx)[::7]
    classes = base + [fold(c, p) for c in base for p in (2, 3)]
    assert len({lcm(c1.grid, c2.grid) for c1 in classes for c2 in classes}) > 4
    positive = 0
    for c1 in classes:
        for c2 in classes:
            m = mark(c1, c2)
            assert m == product_mark(c1, c2), (c1.name(), c2.name())
            positive += m > 0
    assert positive > len(classes)


@pytest.mark.parametrize("name", ["D4", "S3"])
def test_weyl_orders_and_counts_match_brute_force(code_ctxs, name):
    ctx = code_ctxs[name]
    classes = list(mode1_candidates(ctx))
    classes += [fold(c, 2) for c in classes[:: max(1, len(classes) // 6)]]
    for cls in classes:
        fixing = sum(x == cls.elems for x in _all_conjugates(ctx, cls.elems, cls.grid))
        assert weyl_order(cls) == 2 * fixing // cls.size, cls.name()
    conjugates = {}
    for c1 in classes:
        for c2 in classes:
            grid = lcm(c1.grid, c2.grid)
            if (c2, grid) not in conjugates:
                conjugates[(c2, grid)] = set(_all_conjugates(ctx, _lifted(c2, grid), grid))
            small = _lifted(c1, grid)
            expected = sum(small <= x for x in conjugates[(c2, grid)])
            assert n_count_amalgam(c1, c2) == expected, (c1.name(), c2.name())


def _brute_mark(ctx, h, cls, conjugates):
    """mark(h, cls) = |(G/cls)^h| from conjugates, not from products.

    Into O(2) x K: the mark of h's Gamma'-part in K, from the lattice.
    Into a finite class: every conjugate of cls by an element of
    O(2) x Gamma' that can contain h has its reflections on the common
    grid, two elements per (twist, shift, g); each coset of cls is counted
    |cls| times.
    """
    lattice = ctx.lattice
    if cls.kind == "o2":
        return marks_row(lattice, lattice.class_of(cls.K))[lattice.class_of(h.k_part())]
    if h.kind == "o2":
        return 0
    grid = lcm(h.grid, cls.grid)
    if (cls, grid) not in conjugates:
        conjugates[(cls, grid)] = _all_conjugates(ctx, _lifted(cls, grid), grid)
    small = _lifted(h, grid)
    return 2 * sum(small <= x for x in conjugates[(cls, grid)]) // cls.size


@pytest.mark.parametrize(
    "name, signed",
    [("S3", True), ("D4", True), ("Z1", False), ("D1", False), ("S3", False)],
    ids=["S3-signed", "D4-signed", "Z1", "D1", "S3"],
)
def test_basic_degrees_satisfy_brute_force_marks(name, signed):
    # the basic degree of W_k (x) V_l is the element whose mark at each
    # orbit type H (and at G) is (-1)^dim Fix(H); every row at k in {0, 1}
    # over Gamma x Z2, and the trivial row at k = 0 over a plain Gamma,
    # where V^G != 0 makes G itself the only orbit type
    table = bundled_table(name)
    if signed:
        ctx = GammaContext.from_signed_group(SignedGroup(table))
        blocks = [(k, l) for k in (0, 1) for l in range(len(ctx.chars))]
    else:
        ctx = GammaContext.from_character_table(table)
        blocks = [(0, 0)]
    conjugates = {}
    for (k, l) in blocks:
        deg = basic_degree(ctx, k, l)
        for h in {full_group(ctx), *orbit_types(ctx, k, l)}:
            marks = {cls: _brute_mark(ctx, h, cls, conjugates) for cls in deg.coeffs}
            total = sum(n * marks[cls] for cls, n in deg.coeffs.items())
            assert total == (-1) ** fixed_dim(h, k, l), (name, k, l, h.name())
            assert all(mark(h, cls) == m for cls, m in marks.items()), (name, k, l, h.name())
    if not signed:
        assert basic_degree(ctx, 0, 0).render() == "-(G)"


def _cyc_fixed_dim(cls, k, l, terms_cache):
    """Reference fixed-space dimension: the mean character summed term by
    term in cyclotomic arithmetic, one Cyc product per rotation (products
    are shared through terms_cache)."""
    ctx = cls.ctx
    if cls.kind == "o2" and k >= 1:
        return 0
    if cls.kind == "o2" or k == 0:
        terms = [(0, g) for g in (cls.K if cls.kind == "o2" else cls.k_part())]
    else:
        terms = [(u, g) for (u, s, g) in cls.elems if s == 1]
    total = Cyc.rational(0)
    for (u, g) in terms:
        key = (Fraction(-k * u, cls.grid) % 1, l, g)
        term = terms_cache.get(key)
        if term is None:
            term = Cyc.root_of_unity(-k * u, cls.grid) * ctx.chars[l][g]
            terms_cache[key] = term
        total = total + term
    q = (total * Fraction(1, len(terms))).as_fraction()
    assert q.denominator == 1
    return q.numerator


@pytest.mark.parametrize("name", ["D6", "D4", "S3", "D5", "Z3"])
def test_fixed_dims_match_cyclotomic_sums(code_ctxs, name):
    # D5 has irrational characters and Z3 complex ones; every finite class
    # has a reflection, which makes the rotation phases symmetric, so the
    # sign of exp(-2*pi*i*k*t) does not show here
    ctx = code_ctxs.get(name) or GammaContext.from_signed_group(
        SignedGroup(bundled_table(name))
    )
    cases = [(make_o2(ctx, cls.rep_set), k) for cls in ctx.lattice.classes for k in (0, 1)]
    for base in mode1_candidates(ctx):
        cases += [(base, 0), (base, 1)]
        cases += [(fold(base, p), p) for p in (2, 3, 4)]
    terms_cache = {}
    for cls, k in dict.fromkeys(cases):
        for l in range(len(ctx.chars)):
            expected = _cyc_fixed_dim(cls, k, l, terms_cache)
            assert fixed_dim(cls, k, l) == expected, (cls.name(), k, l)


def _k0_orbit_classes_reference(ctx, l):
    """The k = 0 orbit types from the subgroup lattice of Gamma' alone, as
    element sets: K is realised when its fixed dimension, the mean of the
    character over K, is positive and no other class containing K has a
    fixed dimension at least as big."""

    def dim(kset):
        total = sum((ctx.chars[l][g] for g in kset), Cyc.rational(0))
        return (total * Fraction(1, len(kset))).as_integer()

    sets = [cls.rep_set for cls in ctx.lattice.classes]
    cands = [(ci, kset) for ci, kset in enumerate(sets) if dim(kset) > 0]
    out = []
    for ci, kset in cands:
        if not any(
            cj != ci and _in_a_conjugate(ctx, kset, k2) and dim(k2) >= dim(kset)
            for cj, k2 in cands
        ):
            out.append(kset)
    return out


def _in_a_conjugate(ctx, kset, k2):
    """Whether kset lies in some conjugate of k2, counted on the lattice."""
    conjugates = ctx.lattice.classes[ctx.lattice.class_of(k2)].conjugates
    return any(kset <= member for member in conjugates)


@pytest.mark.parametrize("name", ["D4", "S3", "D5", "D6", "D8", "S4"])
def test_k0_orbit_types_match_lattice_reference(code_ctxs, name):
    ctx = code_ctxs.get(name) or GammaContext.from_signed_group(
        SignedGroup(bundled_table(name))
    )
    for l in range(len(ctx.chars)):
        types = _k0_orbit_classes_reference(ctx, l)
        assert orbit_types(ctx, 0, l) == [make_o2(ctx, k) for k in types], l
        maxima = [
            k
            for k in types
            if not any(k2 != k and _in_a_conjugate(ctx, k, k2) for k2 in types)
        ]
        assert maximal_orbit_types(ctx, 0, l) == [make_o2(ctx, k) for k in maxima], l


@pytest.mark.parametrize(
    "row",
    [
        (Cyc.rational(1), Cyc.rational(0)),  # mean 1/2
        (Cyc.rational(1), Cyc.rational(Fraction(1, 2))),  # a non-integral value
        (Cyc.rational(1), Cyc.root_of_unity(1, 3)),  # an irrational sum
    ],
)
def test_fixed_dim_rejects_rows_that_are_not_characters(row):
    ctx = GammaContext(Group.from_name("Z2"), [row])
    with pytest.raises(ArithmeticError):
        fixed_dim(full_group(ctx), 0, 0)


def test_o2_products_mirror_finite_burnside_ring(d6ctx):
    # products of O(2) x K classes reduce to the Burnside ring of Gamma';
    # fixed-point marks are multiplicative, independently of the product rule
    lat = d6ctx.lattice
    sets = [cls.rep_set for cls in lat.classes]
    marks = [marks_row(lat, h) for h in range(len(sets))]
    for i in range(len(sets)):
        for j in range(i, len(sets)):
            c1, c2 = make_o2(d6ctx, sets[i]), make_o2(d6ctx, sets[j])
            got = {
                lat.class_of(cls.K): m
                for cls, m in class_product(c1, c2).items()
            }
            for l in range(len(sets)):
                rhs = sum(m * marks[h][l] for h, m in got.items())
                assert marks[i][l] * marks[j][l] == rhs, (i, j, l)


@pytest.mark.parametrize("name", ["S3", "D4", "D6"])
def test_fin_products_satisfy_the_marks_identity(code_ctxs, name):
    # marks are multiplicative (tom Dieck, Transformation Groups, IV):
    # mark(L, H) * mark(L, K) = sum_M m_M * mark(L, M) for every class L,
    # with mark(L, X) = n(L, X) * |W(X)|; checked on every pair of finite
    # classes of the basic degrees at modes 1 and 2, at each class of the
    # product and at H and K
    ctx = code_ctxs[name]
    support = sorted(
        {
            cls
            for mode in (1, 2)
            for l in range(len(ctx.chars))
            for cls in basic_degree(ctx, mode, l).coeffs
            if cls.kind == "fin"
        },
        key=lambda c: c.key,
    )
    for i, h in enumerate(support):
        for k in support[i:]:
            prod = og._product_fin_fin(ctx, h, k)
            assert og._product_fin_fin(ctx, k, h) == prod, (h.name(), k.name())
            for low in set(prod) | {h, k}:

                def mark(cls):
                    return n_count_amalgam(low, cls) * weyl_order(cls)

                rhs = sum(m * mark(cls) for cls, m in prod.items())
                assert mark(h) * mark(k) == rhs, (h.name(), k.name(), low.name())


def test_walk_tables_match_the_elements():
    # a class builds once what the products and fixed_dim read of it
    ctx = run_analyze(load_config(bundled_example_path())).ctx
    fins = [c for c in ctx._interned.values() if c.kind == "fin"]
    assert fins
    for cls in fins:
        rot, rot_k, refl_at = cls.walk
        refl = [e for es in refl_at.values() for e in es]
        assert set(rot.values()) == {e for e in cls.elems if e[1] == 1}
        assert all(code == u * ctx.n + g for code, (u, _, g) in rot.items())
        assert set(refl) == {e for e in cls.elems if e[1] == -1}
        assert rot_k == {g for (_, s, g) in cls.elems if s == 1}
        expected = {}
        for (u, s, x) in cls.elems:
            if s == -1:
                expected.setdefault(x, set()).add(u)
        assert {x: {u for (u, _, _) in es} for x, es in refl_at.items()} == expected, cls.name()
        assert all(e[2] == x for x, es in refl_at.items() for e in es)
        assert len(refl) == len(set(refl))


def test_weyl_order_walks_no_key(monkeypatch):
    # a class keeps the Weyl order its interning walk counted
    callers = []
    fin_key = og._fin_key

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return fin_key(*args)

    monkeypatch.setattr(og, "_fin_key", spy)
    result = run_analyze(load_config(bundled_example_path()))
    assert result.exit_code == 0
    assert set(callers) == {"_interned_fin"}
    assert all(weyl_order(c) >= 1 for c in result.ctx._interned.values())


def test_memo_refuses_classes_of_another_context():
    # classes of two contexts differ, but a memoised function given a mixed
    # pair would compute with the first context's tables
    ctx1, ctx2 = (
        GammaContext.from_signed_group(SignedGroup(bundled_table("S3"))) for _ in range(2)
    )
    small1, big1 = mode1_candidates(ctx1)[-1], mode1_candidates(ctx1)[0]
    small2, big2 = mode1_candidates(ctx2)[-1], mode1_candidates(ctx2)[0]
    assert small1 != small2 and big1 != big2
    for fn in (class_product, mark, subconjugate, n_count_amalgam):
        fn(small1, big1)
        for pair in ((small1, big2), (small2, big1), (big2, small1)):
            with pytest.raises(ValueError, match="different groups"):
                fn(*pair)


# ---------------------------------------------------------------------------
# numeric isotropy oracle: sample points in each candidate's fixed space and
# recompute the isotropy with explicit matrices


def _component_basis(table, l):
    """Orthonormal basis of the l-isotypic component of the natural action."""
    group = table.group
    n = group.degree
    dim = table.dims()[l]
    proj = np.zeros((n, n))
    for g in group.elements:
        row = table.rows[l][table.class_of(g)]
        chi = float(row.as_fraction())
        mat = np.zeros((n, n))
        for col in range(n):
            mat[g[col], col] = 1.0
        proj += (dim / group.order) * chi * mat
    u, s, _ = np.linalg.svd(proj)
    rank = int(round(sum(s > 1e-9)))
    return u[:, :rank]


def _real_action(ctx, table, basis, elem, grid, k):
    """Real 2d x 2d matrix of (u, s, gamma') on the complexified component,
    where the O(2)-part turns by t = u/grid."""
    u, s, gidx = elem
    gamma_part, eps = ctx.signed.parts(ctx.elems[gidx])
    n = table.group.degree
    perm = np.zeros((n, n))
    for col in range(n):
        perm[gamma_part[col], col] = 1.0
    m = basis.T @ perm @ basis * eps
    d = basis.shape[1]
    angle = -2 * np.pi * k * u / grid
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    big = np.kron(rot, m)
    if s == -1:
        conj = np.kron(np.diag([1.0, -1.0]), np.eye(d))
        big = big @ conj
    return big


def _action_table(ctx, table, basis, k):
    """Memoised _real_action for one block, keyed by (element, grid)."""
    actions = {}

    def act(elem, grid):
        mat = actions.get((elem, grid))
        if mat is None:
            mat = _real_action(ctx, table, basis, elem, grid, k)
            actions[(elem, grid)] = mat
        return mat

    return act


def _realized_by_sampling(ctx, act, cls, cands, rng, samples):
    """Sample points fixed by cls; a point is realised when no larger
    candidate containing a conjugate of cls fixes it too."""
    mats = [act(e, cls.grid) for e in cls.elems]
    proj = sum(mats) / len(mats)
    hits = []
    for _ in range(samples):
        x = proj @ rng.standard_normal(proj.shape[0])
        if np.linalg.norm(x) < 1e-9:
            continue
        fixed_by_larger = False
        for other in cands:
            if other is cls or not subconjugate(cls, other):
                continue
            grid, conjugates = _conjugates_containing(ctx, cls, other)
            for om in conjugates:
                if all(
                    np.linalg.norm(act(e, grid) @ x - x) < 1e-7 * max(1, np.linalg.norm(x))
                    for e in om
                ):
                    fixed_by_larger = True
                    break
            if fixed_by_larger:
                break
        hits.append(not fixed_by_larger)
    return any(hits)


def test_numeric_isotropy_oracle_matches_orbit_types(d6ctx):
    table = bundled_table("D6")
    rng = np.random.default_rng(7)
    for l in (0, 4):
        act = _action_table(d6ctx, table, _component_basis(table, l), 1)
        cands = [c for c in mode1_candidates(d6ctx) if fixed_dim(c, 1, l) > 0]
        realized = set(orbit_types(d6ctx, 1, l))
        for cls in cands:
            sample_realized = _realized_by_sampling(d6ctx, act, cls, cands, rng, 4)
            assert sample_realized == (cls in realized), (l, cls.name())


def _conjugates_containing(ctx, small, big):
    """The conjugates of big that contain small, with both written on the
    lcm of their grids; returns that grid and the conjugates."""
    grid = lcm(small.grid, big.grid)
    small_elems = {(u * grid // small.grid, s, g) for (u, s, g) in small.elems}
    big_elems = {(u * grid // big.grid, s, g) for (u, s, g) in big.elems}
    a1 = min(u for (u, s, _) in small.elems if s == -1) * grid // small.grid
    out = []
    for g in range(ctx.n):
        base = {(u, s, ctx.conj[g][x]) for (u, s, x) in big_elems}
        for kappa in (1, -1):
            tw = {(kappa * u % grid, s, x) for (u, s, x) in base}
            for b in sorted({u for (u, s, _) in tw if s == -1}):
                cand = _conjugate(ctx, tw, grid, False, a1 - b, ctx.identity)
                if small_elems <= cand:
                    out.append(cand)
    return grid, out


def test_numeric_isotropy_oracle_mode_two(d6ctx):
    # folded classes: same oracle at k = 2 on one block
    table = bundled_table("D6")
    rng = np.random.default_rng(13)
    l = 4
    act = _action_table(d6ctx, table, _component_basis(table, l), 2)
    cands = [fold(c, 2) for c in mode1_candidates(d6ctx) if fixed_dim(c, 1, l) > 0]
    realized = set(orbit_types(d6ctx, 2, l))
    for cls in cands:
        sample_realized = _realized_by_sampling(d6ctx, act, cls, cands, rng, 3)
        assert sample_realized == (cls in realized), (l, cls.name())


def test_orbit_types_refuse_a_negative_mode():
    ctx = GammaContext.from_signed_group(SignedGroup(bundled_table("D3")))
    for orbit_types_of in (orbit_types, maximal_orbit_types):
        with pytest.raises(ValueError, match="k must be >= 0"):
            orbit_types_of(ctx, -1, 0)
