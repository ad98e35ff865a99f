from math import gcd, lcm

import numpy as np
import pytest

from eqdeg import o2gamma as og
from eqdeg.chartab import SignedGroup, bundled_table
from eqdeg.o2gamma import (
    GammaContext,
    InfiniteWeylError,
    class_product,
    enumerate_candidate_classes,
    fixed_dim,
    fold,
    full_group,
    make_fin,
    make_o2,
    maximal_orbit_types,
    mode1_candidates,
    n_count_amalgam,
    orbit_types,
    subconjugate,
    weyl_is_finite,
    weyl_order,
)

@pytest.fixture(scope="module")
def trivctx():
    # a bare trivial finite factor: the ambient group is just O(2)
    return GammaContext.from_character_table(bundled_table("Z1"))


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
    assert weyl_is_finite(g)
    assert fixed_dim(g, 1, 4) == 0


def test_rotation_only_class_has_infinite_weyl(d6ctx):
    e = d6ctx.identity
    cyc = make_fin(d6ctx, {(0, 1, e), (1, 1, e)}, 2)
    assert not weyl_is_finite(cyc)
    with pytest.raises(InfiniteWeylError):
        weyl_order(cyc)


def test_d6_candidate_enumeration_includes_expected_shapes(d6ctx):
    cands = enumerate_candidate_classes(d6ctx, 1, 4)
    kinds = {(c.h_part(), c.l_order()) for c in cands}
    assert (("D", 2), 2) in kinds  # H = D2 pairing a Z2 quotient
    assert (("D", 6), 12) in kinds  # H = D6 pairing a full dihedral quotient
    for c in cands:
        assert weyl_is_finite(c)
        assert fixed_dim(c, 1, 4) > 0


def test_k0_candidates_are_products_with_o2(d6ctx):
    cands = enumerate_candidate_classes(d6ctx, 0, 0)
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
    assert cls.h_part() == ("D", 2)
    assert fold(cls, 2).h_part() == ("D", 4)
    d6top = next(c for c in maximal_orbit_types(d6ctx, 1, 4) if c.h_part() == ("D", 6))
    assert fold(d6top, 2).h_part() == ("D", 12)


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
                assert c2.order % c1.order == 0


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
    # class_product caches on the sorted key pair, so call the products
    # themselves in both orders and against the reference loops
    for c1 in fins:
        for c2 in fins:
            expected = _all_pairs_product_fin_fin(d6ctx, c1, c2)
            assert og._product_fin_fin(d6ctx, c1, c2) == expected
            assert og._product_fin_fin(d6ctx, c2, c1) == expected
        for c_o2 in o2s:
            expected = _coset_id_product_o2_fin(d6ctx, c_o2, c1)
            assert og._product_o2_fin(d6ctx, c_o2, c1) == expected


# ---------------------------------------------------------------------------
# element codes against the tuple serialisation they replace


@pytest.fixture(scope="module")
def code_ctxs(d6ctx):
    return {
        "D6": d6ctx,
        "D4": GammaContext.from_signed_group(SignedGroup(bundled_table("D4"))),
        "S3": GammaContext.from_signed_group(SignedGroup(bundled_table("S3"))),
    }


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
            assert og._fin_key(ctx, cls.elems, cls.grid) == _reference_key(
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


@pytest.mark.parametrize("name", ["D4", "S3"])
def test_weyl_orders_and_counts_match_brute_force(code_ctxs, name):
    ctx = code_ctxs[name]
    classes = list(mode1_candidates(ctx))
    classes += [fold(c, 2) for c in classes[:: max(1, len(classes) // 6)]]
    for cls in classes:
        fixing = sum(x == cls.elems for x in _all_conjugates(ctx, cls.elems, cls.grid))
        assert weyl_order(cls) == 2 * fixing // cls.order, cls.name()
    conjugates = {}
    for c1 in classes:
        for c2 in classes:
            grid = lcm(c1.grid, c2.grid)
            if (c2, grid) not in conjugates:
                conjugates[(c2, grid)] = set(_all_conjugates(ctx, _lifted(c2, grid), grid))
            small = _lifted(c1, grid)
            expected = sum(small <= x for x in conjugates[(c2, grid)])
            assert n_count_amalgam(c1, c2) == expected, (c1.name(), c2.name())


def test_o2_products_mirror_finite_burnside_ring(d6ctx):
    # products of O(2) x K classes reduce to the Burnside ring of Gamma'
    from eqdeg.burnside import mult_classes

    lat = d6ctx.lattice
    sets = d6ctx.class_sets()
    for i in (0, 3, 8):
        for j in (0, 5):
            c1, c2 = make_o2(d6ctx, sets[i]), make_o2(d6ctx, sets[j])
            got = {
                d6ctx.subgroup_class_index(cls.K): m
                for cls, m in class_product(c1, c2).items()
            }
            expected = mult_classes(lat, i, j).coeffs
            assert got == expected, (i, j)


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
    a1 = small.axes()[0] * grid // small.grid
    out = []
    for g in range(ctx.n):
        base = {(u, s, ctx.conj[g][x]) for (u, s, x) in big_elems}
        for kappa in (False, True):
            tw = og._kappa_conj(base, grid) if kappa else base
            for b in sorted({u for (u, s, _) in tw if s == -1}):
                cand = og._shift_refl(tw, a1 - b, grid)
                if small_elems <= cand:
                    out.append(cand)
    return grid, out


def test_numeric_isotropy_oracle_mode_two(d6ctx):
    # folded classes: same oracle at k = 2 on one block
    table = bundled_table("D6")
    rng = np.random.default_rng(13)
    l = 4
    act = _action_table(d6ctx, table, _component_basis(table, l), 2)
    cands = [c for c in enumerate_candidate_classes(d6ctx, 2, l)]
    realized = set(orbit_types(d6ctx, 2, l))
    for cls in cands:
        sample_realized = _realized_by_sampling(d6ctx, act, cls, cands, rng, 3)
        assert sample_realized == (cls in realized), (l, cls.name())
