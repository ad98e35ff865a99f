import itertools

import pytest

from eqdeg.chartab import SignedGroup, bundled_table
from eqdeg.o2gamma import GammaContext, make_o2, n_count_amalgam
from eqdeg.permgroup import (
    Group,
    GroupTooLargeError,
    SubgroupClass,
    _class_names,
    p_conj,
    p_inv,
    p_mul,
    parse_cycles,
    subgroup_lattice,
)

from conftest import perm_closure


def indices(group, perms):
    """A set of permutations as the element indices the lattice uses."""
    return frozenset(group.index[x] for x in perms)


def perms_of(group, sub):
    """A set of element indices as permutations."""
    return frozenset(group.elements[x] for x in sub)


def o2_lattice_counts(group):
    """The lattice of a plain context over the group, and n(H, K) for every
    pair of its classes, read off the Burnside products of O(2) x H and
    O(2) x K (`n_count_amalgam`)."""
    ctx = GammaContext(group, [])
    gens = [make_o2(ctx, cls.rep_set) for cls in ctx.lattice.classes]
    return ctx.lattice, [[n_count_amalgam(h, k) for k in gens] for h in gens]


def all_subgroups(group):
    """Every subgroup as element indices, from the lattice's classes."""
    return {member for c in subgroup_lattice(group).classes for member in c.conjugates}


def brute_force_subgroups(group):
    """Oracle: all subgroups as closures of <= 2-element generating sets.

    Valid for the groups used here (every subgroup of D6, S4, Z6... is
    2-generated).
    """
    subs = {frozenset([group.identity])}
    for a in group.elements:
        subs.add(perm_closure(group, {a}))
        for b in group.elements:
            subs.add(perm_closure(group, {a, b}))
    return subs


def brute_force_subsets(group):
    """Oracle for small groups: every subset closed under multiplication."""
    subs = set()
    elems = list(group.elements)
    for r in range(1, len(elems) + 1):
        if len(elems) % r:
            continue
        for combo in itertools.combinations(elems, r):
            s = frozenset(combo)
            if group.identity in s and all(p_mul(a, b) in s for a in s for b in s):
                subs.add(s)
    return subs


def test_parse_and_print_cycles():
    p = parse_cycles("(1 2 3 4 5 6)")
    assert p == (1, 2, 3, 4, 5, 0)
    assert parse_cycles("(2 6)(3 5)", degree=6) == (0, 5, 4, 3, 2, 1)
    assert parse_cycles("()", degree=3) == (0, 1, 2)


def test_make_group_d6():
    g = Group.make(["(1 2 3 4 5 6)", "(2 6)(3 5)"])
    assert g.order == 12
    assert g.degree == 6


def test_make_group_trivial_and_involution():
    t = Group.make(["()"])
    assert t.order == 1
    z2 = Group.make(["(1 2)"])
    assert z2.order == 2


def test_group_cap():
    with pytest.raises(GroupTooLargeError):
        Group.make(["(1 2 3 4 5)", "(1 2)"], cap=30)  # S5 has order 120


def test_presets():
    assert Group.from_name("Z6").order == 6
    assert Group.from_name("D6").order == 12
    assert Group.from_name("S4").order == 24
    assert Group.from_name("Z1").order == 1
    assert Group.from_name("D1").order == 2


def test_d6_lattice_counts():
    g = Group.from_name("D6")
    lat = subgroup_lattice(g)
    # dihedral group of order 12: 16 subgroups in 10 conjugacy classes
    assert sum(c.class_size for c in lat.classes) == 16
    assert len(lat.classes) == 10
    assert lat.classes[0].order == 1 and lat.classes[-1].order == 12
    # classes sorted by order
    orders = [c.order for c in lat.classes]
    assert orders == sorted(orders)


def test_d6_subgroups_match_subset_oracle():
    g = Group.from_name("D6")
    assert all_subgroups(g) == {indices(g, s) for s in brute_force_subsets(g)}


def test_lattice_matches_two_generator_oracle():
    for name in ("S4", "Z6", "S3"):
        g = Group.from_name(name)
        assert all_subgroups(g) == {indices(g, s) for s in brute_force_subgroups(g)}


def test_s4_class_count():
    lat = subgroup_lattice(Group.from_name("S4"))
    assert len(lat.classes) == 11
    assert sum(c.class_size for c in lat.classes) == 30


def test_trivial_and_z2_lattices():
    assert len(subgroup_lattice(Group.from_name("Z1")).classes) == 1
    assert len(subgroup_lattice(Group.from_name("Z2")).classes) == 2


def test_weyl_orders_d6():
    g = Group.from_name("D6")
    lat = subgroup_lattice(g)
    whole = lat.class_of(indices(g, g.elements))
    triv = lat.class_of(indices(g, [g.identity]))
    rot = lat.class_of(indices(g, perm_closure(g, {parse_cycles("(1 2 3 4 5 6)")})))
    assert lat.classes[whole].weyl_order == 1
    assert lat.classes[triv].weyl_order == 12
    assert lat.classes[rot].weyl_order == 2


def test_n_counts_d6():
    g = Group.from_name("D6")
    lat, counts = o2_lattice_counts(g)
    kappa = lat.class_of(indices(g, perm_closure(g, {parse_cycles("(2 6)(3 5)", 6)})))
    whole = lat.class_of(indices(g, g.elements))
    triv = lat.class_of(indices(g, [g.identity]))
    # the order-4 class {1, r^3, kappa r^i, kappa r^(i+3)}
    d2 = next(i for i, c in enumerate(lat.classes) if c.order == 4)
    assert counts[kappa][d2] == 1
    for h in range(len(lat.classes)):
        assert counts[h][whole] == 1
        assert counts[triv][h] == lat.classes[h].class_size
        assert counts[h][h] == 1


def test_leq_matches_brute_force_embedding():
    for name in ("D6", "S3"):
        g = Group.from_name(name)
        lat, counts = o2_lattice_counts(g)
        for i, ci in enumerate(lat.classes):
            for j, cj in enumerate(lat.classes):
                expected = any(
                    frozenset(p_conj(x, h) for h in perms_of(g, ci.rep_set))
                    <= perms_of(g, cj.rep_set)
                    for x in g.elements
                )
                assert (counts[i][j] > 0) == expected, (name, i, j)


def test_nHK_matches_direct_counting():
    g = Group.from_name("D6")
    lat, counts = o2_lattice_counts(g)
    for i, ci in enumerate(lat.classes):
        for j, cj in enumerate(lat.classes):
            direct = sum(1 for member in cj.conjugates if ci.rep_set <= member)
            assert counts[i][j] == direct


def test_class_names_unique():
    lat = subgroup_lattice(Group.from_name("D6"))
    names = [c.name for c in lat.classes]
    assert len(set(names)) == len(names)
    assert "Z6" in names and "D6" in names


def test_nHK_against_element_counting_oracle():
    # independent formula: n(H, K) = #{g : g H g^-1 <= K_rep} / |N(K)|
    for name in ("D6", "S3"):
        g = Group.from_name(name)
        lat, counts = o2_lattice_counts(g)
        for i, ci in enumerate(lat.classes):
            for j, cj in enumerate(lat.classes):
                h_perms, k_perms = perms_of(g, ci.rep_set), perms_of(g, cj.rep_set)
                count = sum(
                    1 for x in g.elements if all(p_conj(x, h) in k_perms for h in h_perms)
                )
                assert count % cj.normalizer_order == 0
                assert counts[i][j] == count // cj.normalizer_order


def tuple_lattice(group):
    """Oracle: the subgroup lattice computed on permutation tuples.

    Subgroups by cyclic extension closed with p_mul, conjugacy classes and
    normalizers by conjugating element by element, classes sorted by
    (order, sorted representative), n(H, K) by counting conjugates;
    returns (classes, nHK, sizes), the classes with their subgroups
    written as element indices and sizes their (class size, Weyl order).
    """
    trivial = frozenset([group.identity])
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in group.elements:
                if g not in sub:
                    ext = perm_closure(group, sub | {g})
                    if ext not in found:
                        found.add(ext)
                        nxt.append(ext)
        frontier = nxt
    remaining = set(found)
    perm_classes = []  # (conjugates, normalizer order)
    while remaining:
        sub = min(remaining, key=lambda s: (len(s), sorted(s)))
        orbit = {frozenset(p_conj(g, x) for x in sub) for g in group.elements}
        remaining -= orbit
        members = tuple(sorted(orbit, key=sorted))
        rep = members[0]
        n_order = sum(
            1 for g in group.elements if all(p_conj(g, x) in rep for x in rep)
        )
        perm_classes.append((members, n_order))
    perm_classes.sort(key=lambda c: (len(c[0][0]), sorted(c[0][0])))
    classes = [
        SubgroupClass(tuple(indices(group, m) for m in members), n_order)
        for members, n_order in perm_classes
    ]
    for cls, name in zip(classes, _class_names(group, classes)):
        object.__setattr__(cls, "name", name)
    nHK = [
        [
            0
            if len(k_members[0]) % len(h_members[0])
            else sum(1 for member in k_members if h_members[0] <= member)
            for k_members, _ in perm_classes
        ]
        for h_members, _ in perm_classes
    ]
    sizes = [(len(members), n_order // len(members[0])) for members, n_order in perm_classes]
    return classes, nHK, sizes


@pytest.mark.parametrize("name", ["D6", "D8", "D12", "S4", "Z6", "D6xZ2"])
def test_lattice_matches_permutation_tuple_oracle(name):
    if name == "D6xZ2":
        group = SignedGroup(bundled_table("D6")).group
    else:
        group = Group.from_name(name)
    lat, counts = o2_lattice_counts(group)
    classes, nHK, sizes = tuple_lattice(group)
    assert lat.classes == classes  # conjugates, normalizer orders, names
    assert [(c.class_size, c.weyl_order) for c in lat.classes] == sizes
    assert counts == nHK
    # the lattice takes each class's least member from this order
    masks = group.subgroup_masks()
    assert [frozenset(x for x in range(group.order) if m >> x & 1) for m in masks] == sorted(
        {m for c in classes for m in c.conjugates}, key=lambda s: (len(s), sorted(s))
    )


def test_index_tables_match_permutations():
    # the tables are built on first use, not by Group.make
    assert "mult_table" not in vars(Group.from_name("S5"))
    group = SignedGroup(bundled_table("D4")).group
    elems = group.elements
    for a, x in enumerate(elems):
        assert elems[group.inv_table[a]] == p_inv(x)
        for b, y in enumerate(elems):
            assert elems[group.mult_table[a][b]] == p_mul(x, y)
            assert elems[group.conj_table[a][b]] == p_conj(x, y)


@pytest.mark.parametrize("name", ["D6", "S4"])
def test_double_coset_reps_are_least_and_partition(name):
    # every double coset A g B of two class representatives, built from
    # permutations: the representatives are their least elements, ascending,
    # and the double cosets partition the group
    group = Group.from_name(name)
    elems, index = group.elements, group.index
    subs = [sorted(c.rep_set) for c in subgroup_lattice(group).classes]
    for a, b in itertools.product(subs, repeat=2):
        reps = list(group.double_coset_reps(a, b))
        cosets = [
            {index[p_mul(p_mul(elems[x], elems[g]), elems[y])] for x in a for y in b}
            for g in reps
        ]
        assert reps == sorted(reps)
        assert [min(c) for c in cosets] == reps
        assert sum(map(len, cosets)) == group.order
        assert set().union(*cosets) == set(range(group.order))
