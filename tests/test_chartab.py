import re
from fractions import Fraction

import pytest

from eqdeg.chartab import (
    CharacterError,
    SignedGroup,
    bundled_table,
    fixed_space_dim,
    isotypic_multiplicities,
    permutation_character,
    table_from_json,
)
from eqdeg.permgroup import Group, subgroup_lattice

from conftest import Q8_GENERATORS, Q8_TABLE, perm_closure


def rows_as_ints(table):
    return [tuple(v.as_integer() for v in row) for row in table.rows]


def test_d6_table_exact():
    t = bundled_table("D6")
    assert rows_as_ints(t) == [
        (1, 1, 1, 1, 1, 1),
        (1, -1, -1, 1, 1, -1),
        (1, -1, 1, 1, -1, 1),
        (1, 1, -1, 1, -1, -1),
        (2, 0, 1, -1, 0, -2),
        (2, 0, -1, -1, 0, 2),
    ]
    assert t.class_sizes == (1, 3, 2, 2, 3, 1)
    assert all(t.real_type)


def test_bundled_tables_orthonormal():
    for name in ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z12", "D1", "D2", "D3",
                 "D4", "D5", "D6", "D8", "D12", "S3", "S4"]:
        bundled_table(name).check_orthonormal()


def test_z2_and_z1_rows():
    z2 = bundled_table("Z2")
    assert rows_as_ints(z2) == [(1, 1), (1, -1)]
    z1 = bundled_table("Z1")
    assert rows_as_ints(z1) == [(1,)]


def test_real_type_flags():
    z5 = bundled_table("Z5")
    assert z5.real_type == (True, False, False, False, False)
    # the Frobenius-Schur indicator gives the flags the bundled constructors
    # used to list by hand: row j of Zn is real exactly when j = 0 or 2j = n,
    # and every row of Dn, S3 and S4 is real
    for n in range(1, 13):
        assert bundled_table(f"Z{n}").real_type == tuple(
            j == 0 or 2 * j == n for j in range(n)
        )
    for name in [f"D{n}" for n in range(1, 13)] + ["S3", "S4"]:
        assert all(bundled_table(name).real_type), name


def test_quaternionic_row_is_not_real_type():
    q8 = Group.make(Q8_GENERATORS)
    table = table_from_json(q8, Q8_TABLE)
    assert table.real_type == (True, True, True, True, False)
    assert table_from_json(q8, {**Q8_TABLE, "real_type": list(table.real_type)})
    with pytest.raises(CharacterError, match="Frobenius-Schur"):
        table_from_json(q8, {**Q8_TABLE, "real_type": [True] * 5})


def test_hexagon_character_and_multiplicities():
    t = bundled_table("D6")
    chi = permutation_character(t)
    assert chi == (6, 2, 0, 0, 0, 0)
    dec = isotypic_multiplicities(chi, t)
    assert dec.multiplicities == (1, 0, 0, 1, 1, 1)
    assert sum(m * d for m, d in zip(dec.multiplicities, dec.dims)) == 6


def test_trivial_and_regular_characters():
    t = bundled_table("D6")
    trivial = (1,) * 6
    assert isotypic_multiplicities(trivial, t).multiplicities == (1, 0, 0, 0, 0, 0)
    regular = (12, 0, 0, 0, 0, 0)
    assert isotypic_multiplicities(regular, t).multiplicities == t.dims()


def test_inconsistent_character_rejected():
    t = bundled_table("D6")
    with pytest.raises(CharacterError):
        isotypic_multiplicities((1, 0, 0, 0, 0, 0), t)


def test_fixed_space_dims():
    t = bundled_table("D6")
    g = t.group
    chi = permutation_character(t)
    assert fixed_space_dim(t, chi, g.elements) == 1
    assert fixed_space_dim(t, chi, [g.identity]) == 6
    rot = perm_closure(g, {t.class_reps[2]})
    assert len(rot) == 6
    chi5 = t.rows[4]
    assert fixed_space_dim(t, chi5, rot) == 0


def exact_projector_rank(group, subgroup):
    """Oracle: rank over Q of the averaged permutation-matrix projector."""
    n = group.degree
    m = [[Fraction(0)] * n for _ in range(n)]
    for h in subgroup:
        for col in range(n):
            m[h[col]][col] += Fraction(1, len(subgroup))
    # gaussian elimination
    rank = 0
    rows = [row[:] for row in m]
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_fixed_dim_matches_projector_rank_on_all_d6_subgroups():
    t = bundled_table("D6")
    chi = permutation_character(t)
    lat = subgroup_lattice(t.group)
    for cls in lat.classes:
        for member in cls.conjugates:
            perms = [t.group.elements[x] for x in member]
            assert fixed_space_dim(t, chi, perms) == exact_projector_rank(t.group, perms)


def test_table_from_json_roundtrip():
    g = Group.from_name("Z2")
    payload = {
        "class_reps": ["()", "(1 2)"],
        "class_sizes": [1, 1],
        "rows": [["1", "1"], ["1", "-1"]],
    }
    t = table_from_json(g, payload)
    assert rows_as_ints(t) == [(1, 1), (1, -1)]
    # integer sizes are read exactly, in any of the forms of a table value
    for sizes in (["1", "1"], [1.0, 1], ["1", 1.0]):
        assert table_from_json(g, {**payload, "class_sizes": sizes}).class_sizes == (1, 1)
    bad = {
        "class_reps": ["()", "(1 2)"],
        "class_sizes": [1, 1],
        "rows": [["1", "1"], ["1", "1"]],
    }
    with pytest.raises(CharacterError):
        table_from_json(g, bad)


def test_signed_group_structure():
    sg = SignedGroup(bundled_table("D6"))
    assert sg.group.order == 24
    # chi_1 tensor sign takes value -1 exactly on flipped elements
    vals = {sg.signed_char(0, g).as_integer() for g in sg.group.elements}
    assert vals == {1, -1}
    flipped = [g for g in sg.group.elements if sg.parts(g)[1] == -1]
    assert len(flipped) == 12
    for g in flipped:
        assert sg.signed_char(0, g).as_integer() == -1


def test_class_lookup_survives_freed_tables():
    # tables are built and freed in turn, so a new table may take the
    # address of a freed one; its class lookup must still be its own
    for i in range(100):
        table = bundled_table("D4" if i % 2 == 0 else "Z8")
        for g in table.group.elements:
            assert 0 <= table.class_of(g) < len(table.class_reps)
        del table


@pytest.mark.parametrize("name", ["D6", " D6 ", "D06", "S4", "Z12"])
def test_preset_names_read_alike_where_accepted(name):
    # Group.from_name and bundled_table read a name through one grammar
    assert bundled_table(name).group.elements == Group.from_name(name).elements


@pytest.mark.parametrize("name", ["Dx", "D+3", "D 3", "Z_3", "d6", "Q8", "Z0"])
def test_preset_names_refused_alike(name):
    message = "group parameter must be >= 1" if name == "Z0" else f"unknown group preset: {name!r}"
    for read in (Group.from_name, bundled_table):
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            read(name)
        assert not isinstance(err.value, CharacterError)


@pytest.mark.parametrize("name", ["D13", "S5"])
def test_preset_without_a_bundled_table(name):
    assert Group.from_name(name).order
    with pytest.raises(CharacterError, match=f"no bundled table for {name}"):
        bundled_table(name)
