"""Character tables, isotypic decompositions, and fixed-space dimensions.

Tables are inputs, not computed by a general algorithm: the bundled
constructors cover Z<n>, D<n> (n <= 12), S3 and S4 with exact entries, and
user tables can be loaded from JSON.  All inner products are exact; any
value that has to be an integer is extracted with a hard check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .cyclotomic import Cyc
from .permgroup import Group, Perm, p_conj, p_mul, parse_cycles, parse_preset, subgroup_lattice


class CharacterError(ValueError):
    pass


@dataclass(frozen=True)
class CharacterTable:
    group: Group
    class_reps: tuple[Perm, ...]
    class_sizes: tuple[int, ...]
    rows: tuple[tuple[Cyc, ...], ...]

    def __post_init__(self):
        if sum(self.class_sizes) != self.group.order:
            raise CharacterError("class sizes do not sum to the group order")

    @property
    def n_irreps(self) -> int:
        return len(self.rows)

    def dims(self) -> tuple[int, ...]:
        return tuple(row[0].as_integer() for row in self.rows)

    def class_of(self, g: Perm) -> int:
        return self._class_lookup[g]

    @cached_property
    def _class_lookup(self) -> dict:
        group = self.group
        lut = {}
        for idx, rep in enumerate(self.class_reps):
            for g in group.elements:
                lut[p_conj(g, rep)] = idx
        if len(lut) != group.order:
            raise CharacterError("class representatives do not cover the group")
        return lut

    @cached_property
    def real_type(self) -> tuple[bool, ...]:
        """Whether each row is of real type: its Frobenius-Schur indicator
        (1/|G|) sum chi(g^2) is 1 (it is 0 for complex, -1 for
        quaternionic type)."""
        group = self.group
        squares = [self.class_of(p_mul(g, g)) for g in group.elements]
        flags = []
        for row in self.rows:
            total = sum((row[c] for c in squares), Cyc.rational(0))
            flags.append(total == Cyc.rational(group.order))
        return tuple(flags)

    def inner(self, chi: tuple, psi: tuple) -> Fraction:
        """<chi, psi> = (1/|G|) sum size * chi * conj(psi); must be rational."""
        total = Cyc.rational(0)
        for size, a, b in zip(self.class_sizes, chi, psi):
            a = a if isinstance(a, Cyc) else Cyc.rational(a)
            b = b if isinstance(b, Cyc) else Cyc.rational(b)
            total = total + a * b.conjugate() * size
        total = total * Fraction(1, self.group.order)
        if not total.is_rational():
            raise CharacterError("inner product is not rational")
        return total.as_fraction()

    def check_orthonormal(self) -> None:
        for i in range(self.n_irreps):
            for j in range(self.n_irreps):
                expected = Fraction(1 if i == j else 0)
                if self.inner(self.rows[i], self.rows[j]) != expected:
                    raise CharacterError(f"rows {i}, {j} are not orthonormal")


@dataclass(frozen=True)
class IsotypicDecomposition:
    multiplicities: tuple[int, ...]
    dims: tuple[int, ...]


def permutation_character(table: CharacterTable, action=None) -> tuple[int, ...]:
    """Fixed-point character of a permutation action, one value per class.

    ``action`` maps a group element to the permutation it acts by; the
    default is the group's own action on {1..degree}.
    """
    if action is None:
        action = lambda g: g
    return tuple(
        sum(1 for i, x in enumerate(action(rep)) if x == i) for rep in table.class_reps
    )


def isotypic_multiplicities(chi, table: CharacterTable) -> IsotypicDecomposition:
    mults = []
    for row in table.rows:
        q = table.inner(chi, row)
        if q.denominator != 1 or q < 0:
            raise CharacterError(f"character inconsistent with table: <chi,row> = {q}")
        mults.append(q.numerator)
    return IsotypicDecomposition(tuple(mults), table.dims())


def fixed_space_dim(table: CharacterTable, chi, subgroup) -> int:
    """dim of the subgroup-fixed subspace: average of chi over the subgroup."""
    total = Cyc.rational(0)
    for h in subgroup:
        v = chi[table.class_of(h)]
        total = total + (v if isinstance(v, Cyc) else Cyc.rational(v))
    total = total * Fraction(1, len(subgroup))
    if not total.is_rational():
        raise CharacterError("not a character: averaged value is irrational")
    q = total.as_fraction()
    if q.denominator != 1:
        raise CharacterError(f"not a character: fixed dimension {q}")
    return q.numerator


# ---------------------------------------------------------------------------
# bundled tables


def bundled_table(name: str) -> CharacterTable:
    """The table of a preset name (`parse_preset`) that has one."""
    kind, n = parse_preset(name)
    # D1 is Z2 on two points and S3 is D3 on three, their rows in one order.
    # The table keeps its own group: a config's images follow its generators.
    alias = {("D", 1): "Z2", ("S", 3): "D3"}.get((kind, n))
    if alias is not None:
        return replace(bundled_table(alias), group=Group.from_name(f"{kind}{n}"))
    if kind == "Z" and n <= 12:
        return _cyclic(n)
    if kind == "D" and n <= 12:
        return _dihedral(n)
    if (kind, n) == ("S", 4):
        return _symmetric4()
    raise CharacterError(f"no bundled table for {name.strip()}")


def _cyclic(n: int) -> CharacterTable:
    g = Group.from_name(f"Z{n}")
    if n == 1:
        return CharacterTable(g, (g.identity,), (1,), ((Cyc.rational(1),),))
    gen = tuple((i + 1) % n for i in range(n))
    reps = []
    x = g.identity
    for _ in range(n):
        reps.append(x)
        x = p_mul(gen, x)
    rows = tuple(
        tuple(Cyc.root_of_unity(j * a, n) for a in range(n)) for j in range(n)
    )
    return CharacterTable(g, tuple(reps), (1,) * n, rows)


def _dihedral(n: int) -> CharacterTable:
    g = Group.from_name(f"D{n}")
    if n == 2:
        rot = next(x for x in g.elements if x[:2] == (1, 0) and x[2:] == (2, 3))
        refl = next(x for x in g.elements if x[:2] == (0, 1) and x[2:] == (3, 2))
        both = p_mul(rot, refl)
        reps = (g.identity, rot, refl, both)
        one = Cyc.rational(1)
        neg = Cyc.rational(-1)
        rows = ((one,) * 4, (one, neg, one, neg), (one, one, neg, neg), (one, neg, neg, one))
        return CharacterTable(g, reps, (1, 1, 1, 1), rows)
    rot = parse_cycles("(" + " ".join(str(i + 1) for i in range(n)) + ")")
    refl = tuple((-i) % n for i in range(n))  # fixes vertex 1
    rots = [g.identity]
    for _ in range(n - 1):
        rots.append(p_mul(rot, rots[-1]))
    one = Cyc.rational(1)
    neg = Cyc.rational(-1)
    if n % 2:
        reps = [g.identity] + [rots[a] for a in range(1, (n + 1) // 2)] + [refl]
        sizes = [1] + [2] * ((n - 1) // 2) + [n]
        rows = [tuple([one] * len(reps))]
        rows.append(tuple([one] * ((n + 1) // 2) + [neg]))
        for j in range(1, (n - 1) // 2 + 1):
            row = [Cyc.rational(2)]
            for a in range(1, (n + 1) // 2):
                row.append(Cyc.root_of_unity(j * a, n) + Cyc.root_of_unity(-j * a, n))
            row.append(Cyc.rational(0))
            rows.append(tuple(row))
    else:
        # class order: (1), (k), (r), ..., (r^(n/2-1)), (rk), (r^(n/2))
        half = n // 2
        reps = [g.identity, refl] + [rots[a] for a in range(1, half)]
        reps += [p_mul(rots[1], refl), rots[half]]
        sizes = [1, half] + [2] * (half - 1) + [half, 1]
        # linear characters: k -> e1, r -> e2
        def linear(e1, e2):
            row = [one, Cyc.rational(e1)]
            row += [Cyc.rational(e2**a) for a in range(1, half)]
            row.append(Cyc.rational(e1 * e2))
            row.append(Cyc.rational(e2**half))
            return tuple(row)

        rows = [linear(1, 1), linear(-1, -1), linear(-1, 1), linear(1, -1)]
        for j in range(1, half):
            row = [Cyc.rational(2), Cyc.rational(0)]
            row += [
                Cyc.root_of_unity(j * a, n) + Cyc.root_of_unity(-j * a, n)
                for a in range(1, half)
            ]
            row.append(Cyc.rational(0))
            row.append(Cyc.root_of_unity(j * half, n) * 2)
            rows.append(tuple(row))
    return CharacterTable(g, tuple(reps), tuple(sizes), tuple(rows))


def _symmetric4() -> CharacterTable:
    g = Group.from_name("S4")
    reps = (
        g.identity,
        parse_cycles("(1 2)", 4),
        parse_cycles("(1 2)(3 4)", 4),
        parse_cycles("(1 2 3)", 4),
        parse_cycles("(1 2 3 4)", 4),
    )
    r = Cyc.rational
    rows = (
        (r(1), r(1), r(1), r(1), r(1)),
        (r(1), r(-1), r(1), r(1), r(-1)),
        (r(2), r(0), r(2), r(-1), r(0)),
        (r(3), r(1), r(-1), r(0), r(-1)),
        (r(3), r(-1), r(-1), r(0), r(1)),
    )
    return CharacterTable(g, reps, (1, 6, 3, 8, 6), rows)


def _class_size(value) -> int:
    """A class size read exactly, as the table's values are: an integer
    (3, "3" or 3.0), not a fraction (3.9 or "3.5") and not a bool."""
    try:
        size = Fraction(str(value))
    except ValueError:
        size = None
    if size is None or size.denominator != 1:
        raise CharacterError(f"class size {value!r} is not an integer")
    return int(size)


def table_from_json(group: Group, data: dict) -> CharacterTable:
    """User-supplied table: class rep words, sizes, rows of 'p/q' strings.

    Orthonormal rows need not be characters, so each row must also have a
    non-negative integer mean over every subgroup: the dimension of the
    subspace that the subgroup fixes.  Real type comes from the rows; a
    payload that lists `real_type` must agree with it.
    """
    keys = ("class_reps", "class_sizes", "rows")
    if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in keys):
        raise CharacterError("a character table needs class_reps, class_sizes and rows as lists")
    try:
        reps = tuple(parse_cycles(w, group.degree) for w in data["class_reps"])
        sizes = tuple(_class_size(s) for s in data["class_sizes"])
        rows = tuple(
            tuple(Cyc.rational(Fraction(str(v))) for v in row) for row in data["rows"]
        )
    except TypeError as exc:
        raise CharacterError(f"malformed character table: {exc}") from exc
    if len(sizes) != len(reps) or any(len(row) != len(reps) for row in rows):
        raise CharacterError(
            "a character table needs a class size and a value in every row for each class rep"
        )
    word_of = {}  # element -> the rep word of its class
    for word, rep, size in zip(data["class_reps"], reps, sizes):
        if rep not in group.index:
            raise CharacterError(f"class rep {word} is not in the group")
        if rep in word_of:
            raise CharacterError(f"class reps {word_of[rep]} and {word} are conjugate")
        members = {p_conj(g, rep) for g in group.elements}
        if len(members) != size:
            raise CharacterError(f"the class of {word} has {len(members)} elements, not {size}")
        word_of.update(dict.fromkeys(members, word))
    table = CharacterTable(group, reps, sizes, rows)
    table.check_orthonormal()
    # a class function has the same mean over conjugate subgroups
    for cls in subgroup_lattice(group).classes:
        perms = [group.elements[x] for x in cls.rep_set]
        for l, row in enumerate(rows):
            if fixed_space_dim(table, row, perms) < 0:
                raise CharacterError(f"row {l + 1} is not a character: negative fixed dimension")
    given = tuple(bool(b) for b in data.get("real_type", table.real_type))
    if given != table.real_type:
        raise CharacterError(
            f"real_type {list(given)} disagrees with the Frobenius-Schur "
            f"indicators, which give {list(table.real_type)}"
        )
    return table


# ---------------------------------------------------------------------------
# the antipodal extension Gamma x Z2


class SignedGroup:
    """Gamma x Z2 where the extra Z2 acts antipodally on every component.

    The irreducible characters used downstream are chi_l tensor sign, one
    per irreducible of Gamma; dims and multiplicities match Gamma's.
    """

    def __init__(self, table: CharacterTable):
        gamma = table.group
        self.gamma = gamma
        self.gamma_table = table
        d = gamma.degree
        # Gamma fixes the two new points, the flip swaps them
        flip = tuple(range(d)) + (d + 1, d)
        self.group = Group.make([g + (d, d + 1) for g in gamma.generators] + [flip])
        self._parts = {}
        for g in self.group.elements:
            gamma_part = g[:d]
            eps = 1 if g[d] == d else -1
            self._parts[g] = (gamma_part, eps)

    def parts(self, g: Perm) -> tuple[Perm, int]:
        return self._parts[g]

    def signed_char(self, l: int, g: Perm) -> Cyc:
        """Value of (chi_l tensor sign) at g."""
        gamma_part, eps = self._parts[g]
        v = self.gamma_table.rows[l][self.gamma_table.class_of(gamma_part)]
        return v * eps
