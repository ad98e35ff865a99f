"""Closed subgroups of O(2) x Gamma' with finite Weyl group.

Gamma' is a finite group (in the delay-network pipeline, Gamma x Z2 with
the antipodal Z2).  Subgroups are stored in Goursat form: a closed
O(2)-part H, a part K <= Gamma', kernels Z <| H and R <| K, and the pairing
H/Z ~ K/R realised as an explicit element set

    Sigma = {(h, x) in H x K : pairing matches}.

O(2) elements are handled symbolically and exactly: (t, +1) is the
rotation by 2*pi*t and (t, -1) the reflection r_t * kappa.  A finite
subgroup lives on a grid of M points of the circle, so each class stores
its elements as (u, s, g) with an integer 0 <= u < M and t = u/M, on the
smallest grid M that holds them.  Conjugation rules in O(2): rotations are
central on rotations; conjugating by a rotation r_phi shifts every
reflection parameter by 2*phi; conjugating by kappa negates parameters.
That makes all Dn with the same n conjugate, and Zn, SO(2), O(2) normal.

The Burnside ring of O(2) x Gamma' is spanned by the classes with finite
Weyl group: O(2) x K, and the finite subgroups whose O(2)-part has a
reflection (Balanov, Krawcewicz and Steinlein, Applied Equivariant Degree,
2006).  So every finite class has a reflection; `make_fin` refuses a
rotation-only subgroup.  Everything downstream (orbit types, Weyl orders,
containment counts, Burnside products) reduces to finite exact
computations on these element sets; two classes on different grids
meet on the lcm grid.

The canonical key of a finite class is its least conjugate with a
reflection axis at t = 0, written as sorted (numerator, denominator, s, g)
with t in lowest terms, so it does not depend on the grid.  To find it,
each element on a grid M gets an integer code: the points t = u/M are
ranked by (numerator, denominator), and (u, s, g) has code
(rank[u] * 2 + (s == 1)) * |Gamma'| + g (`_grid_codes`).  Codes sort like
the tuples they stand for; conjugation by g in Gamma' maps the last term
by `ctx.conj`.  The walk skips the conjugates that the class's own
elements repeat: no kappa twist, one reflection axis per orbit of its
rotations, one g per coset of the Gamma'-parts of its rotations by 0 or
1/2.  It counts the conjugates equal to the least one, skipped repeats
included, which gives the Weyl order; the class keeps it from the walk
that interned it.  Every containment question is read off one `mark`:
the coefficient of (L) in (L) * (H) is the mark |(G/H)^L| =
n(L, H) * |W(H)| (tom Dieck, Transformation Groups, IV.1).
A product of two finite classes walks one g per double coset of the
Gamma'-parts of their rotation elements, weighted by the coset's size, and
buckets the meets by reflection offset (`_meets`); what the walk reads
of a class (rotation codes, reflections, rotation projection, reflection
index) is built once per class (`_split`).  The mark of two finite
classes counts the terms of that walk whose meet is all of L, and builds
no meet.

Classes are interned per context, so they compare by identity, and each
walked element set maps to its interned class.  Every exact function of a
context or class that is asked the same question again (code tables per
grid, coset representatives, Goursat data, walk tables, fixed dimensions,
character powers, marks, double cosets, candidates, basic degrees) is
`memoised`: its results live in the one memo of the context, keyed by the
function and its arguments.  Products are not kept: the running product
of a degree asks for almost every pair once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import gcd, lcm
from operator import add

from .chartab import CharacterTable, SignedGroup
from .cyclotomic import Cyc, _reduce
from .permgroup import Group, SubgroupClassLattice, parse_cycles, subgroup_lattice


# ---------------------------------------------------------------------------
# context: the finite factor Gamma' with characters and subgroup data


class GammaContext:
    """Multiplication tables, characters and subgroup classes of Gamma'."""

    def __init__(self, group: Group, char_rows, signed: SignedGroup | None = None):
        self.group = group
        self.signed = signed
        self.n = group.order
        self.elems = list(group.elements)
        self.identity = group.index[group.identity]
        self.mult = group.mult_table
        self.inv = group.inv_table
        self.conj = group.conj_table
        self.chars: list[tuple[Cyc, ...]] = [tuple(row) for row in char_rows]
        self.char_orders = [lcm(*(v.order for v in row)) for row in self.chars]
        self.lattice = subgroup_lattice(group)
        self.names = subgroup_names(self.lattice, signed)
        self.memo: dict = {}  # results of the memoised functions
        self._interned: dict = {}  # classes by key, see make_fin and make_o2

    @staticmethod
    def from_character_table(table: CharacterTable) -> "GammaContext":
        rows = [
            tuple(table.rows[l][table.class_of(g)] for g in table.group.elements)
            for l in range(table.n_irreps)
        ]
        return GammaContext(table.group, rows)

    @staticmethod
    def from_signed_group(signed: SignedGroup) -> "GammaContext":
        rows = [
            tuple(signed.signed_char(l, g) for g in signed.group.elements)
            for l in range(signed.gamma_table.n_irreps)
        ]
        return GammaContext(signed.group, rows, signed)

    def subgroup_name(self, kset: frozenset) -> str:
        return self.names[self.lattice.class_of(kset)]


# Conventional labels of the hexagon example's subgroups of D6 x Z2, each
# bound to generators (an element of D6 on six points, antipodal sign).  No
# rule on the lattice gives them (D6 x {1} is D6z, while D3 x {1} keeps the
# lattice name D3#1), so they are data.
D6_LABELS = {
    "Z2-": [("(1 4)(2 5)(3 6)", -1)],
    "~D1": [("(1 4)(2 5)(3 6)", 1)],
    "D2d": [("(2 6)(3 5)", 1), ("(1 4)(2 5)(3 6)", -1)],
    "~D2d": [("(1 2)(3 6)(4 5)", 1), ("(1 4)(2 5)(3 6)", -1)],
    "~D2z": [("(1 4)(2 5)(3 6)", 1), ("(1 2)(3 6)(4 5)", -1)],
    "D6z": [("(1 2 3 4 5 6)", 1), ("(2 6)(3 5)", 1)],
}


def subgroup_names(lattice: SubgroupClassLattice, signed: SignedGroup | None) -> list[str]:
    """Display names of the lattice's classes, by class index.

    Over a plain Gamma' these are the lattice names.  Over Gamma x Z2 a
    subgroup S x {1} is named S, S x Z2 is Sp, and a twisted subgroup
    projecting onto S with even part T is S^T, in Gamma's lattice names;
    when Gamma is the hexagon's D6, the classes of `D6_LABELS` take those
    labels instead.  Names are display only; fingerprints identify classes.
    """
    if signed is None:
        return [cls.name for cls in lattice.classes]
    gamma_lat = subgroup_lattice(signed.gamma)
    gamma_index, group = signed.gamma.index, lattice.group

    def gamma_name(perms):
        return gamma_lat.classes[gamma_lat.class_of(gamma_index[p] for p in perms)].name

    names = []
    for cls in lattice.classes:
        parts = [signed.parts(group.elements[g]) for g in cls.rep_set]
        proj = {gp for (gp, _) in parts}
        even = [gp for (gp, eps) in parts if eps == 1]
        if len(parts) == 2 * len(proj):
            names.append(f"{gamma_name(proj)}p")
        elif len(even) == len(parts):
            names.append(gamma_name(proj))
        else:
            names.append(f"{gamma_name(proj)}^{gamma_name(even)}")
    if (signed.gamma.degree, signed.gamma.order) != (6, 12):
        return names
    index_of = {signed.parts(g): i for i, g in enumerate(group.elements)}
    gens = [
        [index_of.get((parse_cycles(word, 6), eps)) for word, eps in words]
        for words in D6_LABELS.values()
    ]
    if all(None not in idxs for idxs in gens):
        for label, idxs in zip(D6_LABELS, gens):
            names[lattice.class_of(group.generated(idxs))] = label
    return names


def memoised(fn):
    """Keep fn's results in the memo of the context of its first argument.

    The first argument is a GammaContext or a class over one; results are
    keyed by fn and all its (positional) arguments, so they live and die
    with the context.  On a miss, a class argument over another context
    raises ValueError: fn would compute with this context's tables on a
    class of the other.  A hit needs no check: classes compare by
    identity, so its key holds the very class objects that passed the
    check when the entry was stored.  fn never returns None.
    """

    @wraps(fn)
    def wrapper(*args):
        first = args[0]
        ctx = first if isinstance(first, GammaContext) else first.ctx
        key = (fn, *args)
        result = ctx.memo.get(key)
        if result is None:
            for arg in args:
                if isinstance(arg, AmalgamatedClass) and arg.ctx is not ctx:
                    raise ValueError("classes live over different groups")
            result = ctx.memo[key] = fn(*args)
        return result

    return wrapper


# ---------------------------------------------------------------------------
# amalgamated classes


@dataclass(frozen=True, eq=False)
class AmalgamatedClass:
    """One conjugacy class of closed subgroups of O(2) x Gamma'.

    kind "fin": finite subgroup with a reflection, elems = frozenset of
                (u, s, g) on the grid of `grid` points (t = u/grid),
                K = None.
    kind "o2":  O(2) x K, elems = None, grid = 1 (isotropy shapes of mode-0
                vectors; "G" itself is the case K = Gamma').

    `name` and `fingerprint` read the Goursat parts of a finite class off
    one walk (`_goursat`) and spell out O(2) x K directly.  make_fin and
    make_o2 intern one instance per class and context, so instances
    compare by identity, and each keeps the Weyl order |W(H)| that
    interning found: the key walk's count for a finite class, the
    lattice's for O(2) x K.
    """

    ctx: GammaContext
    kind: str
    elems: frozenset | None
    K: frozenset | None
    key: tuple
    grid: int
    weyl: int

    # -- structural data ---------------------------------------------------

    @property
    def size(self) -> int:
        """The order of a finite class, |K| for O(2) x K: a class contains
        another of its kind only if its size is a multiple of the other's."""
        return len(self.elems) if self.kind == "fin" else len(self.K)

    def k_part(self) -> frozenset:
        return self.K if self.kind == "o2" else _goursat(self)[4]

    def fingerprint(self) -> tuple:
        """Structural identity used for acceptance matching and reports,
        ("D", |H|, |Z|, |L|, |R|, |K|) for a finite class."""
        if self.kind == "o2":
            return (self.kind, len(self.K))
        d, _, z, r, k = _goursat(self)
        return ("D", 2 * d, z, len(k) // len(r), len(r), len(k))

    def name(self) -> str:
        ctx = self.ctx
        if self.kind == "o2":
            return f"O(2) x {ctx.subgroup_name(self.K)}" if len(self.K) < ctx.n else "G"
        d, rz, z, r, k = _goursat(self)
        q = d // rz
        if z > rz:  # the O(2)-side kernel has a reflection
            zname, lname = f"D{rz}", f"Z{q}"
        else:
            zname, lname = f"Z{rz}", "Z2" if q == 1 else f"D{q}"
        return f"D{d} ^{zname} x_{lname} ^{ctx.subgroup_name(r)} {ctx.subgroup_name(k)}"


@memoised
def _goursat(cls: AmalgamatedClass) -> tuple:
    """The Goursat data (d, the rotations in Z, |Z|, R, K) of a finite class
    from one walk of its elements: H = D_d, Z = {h : (h, e) in Sigma}, R =
    {x : (e, x) in Sigma} and K the Gamma'-parts, so |L| = |K| / |R|."""
    e = cls.ctx.identity
    rotations, r, k = set(), set(), set()
    rz = z = 0
    for (u, s, g) in cls.elems:
        k.add(g)
        if s == 1:
            rotations.add(u)
            if u == 0:
                r.add(g)
        if g == e:
            z += 1
            rz += s == 1
    return len(rotations), rz, z, frozenset(r), frozenset(k)


# -- element sets of finite classes: (u, s, g) with t = u/M on a grid of M --


@memoised
def _grid_codes(ctx: GammaContext, grid: int):
    """Integer element codes on the grid: (rank, decode).

    rank[u] is the position of t = u/grid in lowest terms, as a
    (numerator, denominator) pair, among the grid's points; the code of
    (u, s, g) is (rank[u] * 2 + (s == 1)) * n + g, so codes sort like the
    tuples (numerator, denominator, s, g), and decode[code] is that tuple.
    """
    n = ctx.n
    turns = sorted((u // gcd(u, grid), grid // gcd(u, grid), u) for u in range(grid))
    rank = [0] * grid
    for r, (_, _, u) in enumerate(turns):
        rank[u] = r
    decode = [
        (num, den, s, g) for (num, den, _) in turns for s in (-1, 1) for g in range(n)
    ]
    return rank, decode


def _fin_key(ctx: GammaContext, elems: frozenset, grid: int) -> tuple:
    """The key of the class of a finite subgroup H, and |N(H)| / 2.

    The key is the least conjugate of H with a reflection axis at 0, as
    sorted (numerator, denominator, s, g); it does not depend on the grid.
    The full walk takes one conjugate per (kappa twist, axis b, g in
    Gamma'): twist, shift axis b onto 0, conjugate by g.  Two elements per
    (twist, axis, g) do that, and those giving one conjugate form a coset
    of N(H), so |N(H)| / 2 conjugates of the full walk equal the least.
    H's own elements make most of them repeats; the walk takes one per
    repeat class, each standing for `weight` of the full walk:
    - a reflection element of H maps H to itself, so the kappa-twisted
      conjugates are the untwisted ones again;
    - a rotation element (v, +1, x) of H gives entry(b, g) =
      entry(b - 2v, g x), where entry(b, g) is H shifted by -b and
      conjugated by g; so the d axes fall into gcd(2, d) orbits, which the
      first gcd(2, d) sorted axes meet once each;
    - for x in R', the Gamma'-parts of the rotation elements with
      2v = 0 on the grid, entry(b, g x) = entry(b, g): one g per coset g R'.
    The weight is 2 (d / gcd(2, d)) |R'|.  Per axis, the code of each
    shifted element without its Gamma'-part is computed once; conjugation
    by g adds ctx.conj[g] of the Gamma'-parts.  A subgroup without a
    reflection has an infinite Weyl group and no place in the ring:
    ValueError.
    """
    axes = sorted({u for (u, s, _) in elems if s == -1})
    if not axes:
        raise ValueError("a finite class needs a reflection in its O(2)-part")
    rank, decode = _grid_codes(ctx, grid)
    n = ctx.n
    bases = axes[: gcd(2, len(axes))]
    r_prime = frozenset(g for (u, s, g) in elems if s == 1 and 2 * u % grid == 0)
    tabs = [ctx.conj[h] for h in _coset_reps(ctx, r_prime)]
    gs = [g for (_, _, g) in elems]
    conjugates = []
    for b in bases:
        high = [(rank[u if s == 1 else (u - b) % grid] * 2 + (s == 1)) * n for (u, s, _) in elems]
        conjugates += [sorted(map(add, high, map(tab.__getitem__, gs))) for tab in tabs]
    best = min(conjugates)
    weight = 2 * len(axes) // len(bases) * len(r_prime)
    return ("fin", tuple(decode[c] for c in best)), weight * conjugates.count(best)


def make_fin(ctx: GammaContext, elems, grid: int) -> AmalgamatedClass:
    """The class of the finite subgroup with elements (u, s, g), t = u/grid;
    ValueError when it has no reflection.  On a grid that is already the
    least one, the caller's element tuples are kept as they are."""
    c = gcd(grid, *(u for (u, _, _) in elems))
    if c > 1:
        elems = ((u // c, s, g) for (u, s, g) in elems)
        grid //= c
    return _interned_fin(ctx, frozenset(elems), grid)


@memoised
def _interned_fin(ctx: GammaContext, elems: frozenset, grid: int) -> AmalgamatedClass:
    """The interned class of an element set on its least grid: the memo
    keeps one entry per walked set, the set itself and its class."""
    key, half_normaliser = _fin_key(ctx, elems, grid)
    cached = ctx._interned.get(key)
    if cached is None:
        # |W(H)| = |N(H)| / |H|
        weyl = 2 * half_normaliser // len(elems)
        cached = ctx._interned[key] = AmalgamatedClass(ctx, "fin", elems, None, key, grid, weyl)
    return cached


def make_o2(ctx: GammaContext, kset) -> AmalgamatedClass:
    kset = frozenset(kset)
    # the lattice's representative is the least conjugate in element order
    lattice_class = ctx.lattice.classes[ctx.lattice.class_of(kset)]
    key = ("o2", tuple(sorted(lattice_class.rep_set)))
    cached = ctx._interned.get(key)
    if cached is None:
        cached = ctx._interned[key] = AmalgamatedClass(
            ctx, "o2", None, kset, key, 1, lattice_class.weyl_order
        )
    return cached


def full_group(ctx: GammaContext) -> AmalgamatedClass:
    return make_o2(ctx, frozenset(range(ctx.n)))


# ---------------------------------------------------------------------------
# folding


def fold(cls: AmalgamatedClass, p: int) -> AmalgamatedClass:
    """The preimage of the class under the p-fold cover of O(2).

    A mode-k isotropy class pulls back to the mode-p*k class; p = 1 is the
    identity.
    """
    if p < 1:
        raise ValueError("fold index must be >= 1")
    if p == 1 or cls.kind == "o2":
        return cls
    # t -> (t + j)/p for every j: u on grid M -> u + j*M on grid p*M
    m = cls.grid
    out = {(u + j * m, s, g) for (u, s, g) in cls.elems for j in range(p)}
    return make_fin(cls.ctx, out, p * m)


# ---------------------------------------------------------------------------
# fixed-space dimensions in the irreducible pieces W_k (x) V_l


@memoised
def fixed_dim(cls: AmalgamatedClass, k: int, l: int) -> int:
    """dim of the fixed subspace of the class inside W_k (x) V_l.

    For k >= 1 the block is the complexification of V_l with rotations
    acting by exp(-2*pi*i*k*t); the rotations of the subgroup have a
    complex fixed space, and its reflections act there as a real
    structure, so the real fixed dimension is the complex one: the mean of
    exp(-2*pi*i*k*u/M) * chi_l(g) over the rotations (u, +1, g), summed
    exactly by `_mean_char`.
    """
    ctx = cls.ctx
    if k == 0:
        return _mean_char(ctx, l, [(0, g) for g in cls.k_part()], 1, 0)
    if cls.kind == "o2":
        return 0
    rot = [(u, g) for (u, s, g) in cls.elems if s == 1]
    return _mean_char(ctx, l, rot, cls.grid, k)


def _mean_char(ctx: GammaContext, l: int, terms, grid: int, k: int) -> int:
    """The mean of exp(-2*pi*i*k*u/grid) * chi_l(g) over (u, g) in terms,
    which must be a rational integer.

    With N = lcm(grid, order of row l), each term is chi_l(g) in the powers
    of zeta_N shifted by -k*u*(N/grid); the terms add into one integer
    vector of length N, reduced modulo Phi_N once at the end.
    """
    n = lcm(grid, ctx.char_orders[l])
    chars = _char_powers(ctx, l, n)
    step = -k * (n // grid)
    acc = [0] * n
    for (u, g) in terms:
        shift = step * u
        for (e, c) in chars[g]:
            acc[(e + shift) % n] += c
    total = _reduce(acc, n)
    if any(total[1:]):
        raise ArithmeticError(f"character sum is not rational: {total}")
    mean, rem = divmod(total[0], len(terms))
    if rem:
        raise ArithmeticError(f"non-integer fixed dimension {total[0]}/{len(terms)}")
    return mean


@memoised
def _char_powers(ctx: GammaContext, l: int, n: int) -> list:
    """chi_l(g) for every g as integer (exponent, coefficient) pairs in the
    powers of zeta_n; n is a multiple of the row's order."""
    powers = []
    for value in ctx.chars[l]:
        step = n // value.order
        pairs = []
        for i, c in enumerate(value.coeffs):
            if c.denominator != 1:
                raise ArithmeticError(f"character value {value!r} is not integral")
            if c:
                pairs.append((i * step, c.numerator))
        powers.append(pairs)
    return powers


# ---------------------------------------------------------------------------
# Weyl groups and marks


def weyl_order(cls: AmalgamatedClass) -> int:
    """|W(H)|, kept by the class since it was interned: for a finite class
    from |N(H)| / 2 as the key walk counted it (its walked count times the
    repeats that H's own elements make), for O(2) x K from the lattice."""
    return cls.weyl


@memoised
def mark(c1: AmalgamatedClass, c2: AmalgamatedClass) -> int:
    """The mark |(G/c2)^c1| = n(c1, c2) * |W(c2)|: how many cosets of a
    representative of c2 a representative of c1 fixes.

    No class of the product (c1) * (c2) lies above c1, so the mark is the
    coefficient of (c1) there (tom Dieck, Transformation Groups, IV.1).
    For two finite classes it is counted on the walk of `_meets` with no
    meet built: a meet lies in c1, so it is c1 when it keeps every
    rotation of c1 (a reflection with them gives all of c1), and each
    bucket of such a double coset adds 4 * size / |c2|.
    """
    if c1.kind == "o2" and c2.kind == "fin":
        return 0
    if c1.kind == c2.kind and c2.size % c1.size:
        return 0
    if "o2" in (c1.kind, c2.kind):
        return class_product(c1, c2).get(c1, 0)
    count = sum(size * len(b) for size, _, b in _meets(c1.ctx, c1, c2, whole=True))
    m, rem = divmod(4 * count, c2.size)
    if rem:
        raise AssertionError("non-integer mark; subgroup data is inconsistent")
    return m


def subconjugate(c1: AmalgamatedClass, c2: AmalgamatedClass) -> bool:
    return mark(c1, c2) > 0


def n_count_amalgam(c1: AmalgamatedClass, c2: AmalgamatedClass) -> int:
    """Number of conjugates of c2 containing a fixed representative of c1."""
    m = mark(c1, c2)
    return m // weyl_order(c2) if m else 0


# ---------------------------------------------------------------------------
# candidate enumeration at the base Fourier mode


def _normal_subgroups_of(ctx: GammaContext, kset: frozenset) -> list[frozenset]:
    out = [
        sub
        for cls in ctx.lattice.classes
        for sub in cls.conjugates
        if sub <= kset and all(ctx.conj[g][x] in sub for g in kset for x in sub)
    ]
    # the order of Group.subgroup_masks(), so that candidates are found,
    # and their element sets interned, in a fixed order
    return sorted(out, key=lambda sub: (len(sub), sorted(sub)))


def _cosets_of(ctx, kset, rset) -> list[frozenset]:
    seen = set()
    cosets = []
    for g in sorted(kset):
        if g in seen:
            continue
        coset = frozenset(ctx.mult[g][x] for x in rset)
        seen |= coset
        cosets.append(coset)
    return cosets


@memoised
def _coset_reps(ctx: GammaContext, rset: frozenset) -> tuple:
    """The least element of each left coset g R of Gamma'."""
    return tuple(min(coset) for coset in _cosets_of(ctx, range(ctx.n), rset))


def _dihedral_pairings(ctx: GammaContext, kset: frozenset, rset: frozenset):
    """Isomorphisms D_d -> K/R with |K/R| = 2d, as element sets on the grid
    d: one per family of pairs that the two rules below make conjugate.

    An isomorphism is fixed by the images rho of the rotation r_{1/d} and
    sigma of kappa: rho of order d, sigma an involution outside <rho> with
    sigma rho sigma = rho^-1.  The rotation r_{j/d} pairs with the coset
    rho^j and the reflection r_{j/d} kappa with rho^j sigma.  Only the
    first pair of each kind below is yielded, which is where the loop over
    every pair first met its class:
    - (rho, rho^j sigma) is (rho, sigma) conjugated by the rotation by
      j/2d, which moves r_{i/d} kappa to r_{(i+j)/d} kappa: one sigma per
      coset <rho> sigma;
    - (rho^-1, sigma) is (rho, sigma) conjugated by kappa, which negates
      every parameter: one of rho and rho^-1.
    """
    cosets = _cosets_of(ctx, kset, rset)
    d, odd = divmod(len(cosets), 2)
    if odd:
        return
    coset_of = {x: ci for ci, coset in enumerate(cosets) for x in coset}
    mult, unit = ctx.mult, coset_of[ctx.identity]
    reps = [min(coset) for coset in cosets]
    for ri, rho in enumerate(reps):
        powers = [ctx.identity]  # representatives of rho^0, rho^1, ...
        while coset_of[mult[powers[-1]][rho]] != unit:
            powers.append(mult[powers[-1]][rho])
        if len(powers) != d or coset_of[ctx.inv[rho]] < ri:
            continue
        seen = {coset_of[x] for x in powers}  # <rho>, then each <rho> sigma
        for sigma in reps:
            if coset_of[sigma] in seen:
                continue
            seen |= {coset_of[mult[x][sigma]] for x in powers}
            if (
                coset_of[mult[sigma][sigma]] != unit
                or coset_of[mult[mult[sigma][rho]][mult[sigma][rho]]] != unit
            ):
                continue
            elems = set()
            for j, x in enumerate(powers):
                elems |= {(j, 1, y) for y in cosets[coset_of[x]]}
                elems |= {(j, -1, y) for y in cosets[coset_of[mult[x][sigma]]]}
            yield elems, d


@memoised
def mode1_candidates(ctx: GammaContext) -> list[AmalgamatedClass]:
    """All classes that can be isotropy of a nonzero mode-1 vector and have
    a reflection in the O(2)-part (equivalently, finite Weyl group)."""
    found: dict = {}

    def record(elems, grid):
        cls = make_fin(ctx, elems, grid)
        found[cls.key] = cls

    for kset in (cls.rep_set for cls in ctx.lattice.classes):
        normal = _normal_subgroups_of(ctx, kset)
        # pattern A: trivial O(2)-side kernel, H = D_d paired with K/R
        for rset in normal:
            for elems, d in _dihedral_pairings(ctx, kset, rset):
                record(elems, d)
        # pattern B: O(2)-side kernel D1 = {1, kappa}; forces H in {D1, D2}
        record({(0, s, x) for s in (1, -1) for x in kset}, 1)
        for rset in normal:
            if len(kset) != 2 * len(rset):
                continue
            elems = {(0, s, x) for s in (1, -1) for x in rset}
            elems |= {(1, s, x) for s in (1, -1) for x in kset - rset}
            record(elems, 2)

    return sorted(found.values(), key=lambda c: (-c.size, c.key))


# ---------------------------------------------------------------------------
# orbit types per irreducible block


def _realised(cands: list[AmalgamatedClass], k: int, l: int) -> list[AmalgamatedClass]:
    """The candidates, all of one kind, that are orbit types in W_k (x) V_l."""
    dims = {c: dim for c in cands if (dim := fixed_dim(c, k, l)) > 0}
    return [
        c
        for c, dim_c in dims.items()
        if not any(
            c2.size > c.size
            and c2.size % c.size == 0
            and dim_c2 >= dim_c
            and subconjugate(c, c2)
            for c2, dim_c2 in dims.items()
        )
    ]


@memoised
def orbit_types_mode1(ctx: GammaContext, l: int) -> tuple[AmalgamatedClass, ...]:
    """Realised finite-Weyl orbit types of nonzero vectors at the base mode,
    found once per block: every mode k folds them (`orbit_types`)."""
    return tuple(_realised(mode1_candidates(ctx), 1, l))


def orbit_types(ctx: GammaContext, k: int, l: int) -> list[AmalgamatedClass]:
    """Realised orbit types of nonzero vectors in W_k (x) V_l.

    k = 0 and k >= 1 share one rule (`_realised`): a candidate H is realised
    when its fixed dimension is positive and no larger candidate containing
    it has a fixed dimension at least as big; then the vectors of Fix(H)
    outside the smaller fixed spaces of the finitely many larger groups
    have isotropy exactly H.  Only the candidates differ: O(2) x K for every
    class of K <= Gamma' at k = 0, and the mode-1 candidates at k >= 1,
    whose types are folded by k, since the k-fold cover of O(2) carries W_1
    onto W_k.  A negative mode is refused.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return _realised([make_o2(ctx, cls.rep_set) for cls in ctx.lattice.classes], 0, l)
    return [fold(c, k) for c in orbit_types_mode1(ctx, l)]


def maximal_orbit_types(ctx: GammaContext, k: int, l: int) -> list[AmalgamatedClass]:
    """Orbit types maximal inside the block (the whole group excluded)."""
    base = orbit_types(ctx, min(k, 1), l)
    maxima = [
        c
        for c in base
        if not any(c2 is not c and subconjugate(c, c2) for c2 in base)
    ]
    return [fold(c, max(k, 1)) for c in maxima]


# ---------------------------------------------------------------------------
# Burnside products over O(2) x Gamma'


def class_product(c1: AmalgamatedClass, c2: AmalgamatedClass) -> dict:
    """(c1) * (c2) in the Burnside ring: {class: multiplicity}.

    Orbit types with a rotation-only O(2)-part have infinite Weyl group and
    carry no coefficient: `_product_o2` drops them, and two finite classes
    meet in a reflection whenever they meet at all.  The O(2) x K classes
    span the Burnside ring A(Gamma') (`eqdeg burnside`).  The full group
    (G) is the unit, (G) * (H) = (H), and walks nothing.  Nothing is kept:
    the running product of a degree asks for almost every pair once.
    """
    ctx = c1.ctx
    if c2.ctx is not ctx:
        raise ValueError("classes live over different groups")
    if c1.kind == "o2" and len(c1.K) == ctx.n:
        return {c2: 1}
    if c2.kind == "o2" and len(c2.K) == ctx.n:
        return {c1: 1}
    if c1.kind == "o2":
        return _product_o2(ctx, c1, c2)
    if c2.kind == "o2":
        return _product_o2(ctx, c2, c1)
    return _product_fin_fin(ctx, c1, c2)


@memoised
def _double_cosets(ctx, a: frozenset, b: frozenset) -> tuple:
    """Each double coset A g B of Gamma' as (g, g^-1 A g, its size).

    The size is |A||B| / |B ∩ g^-1 A g|; the sizes must sum to |Gamma'|,
    else a double coset was missed and the product built from them would
    be wrong.
    """
    cosets = []
    for g in ctx.group.double_coset_reps(a, b):
        target = frozenset(ctx.conj[ctx.inv[g]][x] for x in a)
        cosets.append((g, target, len(a) * len(b) // len(b & target)))
    if sum(size for (_, _, size) in cosets) != ctx.n:
        raise AssertionError("double cosets do not cover Gamma' in Burnside product")
    return tuple(cosets)


def _product_o2(ctx, c_o2, other) -> dict:
    # one term per double coset K g K': the other class meets O(2) x g^-1 K g,
    # which for O(2) x K2 gives O(2) x (K2 ∩ g^-1 K g)
    out: dict = {}
    other_k = other.k_part()
    for _, target, _ in _double_cosets(ctx, c_o2.K, other_k):
        if other.kind == "o2":
            cls = make_o2(ctx, other_k & target)
        else:
            inter = frozenset((u, s, x) for (u, s, x) in other.elems if x in target)
            if not any(s == -1 for (_, s, _) in inter):
                continue
            cls = make_fin(ctx, inter, other.grid)
        out[cls] = out.get(cls, 0) + 1
    return out


@memoised
def _split(cls: AmalgamatedClass) -> tuple:
    """What `_meets` reads of a finite class, built once per class: its
    rotations (u, +1, g), keyed by the code u * n + g on its own grid; its
    reflections; the Gamma'-parts of its rotations; and its reflection
    index, Gamma'-part x -> the parameters u of the reflections (u, -1, x)
    on its own grid."""
    n = cls.ctx.n
    rot = {e[0] * n + e[2]: e for e in cls.elems if e[1] == 1}
    refl = tuple(e for e in cls.elems if e[1] == -1)
    refl_at: dict = {}
    for (u, _, x) in refl:
        refl_at.setdefault(x, []).append(u)
    return rot, refl, frozenset(code % n for code in rot), refl_at


def _meets(ctx, c1, c2, whole: bool = False):
    """The meets of c1 with the conjugates of c2, on the lcm grid.

    For g in Gamma' and a rotation r of O(2), c1 meets the conjugate of c2
    by (r, g); the rotations split into buckets with the same meet, one
    per offset of a reflection of c1 against a reflection of c2.  The term
    of g, the meets with their bucket weights, is unchanged by g -> x g y
    when x is the Gamma'-part of a rotation element of c1 and y that of c2:
    conjugating a class by its own rotation element only shifts the
    rotation offsets, and the buckets sum over every offset.  So one g per
    double coset A g B of the rotation projections A and B is enough,
    weighted by the size |A||B| / |B ∩ g^-1 A g|.  The full projections
    would not do: a reflection element also twists the other class by
    kappa.  Yields (size, rotations kept, reflections per bucket) in c1's
    own elements; with whole=True, only where every rotation is kept.
    """
    grid, n = lcm(c1.grid, c2.grid), ctx.n
    fa, fb = grid // c1.grid, grid // c2.grid  # coprime: fb | u * fa exactly when fb | u
    a_rot, a_refl, a_k, _ = _split(c1)
    b_rot, _, b_k, b_refl_at = _split(c2)
    for g, _, size in _double_cosets(ctx, a_k, b_k):
        inv_tab = ctx.conj[ctx.inv[g]]
        # the rotation by u / M1 is the one by (u * fa / fb) / M2
        rot = [
            e for e in a_rot.values()
            if not e[0] % fb and e[0] // fb * fa * n + inv_tab[e[2]] in b_rot
        ]
        if whole and len(rot) < len(a_rot):
            continue
        # a reflection (alpha, c) of the first class meets a rotated copy of
        # a reflection (beta, b) of the second one's, with g b g^-1 = c, by
        # the offset delta = alpha - beta
        buckets: dict = {}
        for e in a_refl:
            for beta in b_refl_at.get(inv_tab[e[2]], ()):
                buckets.setdefault((e[0] * fa - beta * fb) % grid, []).append(e)
        yield size, rot, buckets.values()


def _product_fin_fin(ctx, c1, c2) -> dict:
    """(c1) * (c2) for two finite classes: each meet of `_meets` weighted
    by its double coset's size and its order.  The rotations by delta/2
    and delta/2 + 1/2 give the same meet, hence the factor 2."""
    weights: dict = {}
    for size, rot, buckets in _meets(ctx, c1, c2):
        rot = frozenset(rot)
        for refls in buckets:
            inter = rot.union(refls)
            weights[inter] = weights.get(inter, 0) + 2 * size * len(inter)
    total = c1.size * c2.size
    out: dict = {}
    for inter, weight in weights.items():
        cls = make_fin(ctx, inter, c1.grid)
        out[cls] = out.get(cls, 0) + 2 * weight
    if any(num % total for num in out.values()):
        raise AssertionError(
            "non-integer orbit count in Burnside product; subgroup data is inconsistent"
        )
    return {cls: num // total for cls, num in out.items()}
