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

Everything downstream (orbit types, Weyl orders, containment counts,
Burnside products) reduces to finite exact computations on these element
sets; two classes on different grids are first lifted to the lcm grid.

The canonical key of a finite class is its least conjugate with a
reflection axis at t = 0, written as sorted (numerator, denominator, s, g)
with t in lowest terms, so it does not depend on the grid.  To find it,
and to compare conjugates in Weyl orders and containment counts, each
element on a grid M gets an integer code: the points t = u/M are ranked
by (numerator, denominator), and (u, s, g) has code
(rank[u] * 2 + (s == 1)) * |Gamma'| + g.  Codes sort like the tuples they
stand for, and conjugation by g in Gamma' is one table lookup per code
(`_grid_codes`, built once per grid and context).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .burnside import mult_classes
from .chartab import CharacterTable, SignedGroup
from .cyclotomic import Cyc
from .permgroup import Group, subgroup_lattice


class InfiniteWeylError(ValueError):
    pass


# ---------------------------------------------------------------------------
# context: the finite factor Gamma' with characters and subgroup data


class GammaContext:
    """Multiplication tables, characters and subgroup classes of Gamma'."""

    def __init__(self, group: Group, char_rows, char_labels=None):
        self.group = group
        self.n = group.order
        self.elems = list(group.elements)
        idx = {g: i for i, g in enumerate(self.elems)}
        self.identity = idx[group.identity]
        self.mult = [
            [idx[group.mul(a, b)] for b in self.elems] for a in self.elems
        ]
        self.inv = [idx[group.inv(a)] for a in self.elems]
        self.conj = [
            [idx[group.conj(g, x)] for x in self.elems] for g in self.elems
        ]
        self.chars: list[tuple[Cyc, ...]] = [tuple(row) for row in char_rows]
        self.char_labels = list(char_labels or range(len(self.chars)))
        self.char_dims = [row[self.identity].as_integer() for row in self.chars]
        self.lattice = subgroup_lattice(group)
        self._set_of_class = [
            frozenset(idx[g] for g in cls.rep_set) for cls in self.lattice.classes
        ]
        self._class_of_set: dict[frozenset, int] = {}
        for ci, cls in enumerate(self.lattice.classes):
            for member in cls.conjugates:
                self._class_of_set[frozenset(idx[g] for g in member)] = ci
        # caches
        self._interned: dict = {}
        self._mode1: list | None = None
        self._fixdim: dict = {}
        self._weyl: dict = {}
        self._ncount: dict = {}
        self._products: dict = {}
        self._key_of_set: dict = {}
        self._codes: dict = {}  # element codes per grid, see _grid_codes
        self._degrees: dict = {}  # basic degrees, filled in by basicdeg

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
        ctx = GammaContext(signed.group, rows)
        ctx.signed = signed
        return ctx

    def subgroup_class_index(self, kset: frozenset) -> int:
        return self._class_of_set[frozenset(kset)]

    def class_sets(self) -> list[frozenset]:
        return list(self._set_of_class)

    def subgroup_name(self, kset: frozenset) -> str:
        overrides = getattr(self, "display_overrides", None)
        if overrides:
            name = overrides.get(self.subgroup_class_index(frozenset(kset)))
            if name:
                return name
        signed = getattr(self, "signed", None)
        if signed is None:
            return self.lattice.classes[self.subgroup_class_index(kset)].name
        return self._signed_name(frozenset(kset))

    def bind_display_names(self, named_generators: dict) -> None:
        """Attach conventional display names: {name: iterable of element
        indices generating the subgroup}.  Display only; fingerprints stay
        the contract."""
        overrides = {}
        for name, gens in named_generators.items():
            sub = {self.identity}
            frontier = [self.identity]
            gen_idx = list(gens)
            while frontier:
                nxt = []
                for x in frontier:
                    for g in gen_idx:
                        y = self.mult[g][x]
                        if y not in sub:
                            sub.add(y)
                            nxt.append(y)
                frontier = nxt
            overrides[self.subgroup_class_index(frozenset(sub))] = name
        self.display_overrides = overrides

    def _signed_name(self, kset: frozenset) -> str:
        """Decorated display name over Gamma x Z2: S for S x {1}, Sp for
        S x Z2, S^T for the twisted subgroup with even part T.  Bindings are
        a convention of this engine; structural fingerprints are the
        contract."""
        cached = getattr(self, "_signed_names", None)
        if cached is None:
            cached = {}
            self._signed_names = cached
        name = cached.get(kset)
        if name is not None:
            return name
        signed = self.signed
        gamma_lat = getattr(self, "_gamma_lattice", None)
        if gamma_lat is None:
            gamma_lat = subgroup_lattice(signed.gamma)
            self._gamma_lattice = gamma_lat
        proj = frozenset(signed.parts(self.elems[g])[0] for g in kset)
        even = frozenset(
            signed.parts(self.elems[g])[0]
            for g in kset
            if signed.parts(self.elems[g])[1] == 1
        )
        sname = gamma_lat.classes[gamma_lat.class_of(proj)].name
        if len(kset) == 2 * len(proj):
            name = f"{sname}p"
        elif len(even) == len(kset):
            name = sname
        else:
            tname = gamma_lat.classes[gamma_lat.class_of(even)].name
            name = f"{sname}^{tname}"
        cached[kset] = name
        return name

    def char_value(self, l: int, g: int) -> Cyc:
        return self.chars[l][g]


# ---------------------------------------------------------------------------
# amalgamated classes


@dataclass(frozen=True)
class AmalgamatedClass:
    """One conjugacy class of closed subgroups of O(2) x Gamma'.

    kind "fin": finite subgroup, elems = frozenset of (u, s, g) on the grid
                of `grid` points (t = u/grid), K = None.
    kind "o2":  O(2) x K, elems = None, grid = 1 (isotropy shapes of mode-0
                vectors; "G" itself is the case K = Gamma').
    """

    ctx: GammaContext
    kind: str
    elems: frozenset | None
    K: frozenset | None
    key: tuple
    grid: int

    def __eq__(self, other):
        return isinstance(other, AmalgamatedClass) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    # -- structural data ---------------------------------------------------

    @property
    def order(self) -> int:
        if self.kind == "fin":
            return len(self.elems)
        raise InfiniteWeylError("infinite subgroup has no order")

    def axes(self) -> list[int]:
        return sorted({u for (u, s, g) in self.elems if s == -1})

    def is_dihedral(self) -> bool:
        return self.kind == "fin" and any(s == -1 for (_, s, _) in self.elems)

    def h_part(self) -> tuple[str, int]:
        """O(2)-projection as (kind, rotation order)."""
        if self.kind == "o2":
            return ("O2", 0)
        rot = {u for (u, s, g) in self.elems if s == 1}
        d = len(rot)
        return ("D", d) if self.is_dihedral() else ("Z", d)

    def k_part(self) -> frozenset:
        if self.kind == "o2":
            return self.K
        return frozenset(g for (_, _, g) in self.elems)

    def z_part(self) -> frozenset:
        """Elements of the O(2)-side kernel {h : (h, identity) in Sigma}."""
        e = self.ctx.identity
        if self.kind == "o2":
            return frozenset({"all"})
        return frozenset((u, s) for (u, s, g) in self.elems if g == e)

    def r_part(self) -> frozenset:
        """The Gamma'-side kernel {x : (identity_O2, x) in Sigma}."""
        if self.kind == "o2":
            return self.K
        return frozenset(g for (u, s, g) in self.elems if s == 1 and u == 0)

    def l_order(self) -> int:
        if self.kind == "o2":
            return 1
        return len(self.k_part()) // len(self.r_part())

    def fingerprint(self) -> tuple:
        """Structural identity used for acceptance matching and reports."""
        if self.kind == "o2":
            return (self.kind, len(self.K))
        hk, d = self.h_part()
        return (hk, 2 * d if hk == "D" else d, len(self.z_part()),
                self.l_order(), len(self.r_part()), len(self.k_part()))

    def name(self) -> str:
        ctx = self.ctx
        if self.kind == "o2":
            return f"O(2) x {ctx.subgroup_name(self.K)}" if len(self.K) < ctx.n else "G"
        hk, d = self.h_part()
        hname = f"{hk}{d}"
        z = self.z_part()
        rz = sum(1 for (u, s) in z if s == 1)
        fz = len(z) - rz
        if fz:
            zname = f"D{rz}"
            q = d // rz
            lname = "Z1" if q == 1 else f"Z{q}"
        else:
            zname = "Z1" if rz == 1 else f"Z{rz}"
            q = d // rz
            lname = "Z2" if q == 1 else f"D{q}"
        rname = ctx.subgroup_name(self.r_part())
        kname = ctx.subgroup_name(self.k_part())
        return f"{hname} ^{zname} x_{lname} ^{rname} {kname}"


# -- element sets of finite classes: (u, s, g) with t = u/M on a grid of M --


def _common_grid(c1: AmalgamatedClass, c2: AmalgamatedClass):
    """Both element sets on the lcm of their grids, and that grid."""
    m = lcm(c1.grid, c2.grid)

    def lift(cls):
        f = m // cls.grid
        return cls.elems if f == 1 else frozenset((u * f, s, g) for (u, s, g) in cls.elems)

    return lift(c1), lift(c2), m


def _kappa_conj(elems, grid):
    return frozenset(((-u) % grid, s, g) for (u, s, g) in elems)


def _shift_refl(elems, delta, grid):
    return frozenset(
        ((u + delta) % grid, s, g) if s == -1 else (u, s, g) for (u, s, g) in elems
    )


def _grid_codes(ctx: GammaContext, grid: int):
    """Integer element codes on the grid: (rank, decode, conj_tabs).

    rank[u] is the position of t = u/grid in lowest terms, as a
    (numerator, denominator) pair, among the grid's points; the code of
    (u, s, g) is (rank[u] * 2 + (s == 1)) * n + g, so codes sort like the
    tuples (numerator, denominator, s, g).  decode[code] is that tuple, and
    conj_tabs[g][code] is the code of the element conjugated by g in Gamma'.
    """
    cached = ctx._codes.get(grid)
    if cached is not None:
        return cached
    n = ctx.n
    turns = sorted((u // gcd(u, grid), grid // gcd(u, grid), u) for u in range(grid))
    rank = [0] * grid
    for r, (_, _, u) in enumerate(turns):
        rank[u] = r
    decode = [
        (num, den, s, g) for (num, den, _) in turns for s in (-1, 1) for g in range(n)
    ]
    conj_tabs = [
        [base + tab[x] for base in range(0, len(decode), n) for x in range(n)]
        for tab in ctx.conj
    ]
    cached = (rank, decode, conj_tabs)
    ctx._codes[grid] = cached
    return cached


def _encode(ctx: GammaContext, elems, grid: int) -> list[int]:
    rank, n = _grid_codes(ctx, grid)[0], ctx.n
    return [(rank[u] * 2 + (s == 1)) * n + g for (u, s, g) in elems]


def _aligned_conjugates(ctx: GammaContext, elems: frozenset, grid: int, a: int):
    """The conjugates of a finite subgroup, moved so a reflection axis sits
    at a, as lists of element codes.

    One conjugate per (kappa twist, reflection axis b, g in Gamma'): twist,
    shift axis b onto a, conjugate by g.  A rotation-only subgroup has no
    axis and is taken as is.  The twist and shift loops sit outside the
    Gamma' loop, so each call shifts and encodes only 2 * |axes| element
    sets; conjugation by g is a table lookup per code.
    """
    conj_tabs = _grid_codes(ctx, grid)[2]
    for base in (elems, _kappa_conj(elems, grid)):
        for b in sorted({u for (u, s, _) in base if s == -1}) or [a]:
            codes = _encode(ctx, _shift_refl(base, a - b, grid), grid)
            for tab in conj_tabs:
                yield list(map(tab.__getitem__, codes))


def _fin_key(ctx: GammaContext, elems: frozenset, grid: int) -> tuple:
    """The least conjugate with an axis at 0, as sorted (numerator,
    denominator, s, g); independent of the grid the set is on."""
    cached = ctx._key_of_set.get((elems, grid))
    if cached is not None:
        return cached
    decode = _grid_codes(ctx, grid)[1]
    best = min(sorted(x) for x in _aligned_conjugates(ctx, elems, grid, 0))
    key = ("fin", tuple(decode[c] for c in best))
    ctx._key_of_set[(elems, grid)] = key
    return key


def make_fin(ctx: GammaContext, elems, grid: int) -> AmalgamatedClass:
    """The class of the finite subgroup with elements (u, s, g), t = u/grid."""
    c = gcd(grid, *(u for (u, _, _) in elems))
    elems = frozenset((u // c, s, g) for (u, s, g) in elems)
    grid //= c
    key = _fin_key(ctx, elems, grid)
    cached = ctx._interned.get(key)
    if cached is None:
        cached = AmalgamatedClass(ctx, "fin", elems, None, key, grid)
        ctx._interned[key] = cached
    return cached


def make_o2(ctx: GammaContext, kset) -> AmalgamatedClass:
    kset = frozenset(kset)
    # the lattice's representative is the least conjugate in element order
    rep = ctx._set_of_class[ctx.subgroup_class_index(kset)]
    key = ("o2", tuple(sorted(rep)))
    cached = ctx._interned.get(key)
    if cached is None:
        cached = AmalgamatedClass(ctx, "o2", None, kset, key, 1)
        ctx._interned[key] = cached
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


def fixed_dim(cls: AmalgamatedClass, k: int, l: int) -> int:
    """dim of the fixed subspace of the class inside W_k (x) V_l.

    For k >= 1 the block is the complexification of V_l with rotations
    acting by exp(-2*pi*i*k*t); the rotation-only part of the subgroup has
    a complex fixed space, and each reflection-type element acts on it as
    a real structure, cutting the real dimension in half.
    """
    ctx = cls.ctx
    cache_key = (cls.key, k, l)
    cached = ctx._fixdim.get(cache_key)
    if cached is not None:
        return cached
    if cls.kind == "o2":
        if k >= 1:
            dim = 0
        else:
            dim = _avg_char(ctx, l, cls.K)
    elif k == 0:
        dim = _avg_char(ctx, l, cls.k_part())
    else:
        rot = [(u, g) for (u, s, g) in cls.elems if s == 1]
        total = Cyc.rational(0)
        for (u, g) in rot:
            total = total + Cyc.root_of_unity(-k * u, cls.grid) * ctx.char_value(l, g)
        total = total * Fraction(1, len(rot))
        cdim = total.as_fraction()
        if cdim.denominator != 1:
            raise ArithmeticError(f"non-integer complex fixed dimension {cdim}")
        dim = cdim.numerator if cls.is_dihedral() else 2 * cdim.numerator
    ctx._fixdim[cache_key] = dim
    return dim


def _avg_char(ctx: GammaContext, l: int, kset) -> int:
    total = Cyc.rational(0)
    for g in kset:
        total = total + ctx.char_value(l, g)
    q = (total * Fraction(1, len(kset))).as_fraction()
    if q.denominator != 1:
        raise ArithmeticError(f"non-integer fixed dimension {q}")
    return q.numerator


# ---------------------------------------------------------------------------
# Weyl groups, containment, counts


def weyl_is_finite(cls: AmalgamatedClass) -> bool:
    if cls.kind == "o2":
        return True
    return cls.is_dihedral()


def weyl_order(cls: AmalgamatedClass) -> int:
    ctx = cls.ctx
    cached = ctx._weyl.get(cls.key)
    if cached is not None:
        return cached
    if cls.kind == "o2":
        w = ctx.lattice.weyl_order(ctx.subgroup_class_index(cls.K))
    else:
        if not cls.is_dihedral():
            raise InfiniteWeylError(
                "rotation-only classes have infinite Weyl group in O(2) x Gamma'"
            )
        elems = cls.elems
        target = sorted(_encode(ctx, elems, cls.grid))
        conjugates = _aligned_conjugates(ctx, elems, cls.grid, cls.axes()[0])
        count = sum(1 for x in conjugates if sorted(x) == target)
        # each (shift, twist, gamma) action is realised by exactly two rotations
        w = 2 * count // len(elems)
    ctx._weyl[cls.key] = w
    return w


def subconjugate(c1: AmalgamatedClass, c2: AmalgamatedClass) -> bool:
    return _containment_count(c1, c2, count_all=False) > 0


def n_count_amalgam(c1: AmalgamatedClass, c2: AmalgamatedClass) -> int:
    """Number of conjugates of c2 containing a fixed representative of c1."""
    return _containment_count(c1, c2, count_all=True)


def _containment_count(c1, c2, count_all: bool) -> int:
    ctx = c1.ctx
    if ctx is not c2.ctx:
        raise ValueError("classes live over different groups")
    memo_key = (c1.key, c2.key, count_all)
    cached = ctx._ncount.get(memo_key)
    if cached is not None:
        return cached
    result = _containment_count_raw(ctx, c1, c2, count_all)
    ctx._ncount[memo_key] = result
    return result


def _containment_count_raw(ctx, c1, c2, count_all):
    if c2.kind == "o2":
        ci = ctx.subgroup_class_index
        return ctx.lattice.n_count(ci(c1.k_part()), ci(c2.K))
    if c1.kind == "o2":
        return 0
    if not c1.is_dihedral():
        raise InfiniteWeylError("containment counts need a reflection in the smaller class")
    if c2.order % c1.order:
        return 0
    small, big, grid = _common_grid(c1, c2)
    axis = c1.axes()[0] * (grid // c1.grid)
    small_codes = _encode(ctx, small, grid)
    hits = (
        x
        for x in map(frozenset, _aligned_conjugates(ctx, big, grid, axis))
        if x.issuperset(small_codes)
    )
    if count_all:
        return len(set(hits))
    return int(any(hits))


# ---------------------------------------------------------------------------
# candidate enumeration at the base Fourier mode


def _normal_subgroups_of(ctx: GammaContext, kset: frozenset) -> list[frozenset]:
    out = [
        sub
        for sub in ctx._class_of_set
        if sub <= kset and all(ctx.conj[g][x] in sub for g in kset for x in sub)
    ]
    # the order of Group.subgroups(), so that candidates are found, and their
    # element sets interned, in a fixed order
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


def _dihedral_pairings(ctx: GammaContext, kset: frozenset, rset: frozenset):
    """Every isomorphism D_d -> K/R with |K/R| = 2d, as an element set on
    the grid d.

    An isomorphism is fixed by the images rho of the rotation r_{1/d} and
    sigma of kappa: rho of order d, sigma an involution outside <rho> with
    sigma rho sigma = rho^-1.  The rotation r_{j/d} pairs with the coset
    rho^j and the reflection r_{j/d} kappa with rho^j sigma.
    """
    cosets = _cosets_of(ctx, kset, rset)
    d, odd = divmod(len(cosets), 2)
    if odd:
        return
    coset_of = {x: ci for ci, coset in enumerate(cosets) for x in coset}
    mult, unit = ctx.mult, coset_of[ctx.identity]
    reps = [min(coset) for coset in cosets]
    for rho in reps:
        powers = [ctx.identity]  # representatives of rho^0, rho^1, ...
        while coset_of[mult[powers[-1]][rho]] != unit:
            powers.append(mult[powers[-1]][rho])
        if len(powers) != d:
            continue
        cyclic = {coset_of[x] for x in powers}
        for sigma in reps:
            if (
                coset_of[sigma] in cyclic
                or coset_of[mult[sigma][sigma]] != unit
                or coset_of[mult[mult[sigma][rho]][mult[sigma][rho]]] != unit
            ):
                continue
            elems = set()
            for j, x in enumerate(powers):
                elems |= {(j, 1, y) for y in cosets[coset_of[x]]}
                elems |= {(j, -1, y) for y in cosets[coset_of[mult[x][sigma]]]}
            yield elems, d


def mode1_candidates(ctx: GammaContext) -> list[AmalgamatedClass]:
    """All classes that can be isotropy of a nonzero mode-1 vector and have
    a reflection in the O(2)-part (equivalently, finite Weyl group)."""
    if ctx._mode1 is not None:
        return ctx._mode1
    found: dict = {}

    def record(elems, grid):
        cls = make_fin(ctx, elems, grid)
        found[cls.key] = cls

    for kset in ctx.class_sets():
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

    out = sorted(found.values(), key=lambda c: (-c.order, c.key))
    ctx._mode1 = out
    return out


# ---------------------------------------------------------------------------
# orbit types per irreducible block


def enumerate_candidate_classes(ctx: GammaContext, k: int, l: int) -> list[AmalgamatedClass]:
    """Finite-Weyl classes that can appear as isotropy of nonzero vectors
    in W_k (x) V_l, folded to mode k."""
    if k == 0:
        out = []
        for kset in ctx.class_sets():
            if _avg_char(ctx, l, kset) > 0:
                out.append(make_o2(ctx, kset))
        return out
    base = [c for c in mode1_candidates(ctx) if fixed_dim(c, 1, l) > 0]
    return [fold(c, k) for c in base]


def orbit_types_mode1(ctx: GammaContext, l: int) -> list[AmalgamatedClass]:
    """Realised finite-Weyl orbit types of nonzero vectors at the base mode."""
    cands = [c for c in mode1_candidates(ctx) if fixed_dim(c, 1, l) > 0]
    realized = []
    for c in cands:
        dim_c = fixed_dim(c, 1, l)
        ok = True
        for c2 in cands:
            if c2 is c or c2.order <= c.order or c2.order % c.order:
                continue
            if fixed_dim(c2, 1, l) >= dim_c and subconjugate(c, c2):
                ok = False
                break
        if ok:
            realized.append(c)
    return realized


def _k0_orbit_classes(ctx: GammaContext, l: int) -> list[frozenset]:
    """Realised isotropy subgroup classes of Gamma' on V_l (trivial O(2))."""
    cands = [
        (ci, kset)
        for ci, kset in enumerate(ctx.class_sets())
        if _avg_char(ctx, l, kset) > 0
    ]
    out = []
    for ci, kset in cands:
        dim_c = _avg_char(ctx, l, kset)
        ok = True
        for cj, k2 in cands:
            if cj == ci:
                continue
            if ctx.lattice.n_count(ci, cj) > 0 and _avg_char(ctx, l, k2) >= dim_c:
                ok = False
                break
        if ok:
            out.append(kset)
    return out


def orbit_types(ctx: GammaContext, k: int, l: int) -> list[AmalgamatedClass]:
    if k == 0:
        return [make_o2(ctx, kset) for kset in _k0_orbit_classes(ctx, l)]
    return [fold(c, k) for c in orbit_types_mode1(ctx, l)]


def maximal_orbit_types(ctx: GammaContext, k: int, l: int) -> list[AmalgamatedClass]:
    """Orbit types maximal inside the block (the whole group excluded)."""
    if k == 0:
        kinds = _k0_orbit_classes(ctx, l)
        out = []
        for kset in kinds:
            ci = ctx.subgroup_class_index(kset)
            if not any(
                ctx.lattice.n_count(ci, ctx.subgroup_class_index(k2)) > 0
                for k2 in kinds
                if k2 != kset
            ):
                out.append(make_o2(ctx, kset))
        return out
    base = orbit_types_mode1(ctx, l)
    maxima = [
        c
        for c in base
        if not any(c2 is not c and subconjugate(c, c2) for c2 in base)
    ]
    return [fold(c, k) for c in maxima]


# ---------------------------------------------------------------------------
# Burnside products over O(2) x Gamma'


def class_product(c1: AmalgamatedClass, c2: AmalgamatedClass) -> dict:
    """(c1) * (c2) in the Burnside ring: {class: multiplicity}.

    Orbit types with a rotation-only O(2)-part have infinite Weyl group and
    carry no coefficient; they are dropped.
    """
    ctx = c1.ctx
    key = tuple(sorted((c1.key, c2.key)))
    cached = ctx._products.get(key)
    if cached is None:
        if c1.kind == "o2" and c2.kind == "o2":
            cached = _product_o2_o2(ctx, c1, c2)
        elif c1.kind == "o2":
            cached = _product_o2_fin(ctx, c1, c2)
        elif c2.kind == "o2":
            cached = _product_o2_fin(ctx, c2, c1)
        else:
            cached = _product_fin_fin(ctx, c1, c2)
        ctx._products[key] = cached
    return cached


def _product_o2_o2(ctx, c1, c2) -> dict:
    # (O(2) x K1) * (O(2) x K2) is the Burnside product (K1) * (K2) of Gamma'
    ci = ctx.subgroup_class_index
    prod = mult_classes(ctx.lattice, ci(c1.K), ci(c2.K))
    return {make_o2(ctx, ctx._set_of_class[k]): m for k, m in prod.coeffs.items()}


def _product_o2_fin(ctx, c_o2, c_fin) -> dict:
    out: dict = {}
    kset = c_o2.K
    k_fin = c_fin.k_part()
    seen = set()  # elements of the double cosets K g K_fin visited so far
    for g in range(ctx.n):
        if g in seen:
            continue
        seen.update(ctx.mult[a][ctx.mult[g][b]] for a in kset for b in k_fin)
        target = frozenset(ctx.conj[ctx.inv[g]][x] for x in kset)
        inter = frozenset(
            (u, s, x) for (u, s, x) in c_fin.elems if x in target
        )
        if any(s == -1 for (_, s, _) in inter):
            cls = make_fin(ctx, inter, c_fin.grid)
            out[cls] = out.get(cls, 0) + 1
    return out


def _product_fin_fin(ctx, c1, c2) -> dict:
    a_elems, b_elems, grid = _common_grid(c1, c2)
    a_rot = {(u, g) for (u, s, g) in a_elems if s == 1}
    a_refl = [(u, g) for (u, s, g) in a_elems if s == -1]
    b_rot = {(u, g) for (u, s, g) in b_elems if s == 1}
    b_refl_at: dict = {}  # Gamma'-part b -> reflection parameters beta
    for (u, s, g) in b_elems:
        if s == -1:
            b_refl_at.setdefault(g, []).append(u)
    weights: dict = {}
    for g in range(ctx.n):
        inv_tab = ctx.conj[ctx.inv[g]]
        rot_part = frozenset(
            (u, 1, x) for (u, x) in a_rot if (u, inv_tab[x]) in b_rot
        )
        # a reflection (alpha, c) of the first class meets a rotated copy of
        # a reflection (beta, b) of the second one's, with g b g^-1 = c, by
        # the offset delta = alpha - beta; the rotations by delta/2 and
        # delta/2 + 1/2 give the same intersection, hence weight 2
        buckets: dict = {}
        for (alpha, c) in a_refl:
            for beta in b_refl_at.get(inv_tab[c], ()):
                buckets.setdefault((alpha - beta) % grid, []).append((alpha, -1, c))
        for refls in buckets.values():
            inter = rot_part | frozenset(refls)
            weights[inter] = weights.get(inter, 0) + 2 * len(inter)
    total = len(a_elems) * len(b_elems)
    out: dict = {}
    for inter, weight in weights.items():
        cls = make_fin(ctx, inter, grid)
        out[cls] = out.get(cls, 0) + weight
    result = {}
    for cls, weight in out.items():
        num = 2 * weight
        if num % total:
            raise AssertionError(
                "non-integer orbit count in Burnside product; "
                "subgroup data is inconsistent"
            )
        result[cls] = num // total
    return result
