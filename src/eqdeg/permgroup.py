"""Finite permutation groups and their subgroup lattices.

Groups are given by permutation generators on {1..degree} (stored 0-based
as image tuples).  The lattice enumerates every subgroup, partitions them
into conjugacy classes with deterministic representatives, and records the
subconjugation order together with the containment counts n(H, K) used by
degree recurrences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import lcm

Perm = tuple[int, ...]

DEFAULT_ORDER_CAP = 10000


class GroupTooLargeError(ValueError):
    pass


def p_mul(a: Perm, b: Perm) -> Perm:
    """Composition a∘b: first apply b, then a."""
    return tuple(a[x] for x in b)


def p_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def p_identity(n: int) -> Perm:
    return tuple(range(n))


def p_order(a: Perm) -> int:
    e = p_identity(len(a))
    x, k = a, 1
    while x != e:
        x = p_mul(x, a)
        k += 1
    return k


def parse_cycles(text: str, degree: int | None = None) -> Perm:
    """Parse 1-based cycle notation like "(1 2 3)(4 5)"."""
    cycles = []
    maxpt = 0
    for chunk in re.findall(r"\(([^()]*)\)", text):
        pts = [int(x) for x in re.split(r"[,\s]+", chunk.strip()) if x]
        if len(pts) != len(set(pts)):
            raise ValueError(f"repeated point in cycle: {chunk}")
        if pts:
            maxpt = max(maxpt, max(pts))
            cycles.append(pts)
    if not cycles and text.strip() not in ("", "()"):
        raise ValueError(f"cannot parse permutation: {text!r}")
    n = degree if degree is not None else maxpt
    if maxpt > n:
        raise ValueError(f"point {maxpt} exceeds degree {n}")
    images = list(range(n))
    for pts in cycles:
        for i, p in enumerate(pts):
            images[p - 1] = pts[(i + 1) % len(pts)] - 1
    return tuple(images)


def cycle_string(p: Perm) -> str:
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = []
        j = i
        while j not in seen:
            seen.add(j)
            cyc.append(j + 1)
            j = p[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) if out else "()"


class Group:
    """A finite permutation group with enumerated elements."""

    def __init__(self, degree: int, generators: tuple[Perm, ...], elements: tuple[Perm, ...]):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self.order = len(elements)
        self.index = {g: i for i, g in enumerate(elements)}
        self.identity = p_identity(degree)

    @staticmethod
    def make(generators, cap: int = DEFAULT_ORDER_CAP) -> "Group":
        gens = [parse_cycles(g) if isinstance(g, str) else tuple(g) for g in generators]
        if not gens:
            raise ValueError("need at least one generator")
        degree = max(len(g) for g in gens)
        gens = [g + tuple(range(len(g), degree)) for g in gens]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of {{1..{degree}}}: {g}")
        elems = {p_identity(degree)}
        frontier = list(elems)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = p_mul(g, x)
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
                        if len(elems) > cap:
                            raise GroupTooLargeError(
                                f"group too large: order exceeds cap {cap}"
                            )
            frontier = nxt
        return Group(degree, tuple(gens), tuple(sorted(elems)))

    @staticmethod
    def from_name(name: str, cap: int = DEFAULT_ORDER_CAP) -> "Group":
        """Presets: Z<n>, D<n> (order 2n, acting on n-gon vertices), S<n>."""
        m = re.fullmatch(r"([ZDS])(\d+)", name.strip())
        if not m:
            raise ValueError(f"unknown group preset: {name!r}")
        kind, n = m.group(1), int(m.group(2))
        if n < 1:
            raise ValueError("group parameter must be >= 1")
        if kind == "Z":
            if n == 1:
                return Group(1, (p_identity(1),), (p_identity(1),))
            rot = tuple((i + 1) % n for i in range(n))
            return Group.make([rot], cap=cap)
        if kind == "D":
            if n == 1:
                return Group.make([(1, 0)], cap=cap)
            if n == 2:
                # acting on a 2-gon is not faithful; use degree 4
                return Group.make([(1, 0, 2, 3), (0, 1, 3, 2)], cap=cap)
            rot = tuple((i + 1) % n for i in range(n))
            refl = tuple((-i) % n for i in range(n))
            return Group.make([rot, refl], cap=cap)
        if n == 1:
            return Group(1, (p_identity(1),), (p_identity(1),))
        gens = [(1, 0) + tuple(range(2, n))]
        if n > 2:
            gens.append(tuple(range(1, n)) + (0,))
        return Group.make(gens, cap=cap)

    def mul(self, a: Perm, b: Perm) -> Perm:
        return p_mul(a, b)

    def inv(self, a: Perm) -> Perm:
        return p_inv(a)

    def conj(self, g: Perm, x: Perm) -> Perm:
        return p_mul(p_mul(g, x), p_inv(g))

    def exponent(self) -> int:
        e = 1
        for g in self.elements:
            e = lcm(e, p_order(g))
        return e

    def conjugacy_classes(self) -> list[tuple[Perm, ...]]:
        """Element conjugacy classes; identity class first, rest by min element."""
        seen: set[Perm] = set()
        classes = []
        for x in self.elements:
            if x in seen:
                continue
            cls = {self.conj(g, x) for g in self.elements}
            seen |= cls
            classes.append(tuple(sorted(cls)))
        classes.sort(key=lambda c: (c[0] != self.identity, min(c)))
        return classes

    def subgroups(self, cap: int | None = None) -> list[frozenset[Perm]]:
        """Every subgroup, by cyclic extension of smaller subgroups."""
        if cap is not None and self.order > cap:
            raise GroupTooLargeError(f"group too large for lattice: {self.order} > {cap}")
        trivial = frozenset([self.identity])
        found = {trivial}
        frontier = [trivial]
        while frontier:
            nxt = []
            for sub in frontier:
                for g in self.elements:
                    if g in sub:
                        continue
                    ext = self._closure(sub | {g})
                    if ext not in found:
                        found.add(ext)
                        nxt.append(ext)
            frontier = nxt
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def _closure(self, seed: set[Perm]) -> frozenset[Perm]:
        elems = set(seed) | {self.identity}
        frontier = list(elems)
        gens = list(seed)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = p_mul(g, x)
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(elems)

    def normalizer_order(self, sub: frozenset[Perm]) -> int:
        return sum(1 for g in self.elements if all(self.conj(g, x) in sub for x in sub))


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups."""

    representative: tuple[Perm, ...]
    conjugates: tuple[frozenset[Perm], ...]
    class_size: int
    normalizer_order: int
    weyl_order: int
    name: str = ""

    @property
    def order(self) -> int:
        return len(self.representative)

    @property
    def rep_set(self) -> frozenset[Perm]:
        return self.conjugates[0]


@dataclass
class SubgroupClassLattice:
    """Conjugacy classes of subgroups with order data and n(H, K) counts."""

    group: Group
    classes: list[SubgroupClass]
    leq: list[list[bool]] = field(default_factory=list)
    nHK: list[list[int]] = field(default_factory=list)
    _class_of: dict[frozenset, int] = field(default_factory=dict)
    # Burnside products of class pairs, filled in by burnside.mult_classes
    products: dict = field(default_factory=dict, repr=False, compare=False)

    def class_of(self, sub: frozenset[Perm]) -> int:
        return self._class_of[frozenset(sub)]

    def n_count(self, h: int, k: int) -> int:
        return self.nHK[h][k]

    def weyl_order(self, h: int) -> int:
        return self.classes[h].weyl_order

    def __len__(self) -> int:
        return len(self.classes)


def subgroup_lattice(group: Group, cap: int = DEFAULT_ORDER_CAP) -> SubgroupClassLattice:
    subs = group.subgroups(cap=cap)
    # partition into conjugacy classes
    remaining = set(subs)
    classes: list[SubgroupClass] = []
    class_members: list[tuple[frozenset[Perm], ...]] = []
    while remaining:
        sub = min(remaining, key=lambda s: (len(s), sorted(s)))
        orbit = {frozenset(group.conj(g, x) for x in sub) for g in group.elements}
        remaining -= orbit
        members = tuple(sorted(orbit, key=lambda s: sorted(s)))
        rep = members[0]
        n_order = group.normalizer_order(rep)
        classes.append(
            SubgroupClass(
                representative=tuple(sorted(rep)),
                conjugates=members,
                class_size=len(members),
                normalizer_order=n_order,
                weyl_order=n_order // len(rep),
            )
        )
        class_members.append(members)
    order = sorted(range(len(classes)), key=lambda i: (classes[i].order, classes[i].representative))
    classes = [classes[i] for i in order]
    lattice = SubgroupClassLattice(group=group, classes=classes)
    names = _class_names(classes)
    for i, cls in enumerate(classes):
        object.__setattr__(cls, "name", names[i])
        for member in cls.conjugates:
            lattice._class_of[member] = i
    n = len(classes)
    lattice.nHK = [[0] * n for _ in range(n)]
    lattice.leq = [[False] * n for _ in range(n)]
    for h in range(n):
        hrep = classes[h].rep_set
        for k in range(n):
            if classes[k].order % classes[h].order:
                continue
            count = sum(1 for member in classes[k].conjugates if hrep <= member)
            lattice.nHK[h][k] = count
            lattice.leq[h][k] = count > 0
    return lattice


def _structure_base(cls: SubgroupClass) -> str:
    n = cls.order
    orders = [p_order(g) for g in cls.rep_set]
    if max(orders) == n:
        return f"Z{n}"
    m = n // 2
    if n % 2 == 0 and n >= 4 and m in orders and orders.count(2) >= m:
        return f"D{m}"
    return f"G{n}"


def _class_names(classes: list[SubgroupClass]) -> list[str]:
    bases = [_structure_base(c) for c in classes]
    names = []
    for i, base in enumerate(bases):
        if bases.count(base) > 1:
            names.append(f"{base}#{sum(1 for b in bases[:i] if b == base) + 1}")
        else:
            names.append(base)
    return names
