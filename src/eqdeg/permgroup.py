"""Finite permutation groups and their subgroup lattices.

Groups are given by permutation generators on {1..degree} (stored 0-based
as image tuples).  The elements are enumerated once, sorted; after that the
group works on element indices through a Cayley table, built on first use.
The lattice enumerates every subgroup as a bitmask over element indices,
keeps each as a frozenset of element indices, and partitions them into
conjugacy classes with deterministic representatives, orders and Weyl
orders.  Containment counts n(H, K) are not kept here: they are read off
the Burnside product of O(2) x H and O(2) x K (`o2gamma.n_count_amalgam`).
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

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


def p_conj(g: Perm, x: Perm) -> Perm:
    """g∘x∘g^-1."""
    return p_mul(p_mul(g, x), p_inv(g))


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


def parse_perms(words) -> list[Perm]:
    """Permutations from 1-based cycle words or 0-based image lists, padded
    with fixed points to the largest degree among them."""
    perms = [parse_cycles(w) if isinstance(w, str) else tuple(w) for w in words]
    if not perms:
        raise ValueError("need at least one permutation")
    degree = max(map(len, perms))
    perms = [p + tuple(range(len(p), degree)) for p in perms]
    for p in perms:
        if sorted(p) != list(range(degree)):
            raise ValueError(f"not a permutation of {{1..{degree}}}: {p}")
    return perms


def parse_preset(name: str) -> tuple[str, int]:
    """The (kind, n) of a preset name Z<n>, D<n> or S<n>, n >= 1; every
    reader of a preset name goes through here."""
    m = re.fullmatch(r"([ZDS])(\d+)", name.strip())
    if not m:
        raise ValueError(f"unknown group preset: {name!r}")
    kind, n = m.group(1), int(m.group(2))
    if n < 1:
        raise ValueError("group parameter must be >= 1")
    return kind, n


class Group:
    """A finite permutation group with enumerated elements."""

    def __init__(self, degree: int, generators: tuple[Perm, ...], elements: Iterable[Perm]):
        self.degree = degree
        self.generators = generators
        # sorted, so element indices order like the permutations
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.identity = p_identity(degree)

    @staticmethod
    def make(generators, cap: int = DEFAULT_ORDER_CAP) -> "Group":
        """The group that parse_perms(generators) generates, of order <= cap."""
        gens = parse_perms(generators)
        degree = len(gens[0])
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
        return Group(degree, tuple(gens), elems)

    @staticmethod
    def from_name(name: str) -> "Group":
        """Presets: Z<n>, D<n> (order 2n, acting on n-gon vertices), S<n>."""
        kind, n = parse_preset(name)
        if kind == "Z":
            if n == 1:
                return Group(1, (p_identity(1),), (p_identity(1),))
            rot = tuple((i + 1) % n for i in range(n))
            return Group.make([rot])
        if kind == "D":
            if n == 1:
                return Group.make([(1, 0)])
            if n == 2:
                # acting on a 2-gon is not faithful; use degree 4
                return Group.make([(1, 0, 2, 3), (0, 1, 3, 2)])
            rot = tuple((i + 1) % n for i in range(n))
            refl = tuple((-i) % n for i in range(n))
            return Group.make([rot, refl])
        if n == 1:
            return Group(1, (p_identity(1),), (p_identity(1),))
        gens = [(1, 0) + tuple(range(2, n))]
        if n > 2:
            gens.append(tuple(range(1, n)) + (0,))
        return Group.make(gens)

    # Index tables, built on first use: element i is self.elements[i].

    @cached_property
    def mult_table(self) -> list[list[int]]:
        """mult_table[a][b] is the index of a∘b."""
        index, elems = self.index, self.elements
        return [[index[tuple(map(a.__getitem__, b))] for b in elems] for a in elems]

    @cached_property
    def inv_table(self) -> list[int]:
        e = self.index[self.identity]
        return [row.index(e) for row in self.mult_table]

    @cached_property
    def conj_table(self) -> list[list[int]]:
        """conj_table[g][x] is the index of g∘x∘g^-1."""
        mult = self.mult_table
        return [
            [mult[gx][gi] for gx in mult[g]] for g, gi in enumerate(self.inv_table)
        ]

    def double_coset_reps(self, a, b):
        """The least element g of each double coset A g B, ascending; A and
        B are subgroups given as element indices."""
        mult = self.mult_table
        seen = set()
        for g in range(self.order):
            if g in seen:
                continue
            seen.update(mult[x][mult[g][y]] for x in a for y in b)
            yield g

    def generated(self, gens: list[int]) -> frozenset[int]:
        """The subgroup generated by element indices."""
        return frozenset(_mask_members(self._closure_mask(gens)))

    def subgroup_masks(self) -> list[int]:
        """Every subgroup as a bitmask over element indices, by cyclic
        extension of smaller subgroups; sorted by (order, sorted elements)."""
        mult = self.mult_table
        # each subgroup found so far, with generators that close to it
        gens = {1 << self.index[self.identity]: []}
        frontier = list(gens)
        while frontier:
            nxt = []
            for sub in frontier:
                members = _mask_members(sub)
                done = sub
                for g in range(self.order):
                    if done >> g & 1:
                        continue
                    # <sub, g> = <sub, g h> for every h in sub: skip g's coset
                    for h in members:
                        done |= 1 << mult[g][h]
                    ext_gens = gens[sub] + [g]
                    ext = self._closure_mask(ext_gens)
                    if ext not in gens:
                        gens[ext] = ext_gens
                        nxt.append(ext)
            frontier = nxt
        return sorted(gens, key=lambda m: (m.bit_count(), _mask_members(m)))

    def _closure_mask(self, gens: list[int]) -> int:
        """The subgroup generated by element indices, as a bitmask."""
        rows = [self.mult_table[g] for g in gens]
        e = self.index[self.identity]
        mask = 1 << e
        frontier = [e]
        while frontier:
            nxt = []
            for x in frontier:
                for row in rows:
                    y = row[x]
                    if not mask >> y & 1:
                        mask |= 1 << y
                        nxt.append(y)
            frontier = nxt
        return mask


def _mask_members(mask: int) -> list[int]:
    """The set bits of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups, each a frozenset of element
    indices; the conjugates are sorted, so the first is the least."""

    conjugates: tuple[frozenset[int], ...]
    normalizer_order: int
    name: str = ""

    @property
    def rep_set(self) -> frozenset[int]:
        return self.conjugates[0]

    @property
    def order(self) -> int:
        return len(self.conjugates[0])

    @property
    def class_size(self) -> int:
        return len(self.conjugates)

    @property
    def weyl_order(self) -> int:
        return self.normalizer_order // self.order


@dataclass
class SubgroupClassLattice:
    """Conjugacy classes of subgroups, with order data."""

    group: Group
    classes: list[SubgroupClass]
    _class_of: dict[frozenset[int], int] = field(default_factory=dict)

    def class_of(self, sub: frozenset[int]) -> int:
        """The class of a subgroup given as element indices."""
        return self._class_of[frozenset(sub)]


def subgroup_lattice(group: Group) -> SubgroupClassLattice:
    conj = group.conj_table
    classes: list[SubgroupClass] = []
    seen: set[int] = set()
    # subgroups come sorted by (order, sorted elements), so the first member
    # of each class met here is its least one, and classes come out sorted
    for sub in group.subgroup_masks():
        if sub in seen:
            continue
        members = _mask_members(sub)
        orbit = set()
        n_order = 0
        for row in conj:
            image = 0
            for x in members:
                image |= 1 << row[x]
            orbit.add(image)
            n_order += image == sub
        seen |= orbit
        conjugates = tuple(frozenset(_mask_members(m)) for m in sorted(orbit, key=_mask_members))
        classes.append(SubgroupClass(conjugates=conjugates, normalizer_order=n_order))
    lattice = SubgroupClassLattice(group=group, classes=classes)
    names = _class_names(group, classes)
    for i, cls in enumerate(classes):
        object.__setattr__(cls, "name", names[i])
        for member in cls.conjugates:
            lattice._class_of[member] = i
    return lattice


def _structure_base(group: Group, cls: SubgroupClass) -> str:
    n = cls.order
    orders = [p_order(group.elements[g]) for g in cls.rep_set]
    if max(orders) == n:
        return f"Z{n}"
    m = n // 2
    if n % 2 == 0 and n >= 4 and m in orders and orders.count(2) >= m:
        return f"D{m}"
    return f"G{n}"


def _class_names(group: Group, classes: list[SubgroupClass]) -> list[str]:
    bases = [_structure_base(group, c) for c in classes]
    names = []
    for i, base in enumerate(bases):
        if bases.count(base) > 1:
            names.append(f"{base}#{sum(1 for b in bases[:i] if b == base) + 1}")
        else:
            names.append(base)
    return names
