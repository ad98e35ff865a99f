"""The Burnside ring A(G) of a finite group.

Elements are sparse integer combinations of subgroup conjugacy classes.
Multiplication of generators counts orbit types of the diagonal action on
the product of coset spaces, by direct enumeration on element indices
through the group's Cayley table; every product is checked against the
total point count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .permgroup import SubgroupClassLattice


class LatticeMismatchError(ValueError):
    pass


def _coset_space(lattice: SubgroupClassLattice, idx: int) -> tuple[list[int], list[int]]:
    """Left cosets g H of the class representative H, on element indices:
    coset_of[x] is the position of x H, reps[i] the least element of the
    i-th coset."""
    group = lattice.group
    mult = group.mult_table
    sub = [group.index[x] for x in lattice.classes[idx].representative]
    coset_of = [-1] * group.order
    reps: list[int] = []
    for g in range(group.order):
        if coset_of[g] < 0:
            for x in sub:
                coset_of[mult[g][x]] = len(reps)
            reps.append(g)
    return coset_of, reps


def mult_classes(lattice: SubgroupClassLattice, h: int, k: int) -> "BurnsideElement":
    key = (min(h, k), max(h, k))
    coeffs = lattice.products.get(key)
    if coeffs is None:
        coeffs = _orbit_count(lattice, *key)
        lattice.products[key] = coeffs
    return BurnsideElement(lattice, dict(coeffs))


def _orbit_count(lattice: SubgroupClassLattice, h: int, k: int) -> dict[int, int]:
    group = lattice.group
    mult = group.mult_table
    of_h, reps_h = _coset_space(lattice, h)
    of_k, reps_k = _coset_space(lattice, k)
    visited = [[False] * len(reps_k) for _ in reps_h]
    coeffs: dict[int, int] = {}
    total = 0
    for i, a in enumerate(reps_h):
        for j, b in enumerate(reps_k):
            if visited[i][j]:
                continue
            orbit = set()
            stab = []
            for g, row in enumerate(mult):
                gi, gj = of_h[row[a]], of_k[row[b]]
                if gi == i and gj == j:
                    stab.append(group.elements[g])
                orbit.add((gi, gj))
            for (oi, oj) in orbit:
                visited[oi][oj] = True
            cls = lattice.class_of(frozenset(stab))
            coeffs[cls] = coeffs.get(cls, 0) + 1
            total += len(orbit)
            if len(orbit) * len(stab) != group.order:
                raise AssertionError("orbit-stabilizer mismatch in Burnside product")
    if total != len(reps_h) * len(reps_k):
        raise AssertionError("orbit decomposition does not cover the product space")
    return coeffs


@dataclass
class BurnsideElement:
    lattice: SubgroupClassLattice
    coeffs: dict[int, int]

    def __post_init__(self):
        self.coeffs = {i: c for i, c in self.coeffs.items() if c}

    @staticmethod
    def zero(lattice) -> "BurnsideElement":
        return BurnsideElement(lattice, {})

    @staticmethod
    def generator(lattice, idx: int, coeff: int = 1) -> "BurnsideElement":
        return BurnsideElement(lattice, {idx: coeff})

    @staticmethod
    def unit(lattice) -> "BurnsideElement":
        return BurnsideElement(lattice, {len(lattice.classes) - 1: 1})

    def coeff(self, idx: int) -> int:
        return self.coeffs.get(idx, 0)

    def _check(self, other: "BurnsideElement") -> None:
        if self.lattice is not other.lattice:
            raise LatticeMismatchError("elements live over different lattices")

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return BurnsideElement(self.lattice, out)

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self + (-other)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.lattice, {i: -c for i, c in self.coeffs.items()})

    def __mul__(self, other) -> "BurnsideElement":
        if isinstance(other, int):
            return BurnsideElement(self.lattice, {i: c * other for i, c in self.coeffs.items()})
        self._check(other)
        out = BurnsideElement.zero(self.lattice)
        for i, ci in self.coeffs.items():
            for j, cj in other.coeffs.items():
                out = out + mult_classes(self.lattice, i, j) * (ci * cj)
        return out

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, BurnsideElement) and self.lattice is other.lattice and self.coeffs == other.coeffs

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs, key=lambda i: (-self.lattice.classes[i].order, i)):
            c = self.coeffs[i]
            name = self.lattice.classes[i].name
            sign = "-" if c < 0 else "+"
            mag = "" if abs(c) == 1 else f"{abs(c)}"
            parts.append(f"{sign} {mag}({name})")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def marks_row(lattice: SubgroupClassLattice, h: int) -> list[int]:
    """Fixed-point counts |(G/H)^L| for every class L; an independent oracle.

    |(G/H)^L| = n(L, H) * |W(H)|.
    """
    w = lattice.weyl_order(h)
    return [lattice.n_count(l, h) * w for l in range(len(lattice.classes))]
