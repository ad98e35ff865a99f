"""The Burnside ring A(G) of a finite group.

Ring elements are sparse integer combinations {class index: coefficient}
of subgroup conjugacy classes.  Generators multiply by the double-coset
formula

    (H) * (K) = sum over the double cosets H g K of (H ∩ g K g^-1),

on element indices through the group's tables; every product is checked
against the sizes |H g K| = |H||K| / |H ∩ g K g^-1|, which must add up to
|G|.  Fixed-point marks give an independent oracle (`marks_row`).
"""

from __future__ import annotations

from .permgroup import SubgroupClassLattice


def mult_classes(lattice: SubgroupClassLattice, h: int, k: int) -> dict[int, int]:
    """(H) * (K) for the classes h and k: {class index: multiplicity}."""
    group = lattice.group
    hset = lattice.classes[h].rep_set
    kset = lattice.classes[k].rep_set
    coeffs: dict[int, int] = {}
    covered = 0
    for g in group.double_coset_reps(hset, kset):
        row = group.conj_table[g]
        inter = frozenset(row[x] for x in kset if row[x] in hset)
        cls = lattice.class_of(inter)
        coeffs[cls] = coeffs.get(cls, 0) + 1
        covered += len(hset) * len(kset) // len(inter)
    if covered != group.order:
        raise AssertionError("double cosets do not cover the group in Burnside product")
    return coeffs


def format_terms(terms) -> str:
    """A ring element as text, from (name, nonzero coefficient) pairs in
    display order: "(G) - 2(Z1)", or "0" when there are none."""
    parts = []
    for name, c in terms:
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(f"{'-' if c < 0 else '+'} {mag}({name})")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def marks_row(lattice: SubgroupClassLattice, h: int) -> list[int]:
    """Fixed-point counts |(G/H)^L| for every class L; an independent oracle.

    |(G/H)^L| = n(L, H) * |W(H)|.
    """
    w = lattice.classes[h].weyl_order
    return [lattice.n_count(l, h) * w for l in range(len(lattice.classes))]
