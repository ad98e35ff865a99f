"""Basic degrees of the blocks W_k (x) V_l and their Burnside products.

The degree of -id on the unit ball of one irreducible block is computed
by the top-down recurrence over the block's orbit-type lattice:

    n_H = ( (-1)^dim Fix(H) - sum_{(L) > (H)} n_L * n(H,L) * |W(L)| ) / |W(H)|

Every division must be exact; a remainder means the lattice data is wrong
and is reported loudly.  Products reduce exponents mod 2 first (each basic
degree squares to the identity class).
"""

from __future__ import annotations

from dataclasses import dataclass

from .o2gamma import (
    AmalgamatedClass,
    GammaContext,
    class_product,
    fixed_dim,
    fold,
    full_group,
    memoised,
    n_count_amalgam,
    orbit_types,
    weyl_order,
)


class RecurrenceError(ArithmeticError):
    pass


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


@dataclass
class GRingElement:
    """Sparse integer combination of finite-Weyl classes of O(2) x Gamma'."""

    ctx: GammaContext
    coeffs: dict[AmalgamatedClass, int]

    def __post_init__(self):
        self.coeffs = {c: v for c, v in self.coeffs.items() if v}

    @staticmethod
    def unit(ctx) -> "GRingElement":
        return GRingElement(ctx, {full_group(ctx): 1})

    def coeff(self, cls: AmalgamatedClass) -> int:
        return self.coeffs.get(cls, 0)

    def __add__(self, other: "GRingElement") -> "GRingElement":
        out = dict(self.coeffs)
        for c, v in other.coeffs.items():
            out[c] = out.get(c, 0) + v
        return GRingElement(self.ctx, out)

    def __sub__(self, other: "GRingElement") -> "GRingElement":
        return self + other.scaled(-1)

    def scaled(self, k: int) -> "GRingElement":
        return GRingElement(self.ctx, {c: v * k for c, v in self.coeffs.items()})

    def __mul__(self, other: "GRingElement") -> "GRingElement":
        out: dict[AmalgamatedClass, int] = {}
        for c1, v1 in self.coeffs.items():
            for c2, v2 in other.coeffs.items():
                for cls, m in class_product(c1, c2).items():
                    out[cls] = out.get(cls, 0) + v1 * v2 * m
        return GRingElement(self.ctx, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, GRingElement) and self.coeffs == other.coeffs

    def support(self) -> list[AmalgamatedClass]:
        return sorted(self.coeffs, key=lambda c: c.key)

    def render(self) -> str:
        full = full_group(self.ctx)
        order = sorted(self.coeffs, key=lambda c: (c is not full, c.kind, c.key))
        return format_terms((c.name(), self.coeffs[c]) for c in order)

    def to_jsonable(self) -> list[dict]:
        out = []
        for c in self.support():
            out.append(
                {
                    "class": c.name(),
                    "fingerprint": list(c.fingerprint()),
                    "coefficient": self.coeffs[c],
                }
            )
        return out


@memoised
def basic_degree(ctx: GammaContext, k: int, l: int) -> GRingElement:
    """Equivariant degree of -id on the unit ball of W_k (x) V_l.

    For k >= 2 it is the degree at mode 1 with every class folded by k.
    """
    if k <= 1:
        return _basic_degree_base(ctx, k, l)
    base = basic_degree(ctx, 1, l)
    return GRingElement(ctx, {fold(c, k): v for c, v in base.coeffs.items()})


def _recurrence(ctx, lattice_classes, dims, ncounts, weyls) -> dict:
    """Top-down coefficients over one orbit-type lattice (plus the full group).

    lattice_classes are ordered by decreasing subgroup size, full group first.
    """
    coeffs: dict = {}
    for i, cls in enumerate(lattice_classes):
        d_h = -1 if dims[i] % 2 else 1
        above = 0
        for j in range(i):
            n_hl = ncounts(i, j)
            if n_hl:
                above += coeffs[lattice_classes[j]] * n_hl * weyls[j]
        num = d_h - above
        if num % weyls[i]:
            raise RecurrenceError(
                f"recurrence is non-integral at {lattice_classes[i]}: "
                f"{num} not divisible by Weyl order {weyls[i]}"
            )
        coeffs[cls] = num // weyls[i]
    return coeffs


def _basic_degree_base(ctx: GammaContext, k: int, l: int) -> GRingElement:
    """The recurrence over the orbit types of W_k (x) V_l, k in {0, 1}."""
    g_cls = full_group(ctx)
    types = orbit_types(ctx, k, l)
    ordered = [g_cls] + sorted(types, key=lambda c: (-c.size, c.key))
    dims = [0] + [fixed_dim(c, k, l) for c in ordered[1:]]
    weyls = [1] + [weyl_order(c) for c in ordered[1:]]

    def ncounts(i, j):
        if j == 0:
            return 1
        return n_count_amalgam(ordered[i], ordered[j])

    coeffs = _recurrence(ctx, ordered, dims, ncounts, weyls)
    _verify_recurrence(ordered, dims, ncounts, weyls, coeffs)
    return GRingElement(ctx, coeffs)


def _verify_recurrence(ordered, dims, ncounts, weyls, coeffs) -> None:
    """Re-check the defining relation for every class in the lattice."""
    for i, cls in enumerate(ordered):
        total = coeffs[cls] * weyls[i]
        for j in range(i):
            total += coeffs[ordered[j]] * ncounts(i, j) * weyls[j]
        expected = -1 if dims[i] % 2 else 1
        if total != expected:
            raise RecurrenceError(
                f"degree coefficients violate the defining relation at {cls.name()}"
            )


def x_o(ctx: GammaContext, k: int, l: int, cls: AmalgamatedClass) -> int:
    """Top-coefficient magnitude of a maximal class: 0, 1 or 2."""
    dim = fixed_dim(cls, k, l)
    if dim % 2 == 0:
        return 0
    w = weyl_order(cls)
    if w == 2:
        return 1
    if w == 1:
        return 2
    raise ValueError(
        f"maximal class {cls.name()} has odd fixed dimension but Weyl order {w}; "
        "expected 1 or 2"
    )


def degree_product(ctx: GammaContext, factors) -> GRingElement:
    """Product of basic degrees deg^(m_kl) with exponents reduced mod 2.

    ``factors`` iterates (k, l, multiplicity); each squared basic degree is
    the identity, so only odd multiplicities contribute.
    """
    result = GRingElement.unit(ctx)
    for (k, l, mult) in sorted(factors):
        if mult % 2:
            result = result * basic_degree(ctx, k, l)
    return result
