"""Basic degrees of the blocks W_k (x) V_l and their Burnside products.

The degree of -id on the unit ball of one irreducible block is the ring
element sum n_L (L) whose mark at every orbit type H is (-1)^dim Fix(H)
(Balanov-Krawcewicz-Steinlein, Applied Equivariant Degree, 2006):

    sum_{(L) >= (H)} n_L * mark(H, L) = (-1)^dim Fix(H),

solved top-down over the block's orbit types and the full group G, with
mark(H, H) = |W(H)|.  Every division must be exact; a remainder means the
lattice data is wrong and is reported loudly.  Each class is solved once,
and the classes after H have mark 0 at H, so the relation holds by
construction.  Products reduce exponents mod 2 first (each basic
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
    mark,
    memoised,
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

    For k >= 2 it is the degree at mode 1 with every class folded by k;
    `orbit_types` refuses a negative mode.
    """
    if k <= 1:
        return _basic_degree_base(ctx, k, l)
    base = basic_degree(ctx, 1, l)
    return GRingElement(ctx, {fold(c, k): v for c, v in base.coeffs.items()})


def _basic_degree_base(ctx: GammaContext, k: int, l: int) -> GRingElement:
    """Solve the marks identity over the orbit types of W_k (x) V_l, k in
    {0, 1}, and the full group, larger classes first (no finite class lies
    above an O(2) x K class)."""
    ordered = sorted(
        {full_group(ctx), *orbit_types(ctx, k, l)},
        key=lambda c: (c.kind == "fin", -c.size, c.key),
    )
    coeffs: dict = {}
    for cls in ordered:
        num = (-1) ** fixed_dim(cls, k, l) - sum(
            n * mark(cls, above) for above, n in coeffs.items() if n
        )
        w = weyl_order(cls)
        if num % w:
            raise RecurrenceError(
                f"recurrence is non-integral at {cls.name()}: "
                f"{num} not divisible by Weyl order {w}"
            )
        coeffs[cls] = num // w
    return GRingElement(ctx, coeffs)


def x_o(ctx: GammaContext, k: int, l: int, cls: AmalgamatedClass) -> int:
    """Top-coefficient magnitude of a maximal class H: 0, 1 or 2.

    Only G, with n_G = 1 and mark 1, lies above H, so the marks identity
    gives n_H = ((-1)^dim Fix(H) - 1) / |W(H)|, and x_o = |n_H|.
    """
    num = (-1) ** fixed_dim(cls, k, l) - 1
    w = weyl_order(cls)
    if num % w:
        raise ValueError(
            f"maximal class {cls.name()} has odd fixed dimension but Weyl order {w}; "
            "expected 1 or 2"
        )
    return -num // w


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
