"""Spectral analysis of the linearized delay network and the theorem engine.

For m commensurate delays the linearization acts on Fourier mode k through
the coupling sum c_k = sum_j exp(2*pi*i*j*k/m) * mu_j, which is real when
mu_j = mu_{m-j} (time reversibility).  The block eigenvalue on mode k is

    xi_{k,l} = (k^2 + c_k^l) / (1 + k^2),

negative exactly when c_k^l < -k^2, so only finitely many blocks carry
degree contributions.  For exact mu, c_k is summed in Q(zeta_m) and is
exact whenever it is rational; otherwise floats are used.  Every zero test
goes through `_is_zero` with the one tolerance of `LinearizationData`: an
exact value is zero only when it is 0, a float when it lies within the
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import cos, lcm, pi

from .basicdeg import GRingElement, degree_product, x_o
from .chartab import CharacterTable, IsotypicDecomposition
from .cyclotomic import _reduce
from .o2gamma import (
    AmalgamatedClass,
    GammaContext,
    fixed_dim,
    maximal_orbit_types,
    weyl_order,
)

DEFAULT_TOL = 1e-9


def _is_zero(v, tol) -> bool:
    """v == 0 for an int or a Fraction, |v| <= tol for a float."""
    return v == 0 if isinstance(v, (int, Fraction)) else abs(v) <= tol


class ReversibilityError(ValueError):
    pass


class ScalarityError(ValueError):
    """The linearization does not act as a scalar on an isotypic component."""


class DegenerateSpectrumError(ValueError):
    """0 is an eigenvalue of the linearized operator."""


class ComplexTypeError(ValueError):
    """An isotypic component of the network is not of real type."""


def require_real_components(table: CharacterTable, decomposition: IsotypicDecomposition):
    """Reject a network with a component of complex type; the theory and
    the exact projectors cover real-type components only."""
    for l, mult in enumerate(decomposition.multiplicities):
        if mult and not table.real_type[l]:
            raise ComplexTypeError(f"component {l + 1} is not of real type; unsupported")


@dataclass
class LinearizationData:
    """Scalar values mu_j^l of the linearization on each isotypic component.

    mu[l] is the tuple (mu_0^l, ..., mu_{m-1}^l); reversibility demands
    mu_j = mu_{m-j} for every component.  The data is exact when every
    value is an int or a Fraction.  tol serves every zero test of the
    spectrum: two exact values must be equal, a pair with a float must
    agree within tol * max(1, |mu_j|, |mu_{m-j}|), scaled as the scalarity
    test of `from_matrices` is.  coupling_bound = m max |mu_j^l| bounds
    every |c_k^l|.
    """

    m: int
    mu: dict[int, tuple]
    tol: float = DEFAULT_TOL
    exact: bool = field(init=False)
    coupling_bound: float = field(init=False)

    def __post_init__(self):
        self.exact = all(
            isinstance(v, (int, Fraction)) for row in self.mu.values() for v in row
        )
        for l, row in self.mu.items():
            if len(row) != self.m:
                raise ValueError(f"component {l + 1}: expected {self.m} delay values")
            for j in range(1, self.m):
                a, b = row[j], row[self.m - j]
                if not _is_zero(a - b, self.tol * max(1, abs(a), abs(b))):
                    raise ReversibilityError(
                        f"component {l + 1}: mu_{j} != mu_{self.m - j}"
                    )
        self.coupling_bound = self.m * max(
            (abs(float(v)) for row in self.mu.values() for v in row), default=0.0
        )

    @staticmethod
    def from_matrices(
        table: CharacterTable,
        decomposition: IsotypicDecomposition,
        matrices,
        tol: float = DEFAULT_TOL,
        action=None,
    ) -> "LinearizationData":
        """Extract mu_j^l from raw matrices by isotypic projection.

        action maps a group element to the permutation of the network's
        nodes it acts by (default: the group's own action).  Each matrix
        must act as a scalar on every component present in the
        decomposition; a non-scalar block is rejected, and so is a component
        of complex type, whose projector has no rational entries.
        """
        action = action or (lambda g: g)
        n = len(action(table.group.identity))
        for mat in matrices:
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError("linearization matrices must match the network size")
        require_real_components(table, decomposition)
        mu: dict[int, tuple] = {}
        for l, mult in enumerate(decomposition.multiplicities):
            if mult == 0:
                continue
            if not all(v.is_rational() for v in table.rows[l]):
                raise ValueError(
                    f"component {l + 1} has irrational character values, so its "
                    "isotypic projector is not rational; give the linearization "
                    "in 'mu' form"
                )
            cols = [col for col in zip(*_isotypic_projector(table, l, action)) if any(col)]
            mu[l] = tuple(_scalar_on_component(mat, cols, tol, l) for mat in matrices)
        return LinearizationData(m=len(matrices), mu=mu, tol=tol)

    def component_indices(self) -> list[int]:
        return sorted(self.mu)


def _isotypic_projector(table: CharacterTable, l: int, action=None):
    """Projector onto component l of the action (default: the group's own)."""
    action = action or (lambda g: g)
    group = table.group
    n = len(action(group.identity))
    dim = table.dims()[l]
    proj = [[Fraction(0)] * n for _ in range(n)]
    for g in group.elements:
        chi = table.rows[l][table.class_of(g)]
        w = Fraction(dim, group.order) * chi.as_fraction()
        p = action(g)
        for col in range(n):
            proj[p[col]][col] += w
    return proj


def _scalar_on_component(mat, cols, tol, l):
    """The scalar mu with mat.P = mu.P, checked on the nonzero columns of
    the isotypic projector P; mu is read off the first of them.

    An exact matrix is the int matrix A over the common denominator d of
    its entries, and scaling a column of P keeps mat.P = mu.P, so each
    column is scaled to ints too: the products A.c are then in int
    arithmetic and each column is tested as A.c == d.mu.c.
    """
    d = 1
    if all(isinstance(a, (int, Fraction)) for row in mat for a in row):
        d = lcm(*(a.denominator for row in mat for a in row))
        mat = [[a.numerator * (d // a.denominator) for a in row] for row in mat]
        cols = [_integer_column(col) for col in cols]
        d = Fraction(d)
    mu = None
    for col in cols:
        image = [sum(a * c for a, c in zip(row, col)) for row in mat]
        if mu is None:
            mu = sum(x * c for x, c in zip(image, col)) / (d * sum(c * c for c in col))
            d_mu = d * mu
        scale = max(1.0, max(abs(x) for x in image))
        if not all(_is_zero(x - d_mu * c, tol * scale) for x, c in zip(image, col)):
            raise ScalarityError(
                f"component {l + 1}: matrix is not scalar on the isotypic block"
            )
    return mu


def _integer_column(col) -> list[int]:
    e = lcm(*(c.denominator for c in col))
    return [c.numerator * (e // c.denominator) for c in col]


def coupling_coefficient(data: LinearizationData, l: int, k: int):
    """c_k^l = sum_j mu_j^l cos(2*pi*j*k/m); the sine part cancels by
    reversibility.  For exact mu, 2 c_k = sum_j mu_j (zeta_m^jk + zeta_m^-jk)
    is reduced once in Q(zeta_m): a Fraction when it is rational (every
    coordinate but the constant one is 0), else a float."""
    row = data.mu[l]
    m = data.m
    if data.exact:
        powers = [0] * m
        for j, v in enumerate(row):
            powers[j * k % m] += v
            powers[-j * k % m] += v
        c = _reduce(powers, m)
        if not any(c[1:]):
            return Fraction(c[0]) / 2
    return float(sum(float(v) * cos(2 * pi * j * k / m) for j, v in enumerate(row)))


def xi(data: LinearizationData, l: int, k: int):
    c = coupling_coefficient(data, l, k)
    return (k * k + c) / (1 + k * k)


def default_k_max(data: LinearizationData) -> int:
    k = 1
    while k * k <= data.coupling_bound + 1:
        k += 1
    return k


SIGN_CHARS = {1: "+", 0: "0", -1: "-"}


@dataclass
class SpectralTable:
    """The sign of each block eigenvalue xi_{k,l}, k = 0..k_max, keyed
    (k, l) component-major with k ascending; multiplicities, degenerate
    blocks and resonances are read off the signs."""

    data: LinearizationData
    decomposition: IsotypicDecomposition
    k_max: int
    signs: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def components(self) -> list[int]:
        return self.data.component_indices()

    def build(self) -> "SpectralTable":
        for l in self.components:
            for k in range(0, self.k_max + 1):
                v = xi(self.data, l, k)
                self.signs[(k, l)] = 0 if _is_zero(v, self.data.tol) else (1 if v > 0 else -1)
        self._check_tail()
        return self

    def multiplicity(self, k: int, l: int) -> int:
        """m_{k,l}: the multiplicity of component l when the block (k, l) is
        negative, else 0 (also beyond k_max, where every block is positive)."""
        return self.decomposition.multiplicities[l] if self.signs.get((k, l), 0) < 0 else 0

    @property
    def degenerate(self) -> list[tuple[int, int]]:
        """The blocks with a zero eigenvalue, in the order of the signs,
        which report.json keeps."""
        return [kl for kl, sign in self.signs.items() if sign == 0]

    def _check_tail(self) -> None:
        if self.k_max * self.k_max <= self.data.coupling_bound:
            raise ValueError(
                f"k_max={self.k_max} too small: negative blocks may be missed"
            )
        for (k, l), sign in self.signs.items():
            if k == self.k_max and sign <= 0:
                raise ValueError(
                    f"tail bound violated: block (k={k}, l={l + 1}) is not positive"
                )

    def zero_spectrum(self) -> bool:
        return bool(self.degenerate)

    def negative_factors(self) -> list[tuple[int, int, int]]:
        """(k, l, multiplicity) for each negative block."""
        return [(k, l, m) for (k, l) in sorted(self.signs) if (m := self.multiplicity(k, l))]

    def sign_grid(self) -> list[list[str]]:
        return [
            [SIGN_CHARS[self.signs[(k, l)]] for l in self.components]
            for k in range(self.k_max + 1)
        ]

    def resonance_set(self) -> set[int]:
        """All modes where some block eigenvalue vanishes.

        _check_tail makes k_max^2 > coupling_bound >= |c_k|, so no block beyond
        k_max can vanish and the degenerate blocks are all of them.
        """
        return {k for (k, l) in self.degenerate}


def survival_parity(table: SpectralTable, cls: AmalgamatedClass, k: int) -> int:
    """Number of negative blocks at mode k in which the class has odd fixed
    dimension; odd parity is the sufficient test for a surviving
    coefficient."""
    total = 0
    for l in table.components:
        m = table.multiplicity(k, l)
        if m and fixed_dim(cls, k, l) % 2 == 1:
            total += m
    return total


@dataclass
class Conclusion:
    cls: AmalgamatedClass
    mode: int
    component: int
    coefficient: int | None
    x_o: int
    parity: int

    def jsonable(self) -> dict:
        return {
            "class": self.cls.name(),
            "fingerprint": list(self.cls.fingerprint()),
            "mode": self.mode,
            "component": self.component + 1,
            "coefficient": self.coefficient,
            "x_o": self.x_o,
            "parity": self.parity,
            "weyl_order": weyl_order(self.cls),
            "non_constant": True,
        }


@dataclass
class DegreeReport:
    omega: GRingElement | None
    conclusions: list[Conclusion]


def assemble_omega(ctx: GammaContext, spectral: SpectralTable) -> DegreeReport:
    """Full degree computation: omega = (G) - prod of basic degrees.

    Requires a nondegenerate spectrum; conclusions list every maximal-kind
    class at modes k >= 1 whose omega-coefficient is nonzero (each is
    finite, hence guarantees a non-constant orbit of periodic solutions
    with that extended symmetry class).
    """
    if spectral.zero_spectrum():
        raise DegenerateSpectrumError(
            f"zero block eigenvalue at {spectral.degenerate}; "
            "use the resonance-avoiding route"
        )
    factors = spectral.negative_factors()
    omega = GRingElement.unit(ctx) - degree_product(ctx, factors)
    modes = sorted({k for (k, l, m) in factors if k >= 1})
    blocks = [(k, l) for k in modes for l in spectral.components]
    return DegreeReport(
        omega=omega,
        conclusions=_conclusions(
            ctx, spectral, blocks, lambda cls, parity: omega.coeff(cls)
        ),
    )


def _conclusions(ctx, spectral, blocks, coefficient) -> list[Conclusion]:
    """One conclusion per maximal orbit type of the blocks (k, l), taken at
    the first block that has it.

    coefficient(cls, parity) is the coefficient to report, or 0 to drop the
    class: the omega coefficient, or None for an odd survival parity on the
    resonance-avoiding route.
    """
    out = []
    seen = set()
    for k, l in blocks:
        for cls in maximal_orbit_types(ctx, k, l):
            if cls.key in seen:
                continue
            parity = survival_parity(spectral, cls, k)
            coeff = coefficient(cls, parity)
            if coeff == 0:
                continue
            seen.add(cls.key)
            out.append(Conclusion(cls, k, l, coeff, x_o(ctx, k, l, cls), parity))
    out.sort(key=lambda c: (c.mode, c.component, c.cls.key))
    return out


def theorem_conclusions_resonant(
    ctx: GammaContext, spectral: SpectralTable, s: int
) -> DegreeReport:
    """Resonance-avoiding route: restrict to modes k = (2j-1)s.

    s must be chosen so that no odd multiple of s is resonant; conclusions
    come from the parity counts at those modes.
    """
    bad = sorted(r for r in spectral.resonance_set() if r > 0 and (r // s) % 2 == 1 and r % s == 0)
    if bad:
        raise ValueError(
            f"s={s} is not admissible: resonant mode {bad[0]} is an odd multiple of s"
        )
    modes = [k for k in range(1, spectral.k_max + 1) if (k % s == 0) and (k // s) % 2 == 1]
    blocks = [
        (k, l) for k in modes for l in spectral.components if spectral.multiplicity(k, l)
    ]
    return DegreeReport(
        omega=None,
        conclusions=_conclusions(
            ctx, spectral, blocks, lambda cls, parity: None if parity % 2 else 0
        ),
    )


def check_growth_condition(rhs, n: int, m: int, radius: float, samples: int = 2000, seed: int = 0):
    """Sampled check of the outward-pointing condition x . f(x, y) > 0 on the
    shell |x| in [R, 2R], |y_j| <= |x|.  Heuristic evidence, not a proof.

    ``rhs(args)`` evaluates the right-hand side on a flat list of m*n
    floats (current state first, then the delayed blocks).

    Each draw in [a, b] is a + (b - a) * random(), the arithmetic of
    ``Random.uniform``, so the samples are those of uniform(a, b).
    """
    import random
    from operator import mul

    draw = random.Random(seed).random
    worst = None
    positive = 0
    for _ in range(samples):
        scale = radius * (1 + draw())
        span = 2 * scale
        x = [-1 + 2 * draw() for _ in range(n)]
        top = max(map(abs, x)) or 1.0
        x = [v * scale / top for v in x]
        args = x + [-scale + span * draw() for _ in range((m - 1) * n)]
        dot = sum(map(mul, x, rhs(args)))
        if worst is None or dot < worst:
            worst = dot
        if dot > 0:
            positive += 1
    return {
        "samples": samples,
        "positive": positive,
        "min_dot": worst,
        "all_positive": positive == samples,
        "note": "sampled evidence only",
    }
