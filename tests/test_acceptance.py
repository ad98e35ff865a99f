"""Acceptance suite: the exit criteria for the engine, one test per
criterion, each printing a PASS/FAIL line with its runtime."""

import itertools
import time
from fractions import Fraction
from functools import wraps
from math import pi

import numpy as np

from eqdeg import o2gamma as og
from eqdeg.basicdeg import GRingElement, basic_degree, degree_product, x_o
from eqdeg.chartab import (
    SignedGroup,
    bundled_table,
    isotypic_multiplicities,
    permutation_character,
)
from eqdeg.ddedeg import LinearizationData, SpectralTable, xi
from eqdeg.o2gamma import GammaContext, fold, maximal_orbit_types, weyl_order

from conftest import (
    dense_delayed_arguments,
    hexagon_coupling_matrix,
    hexagon_delay_matrices,
    second_derivative_matrix,
    zero_jacobian_mode_blocks,
)

F = Fraction


def criterion(num, desc, limit=None):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except Exception:
                dt = time.perf_counter() - t0
                print(f"\nACCEPTANCE {num}: FAIL - {desc} ({dt:.2f}s)")
                raise
            dt = time.perf_counter() - t0
            print(f"\nACCEPTANCE {num}: PASS - {desc} ({dt:.2f}s)")
            if limit is not None:
                assert dt < limit, f"criterion {num} exceeded {limit}s ({dt:.2f}s)"
        return wrapper
    return deco


# reference list of guaranteed classes: per block, the structural
# fingerprints (H kind, |H|, |Z|, |L|, |R|, |K|)
EXPECTED_MAXIMA = {
    (1, 0): [("D", 4, 2, 2, 12, 24)],
    (1, 3): [("D", 4, 2, 2, 12, 24)],
    (1, 4): [("D", 12, 1, 12, 2, 24), ("D", 4, 2, 2, 4, 8), ("D", 4, 2, 2, 4, 8)],
    (1, 5): [("D", 12, 1, 12, 2, 24), ("D", 4, 2, 2, 4, 8), ("D", 4, 2, 2, 4, 8)],
    (2, 3): [("D", 8, 4, 2, 12, 24)],
    (2, 4): [("D", 24, 2, 12, 2, 24), ("D", 8, 4, 2, 4, 8), ("D", 8, 4, 2, 4, 8)],
    (2, 5): [("D", 24, 2, 12, 2, 24), ("D", 8, 4, 2, 4, 8), ("D", 8, 4, 2, 4, 8)],
}

NEGATIVE_BLOCKS = [
    (0, 0, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1),
    (1, 0, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1),
    (2, 3, 1), (2, 4, 1), (2, 5, 1),
]


@criterion(1, "hexagon character and isotypic multiplicities", limit=0.1)
def test_acceptance_1_character_isotypics():
    table = bundled_table("D6")
    chi = permutation_character(table)
    assert chi == (6, 2, 0, 0, 0, 0)
    dec = isotypic_multiplicities(chi, table)
    assert dec.multiplicities == (1, 0, 0, 1, 1, 1)


@criterion(2, "circulant spectrum per isotypic component, exact", limit=0.1)
def test_acceptance_2_circulant_spectrum():
    table = bundled_table("D6")
    chi = permutation_character(table)
    dec = isotypic_multiplicities(chi, table)
    lin = LinearizationData.from_matrices(table, dec, [hexagon_coupling_matrix()])
    values = {lin.mu[l][0] for l in lin.mu}
    assert values == {F(-8, 10), F(-9, 10), F(-11, 10), F(-12, 10)}
    assert lin.exact


@criterion(3, "reference sign grid reproduced; positive tail to k=50",
           limit=0.5)
def test_acceptance_3_sign_table():
    table = bundled_table("D6")
    chi = permutation_character(table)
    dec = isotypic_multiplicities(chi, table)
    lin = LinearizationData.from_matrices(table, dec, hexagon_delay_matrices())
    spectral = SpectralTable(lin, dec, k_max=50).build()
    grid = spectral.sign_grid()
    assert grid[0] == ["-", "-", "-", "-"]
    assert grid[1] == ["-", "-", "-", "-"]
    assert grid[2] == ["+", "-", "-", "-"]
    assert grid[3] == ["+", "+", "+", "+"]
    for k in range(4, 51):
        assert grid[k] == ["+", "+", "+", "+"]
    assert all(isinstance(xi(spectral.data, l, k), F) for (k, l) in spectral.signs)


@criterion(4, "15 maximal classes by fingerprint with exact fold pairing",
           limit=60.0)
def test_acceptance_4_maximal_classes():
    ctx = GammaContext.from_signed_group(SignedGroup(bundled_table("D6")))
    found = {}
    for (k, l), expected in EXPECTED_MAXIMA.items():
        classes = maximal_orbit_types(ctx, k, l)
        got = sorted(c.fingerprint() for c in classes)
        assert got == sorted(expected), (k, l)
        found[(k, l)] = classes
        for c in classes:
            assert weyl_order(c) in (1, 2)
            assert og.fixed_dim(c, k, l) % 2 == 1
    total = sum(len(v) for v in found.values())
    assert total == 15
    # folding pairs: mode-2 maxima are exactly the 2-folds of mode-1 maxima
    for l in (3, 4, 5):
        folds = sorted(fold(c, 2).key for c in found[(1, l)])
        assert folds == sorted(c.key for c in found[(2, l)])


@criterion(5, "degree product: nonzero coefficient +-x_o at all 15 classes",
           limit=120.0)
def test_acceptance_5_degree_product():
    ctx = GammaContext.from_signed_group(SignedGroup(bundled_table("D6")))
    product = degree_product(ctx, NEGATIVE_BLOCKS)
    omega = GRingElement.unit(ctx) - product
    checked = 0
    for (k, l), _ in EXPECTED_MAXIMA.items():
        for cls in maximal_orbit_types(ctx, k, l):
            coeff = omega.coeff(cls)
            expected = x_o(ctx, k, l, cls)
            assert coeff != 0, (k, l, cls.name())
            assert abs(coeff) == expected, (k, l, cls.name())
            checked += 1
    assert checked == 15


@criterion(6, "Burnside ring axioms, orbit counts, recurrence integrality")
def test_acceptance_6_burnside_properties():
    # the ring laws on O(2) x K classes of plain contexts, which multiply
    # through class_product and the double-coset rule of Gamma'
    for name in ("D6", "S3"):
        ctx = GammaContext.from_character_table(bundled_table(name))
        lat = ctx.lattice
        classes = [og.make_o2(ctx, c.rep_set) for c in lat.classes]
        gens = [GRingElement(ctx, {c: 1}) for c in classes]
        n = len(gens)
        for i in range(n):
            for j in range(n):
                c1, c2 = classes[i], classes[j]
                assert og._product_o2(ctx, c1, c2) == og._product_o2(ctx, c2, c1)
                prod = gens[i] * gens[j]
                assert prod == gens[j] * gens[i]
                total = sum(
                    c * lat.group.order // len(cls.K) for cls, c in prod.coeffs.items()
                )
                assert total == (lat.group.order // lat.classes[i].order) * (
                    lat.group.order // lat.classes[j].order
                )
        for i, j, k in itertools.product(range(n), repeat=3):
            assert (gens[i] * gens[j]) * gens[k] == gens[i] * (gens[j] * gens[k])
    # recurrence integrality across every basic degree of the run: the
    # builders raise on any non-integral division or failed re-verification
    ctx = GammaContext.from_signed_group(SignedGroup(bundled_table("D6")))
    for (k, l, _) in NEGATIVE_BLOCKS:
        basic_degree(ctx, k, l)


@criterion(7, "involution and product-coefficient laws for basic degrees")
def test_acceptance_7_involution_and_lemmas():
    ctx = GammaContext.from_signed_group(SignedGroup(bundled_table("D6")))
    unit = GRingElement.unit(ctx)
    for (k, l, _) in NEGATIVE_BLOCKS:
        deg = basic_degree(ctx, k, l)
        assert deg * deg == unit, (k, l)
    # same-type pair: a maximal class shared by two factors with odd fixed
    # dimension loses its coefficient in the product
    deg14 = basic_degree(ctx, 1, 3)
    top14 = maximal_orbit_types(ctx, 1, 3)[0]
    assert deg14.coeff(top14) == -1
    assert (deg14 * deg14).coeff(top14) == 0
    # folded pair: the coefficient at the base class survives as -x_o
    for l in (3, 4):
        prod = basic_degree(ctx, 1, l) * basic_degree(ctx, 2, l)
        for base in maximal_orbit_types(ctx, 1, l):
            xo = x_o(ctx, 1, l, base)
            assert prod.coeff(base) == -xo != 0
            assert prod.coeff(fold(base, 2)) == -xo


@criterion(8, "verifier cross-validation: blocks, manufactured Newton, reversibility")
def test_acceptance_8_verifier_cross_validation(d6_analysis):
    from eqdeg.verifier import FourierSolution, newton_solve, residual, SystemSpec

    lin_mats = [
        [[float(v) for v in row] for row in m] for m in hexagon_delay_matrices()
    ]
    spec = SystemSpec(n=6, m=6, period=2 * pi, linear=lin_mats)
    K = 6
    blocks = zero_jacobian_mode_blocks(spec, K)
    dims = {0: 1, 3: 1, 4: 2, 5: 2}
    for k, block in blocks.items():
        got = np.sort(np.linalg.eigvals(block).real)
        expected = []
        for l, d in dims.items():
            lam = -(1 + k * k) * float(xi(d6_analysis.lin, l, k))
            expected.extend([lam] * (d * (2 if k else 1)))
        expected = np.sort(np.array(expected))
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(got - expected)) <= 1e-9 * scale, k

    # manufactured solution: recover to residual < 1e-10 from a 10% bump
    small = SystemSpec(
        n=2, m=2, period=2 * pi,
        linear=[[[-2.0, 0.3], [0.3, -2.0]], [[0.5, 0.0], [0.0, 0.5]]],
        terms=[[(0.2, ((0, 3),))], [(0.2, ((1, 3),))]],
    )
    Km = 10
    target = np.zeros((2 * Km + 1, 2))
    target[Km + 1] = [0.8, -0.3]
    exact = FourierSolution(Km, target)
    N = 4 * Km + 1
    t = np.linspace(0, 2 * pi, N, endpoint=False)
    forcing = (
        second_derivative_matrix(Km, t) @ exact.coeffs
        - small.rhs(dense_delayed_arguments(small, exact, t))
    )
    sol, rep = newton_solve(small, FourierSolution(Km, target * 1.1),
                            tol=1e-13, forcing=forcing)
    assert rep.converged and rep.residual_sup < 1e-10

    # reversibility: the residual of the time-reversed trajectory matches
    rng = np.random.default_rng(11)
    wob = FourierSolution(8, 0.2 * rng.standard_normal((17, 6)))
    r1 = residual(spec, wob)
    r2 = residual(spec, wob.transformed(0.0, reverse=True))
    assert abs(r1 - r2) <= 1e-12 * max(1.0, r1)


@criterion(9, "end-to-end orbit corroboration")
def test_acceptance_9_end_to_end(d6ctx):
    from eqdeg.verifier import (
        FourierSolution,
        NewtonReport,
        class_matches_symmetries,
        isotropy_of_trajectory,
        newton_solve,
        SystemSpec,
    )

    lin_mats = [
        [[float(v) for v in row] for row in m] for m in hexagon_delay_matrices()
    ]
    terms = [[(0.5, ((c, 3),))] for c in range(6)]
    spec = SystemSpec(n=6, m=6, period=2 * pi, linear=lin_mats, terms=terms)
    spec.check_reversible()
    spec.check_odd()
    w5 = np.array([np.cos(2 * np.pi * v / 6) for v in range(6)])
    K = 32
    coeffs = np.zeros((2 * K + 1, 6))
    coeffs[1] = 4.3 * w5
    sol, rep = newton_solve(spec, FourierSolution(K, coeffs), tol=1e-12, max_iter=100)
    assert isinstance(rep, NewtonReport)
    assert rep.converged, rep.message
    assert not sol.is_constant()
    assert rep.residual_sup < 1e-8
    perms = sorted({tuple(g) for g in d6ctx.signed.gamma.elements})

    syms = isotropy_of_trajectory(sol, perms, tol=1e-6, theta_denominator=12)
    guaranteed = []
    for l in (0, 3, 4, 5):
        guaranteed.extend(maximal_orbit_types(d6ctx, 1, l))
    matched = [
        c for c in guaranteed if class_matches_symmetries(c, syms)
    ]
    assert matched, "converged orbit carries no guaranteed symmetry class"
