import itertools
from collections import Counter
from fractions import Fraction
from math import pi

import numpy as np
import pytest

from eqdeg.verifier import (
    FourierSolution,
    NewtonReport,
    SpecError,
    SystemSpec,
    _jacobian_tables,
    _mode_jacobian,
    apriori_check,
    class_matches_symmetries,
    element_symmetry,
    fft_length,
    isotropy_of_trajectory,
    modes,
    newton_solve,
    normalize,
    residual,
    _invariant_rows,
)

from eqdeg.cli import bundled_example_path, load_config, run_analyze
from eqdeg.ddedeg import _isotypic_projector
from eqdeg.o2gamma import fixed_dim

from conftest import (
    basis_matrix,
    concatenated_monomials,
    dense_delayed_arguments,
    full_isotropy_scan,
    hexagon_delay_matrices,
    projection_matrix,
    rhs_jacobian_oracle,
    rhs_oracle,
    sampled_apriori_m1,
    second_derivative_matrix,
    zero_jacobian_mode_blocks,
)


def d6_linear_spec(cubic=0.0):
    lin = [[[float(v) for v in row] for row in m] for m in hexagon_delay_matrices()]
    terms = [[(cubic, ((c, 3),))] for c in range(6)] if cubic else None
    return SystemSpec(n=6, m=6, period=2 * pi, linear=lin, terms=terms or [])


def small_spec():
    a0 = [[-2.0, 0.3], [0.3, -2.0]]
    a1 = [[0.5, 0.0], [0.0, 0.5]]
    terms = [
        [(0.2, ((0, 3),)), (0.1, ((1, 1), (2, 2)))],
        [(0.2, ((1, 3),)), (0.1, ((0, 1), (3, 2)))],
    ]
    return SystemSpec(n=2, m=2, period=2 * pi, linear=[a0, a1], terms=terms)


def test_normalize_identity_and_scaling():
    spec = small_spec()
    same = normalize(spec)
    assert np.allclose(same.linear[0], spec.linear[0])
    spec4 = SystemSpec(n=2, m=2, period=4 * pi, linear=spec.linear, terms=spec.terms)
    scaled = normalize(spec4)
    assert np.allclose(scaled.linear[0], 4.0 * np.asarray(spec.linear[0]))
    assert scaled.terms[0][0][0] == pytest.approx(4.0 * spec.terms[0][0][0])
    assert scaled.period == pytest.approx(2 * pi)


def test_reversibility_and_oddness_validation():
    spec = small_spec()
    spec.check_reversible()
    spec.check_odd()
    bad = SystemSpec(
        n=2,
        m=3,
        period=2 * pi,
        linear=[np.eye(2), 2 * np.eye(2), np.eye(2) * 3],
    )
    with pytest.raises(SpecError):
        bad.check_reversible()
    even = SystemSpec(n=1, m=1, period=2 * pi, terms=[[(1.0, ((0, 2),))]])
    with pytest.raises(SpecError):
        even.check_odd()
    # tol is absolute: numpy's default rtol of 1e-5 would accept blocks 1
    # and m - 1 that differ by 5e-6 relative
    base = np.array([[1.0, 0.2], [0.2, 1.0]])
    near = SystemSpec(n=2, m=3, period=2 * pi, linear=[np.eye(2), base, base * (1 + 5e-6)])
    with pytest.raises(SpecError):
        near.check_reversible()
    near.check_reversible(tol=1e-5)
    # term coefficients follow the same tol: at tol = 0 a mirrored partner
    # 5e-13 off is no partner, so Newton must not drop the sin rows
    skew = SystemSpec(
        n=1, m=3, period=2 * pi, terms=[[(0.5, ((1, 1), (0, 2))), (0.5 + 5e-13, ((2, 1), (0, 2)))]]
    )
    with pytest.raises(SpecError):
        skew.check_reversible()
    skew.check_reversible(tol=1e-12)


def test_residual_zero_solution():
    spec = small_spec()
    sol = FourierSolution(8, np.zeros((17, 2)))
    assert residual(spec, sol) == 0.0


def test_residual_pure_cosine_no_rhs():
    spec = SystemSpec(n=2, m=1, period=2 * pi)
    K = 6
    coeffs = np.zeros((2 * K + 1, 2))
    u = np.array([0.7, -0.4])
    coeffs[1] = u
    sol = FourierSolution(K, coeffs)
    # x'' = -cos(t) u and f = 0, so the sup of the residual is |u|_inf
    assert residual(spec, sol) == pytest.approx(np.max(np.abs(u)), rel=1e-12)


def test_residual_grid_guard():
    spec = small_spec()
    sol = FourierSolution(8, np.zeros((17, 2)))
    with pytest.raises(SpecError):
        residual(spec, sol, grid_size=16)


def test_delay_shift_matches_fft_oracle():
    rng = np.random.default_rng(3)
    K = 9
    sol = FourierSolution(K, rng.standard_normal((2 * K + 1, 3)))
    shifts = 2 * pi * np.arange(5) / 5
    # oracle: the dense cos/sin basis evaluated at t - shift
    for N in (2 * K + 1, 64):
        t = np.linspace(0, 2 * pi, N, endpoint=False)
        direct = sol.samples(N, shifts)
        assert direct.shape == (len(shifts), N, 3)
        for tau, block in zip(shifts, direct):
            assert np.max(np.abs(block - basis_matrix(K, t, shift=tau) @ sol.coeffs)) < 1e-12


# 2K+1, 2K+2 and 4K+1 points for K = 9, and 64
@pytest.mark.parametrize("N", [19, 20, 37, 64])
def test_modes_inverts_samples(N):
    rng = np.random.default_rng(N)
    K = 9
    sol = FourierSolution(K, rng.standard_normal((2 * K + 1, 3)))
    assert np.max(np.abs(modes(sol.samples(N)[0], K) - sol.coeffs)) < 1e-12
    # on any samples, modes is the dense trigonometric projection
    values = rng.standard_normal((N, 3))
    t = np.linspace(0, 2 * pi, N, endpoint=False)
    assert np.max(np.abs(modes(values, K) - projection_matrix(K, t) @ values)) < 1e-12


def test_grid_with_fewer_than_2K_plus_1_points_is_rejected():
    K = 4
    sol = FourierSolution(K, np.ones((2 * K + 1, 2)))
    with pytest.raises(SpecError):
        sol.samples(2 * K)
    with pytest.raises(SpecError):
        modes(np.ones((2 * K, 2)), K)


def test_forcing_of_the_wrong_shape_is_rejected():
    spec = small_spec()
    K = 4
    sol = FourierSolution(K, np.zeros((2 * K + 1, 2)))
    for bad in (np.array([1.0, 2.0]), np.zeros((4 * K, 2)), np.zeros((4 * K + 1, 3))):
        with pytest.raises(SpecError):
            newton_solve(spec, sol, forcing=bad)
        with pytest.raises(SpecError):
            residual(spec, sol, forcing=bad)
    with pytest.raises(SpecError):
        residual(spec, sol, grid_size=64, forcing=np.zeros((4 * K + 1, 2)))
    assert residual(spec, sol, grid_size=64, forcing=np.ones((64, 2))) == 1.0


def test_jacobian_matches_finite_differences():
    # x_0 x_1^2 written with x_1 as two factors: d/dx_1 is 2 x_0 x_1
    repeated = SystemSpec(
        n=2, m=1, period=2 * pi, terms=[[(0.7, ((1, 1), (0, 1), (1, 1)))], []]
    )
    rng = np.random.default_rng(0)
    for spec in (small_spec(), repeated):
        args = rng.standard_normal((5, spec.m * spec.n))
        jac = spec.rhs_jacobian(args)
        eps = 1e-6
        for v in range(spec.m * spec.n):
            bumped = args.copy()
            bumped[:, v] += eps
            fd = (spec.rhs(bumped) - spec.rhs(args)) / eps
            assert np.max(np.abs(fd - jac[:, :, v])) < 5e-5


def mixed_degree_spec():
    """Terms of degree 0, 3 and 4: a term with a repeated variable
    (x_1 * x_1^2), one with three variables over two delay blocks and a
    constant term, plus a linear part."""
    return SystemSpec(
        n=2,
        m=2,
        period=2 * pi,
        linear=[[[-2.0, 0.3], [0.3, -2.0]], [[0.5, 0.1], [0.0, 0.5]]],
        terms=[
            [(0.7, ((1, 1), (1, 2))), (-0.4, ((0, 1), (3, 2), (2, 1))), (0.25, ())],
            [(1.3, ((2, 3),)), (0.6, ((1, 1), (0, 1), (1, 1)))],
        ],
    )


def test_rhs_and_jacobian_match_the_per_term_oracles():
    rng = np.random.default_rng(8)
    specs = (small_spec(), mixed_degree_spec(), coupled_spec(3, 6, rng), d6_linear_spec(cubic=0.5))
    for spec in specs:
        for rows in (1, 37):
            args = rng.standard_normal((rows, spec.m * spec.n))
            for got, ref in (
                (spec.rhs(args), rhs_oracle(spec, args)),
                (spec.rhs_jacobian(args), rhs_jacobian_oracle(spec, args)),
            ):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        one = rng.standard_normal(spec.m * spec.n)
        assert spec.rhs(one).shape == (1, spec.n)


def test_monomials_equal_the_concatenated_product():
    # the hexagon cubic, and terms of mixed degree whose factor lists are
    # padded with the column of ones
    rng = np.random.default_rng(11)
    for spec in (d6_linear_spec(cubic=0.5), mixed_degree_spec()):
        for monomials in (spec._terms, spec._derivatives):
            for rows in (1, 270):
                args = rng.standard_normal((rows, spec.m * spec.n))
                assert np.array_equal(monomials(args), concatenated_monomials(monomials, args))


def test_terms_must_be_powers_of_variables():
    for factor in ((4, 1), (-1, 1), (0.5, 1), (0, -1), (0, 1.5)):
        with pytest.raises(SpecError):
            SystemSpec(n=2, m=2, period=2 * pi, terms=[[(1.0, (factor,))], []])


def einsum_mode_jacobian(jac_pointwise, P, PD2, B):
    """Reference: one 5-index contraction per delay block."""
    N, n, mn = jac_pointwise.shape
    M = P.shape[0]
    J = np.zeros((M, n, M, n))
    idx = np.arange(n)
    J[:, idx, :, idx] += PD2[None, :, :]
    for j in range(mn // n):
        Df_j = jac_pointwise[:, :, j * n : (j + 1) * n]
        J -= np.einsum("mi,icd,iv->mcvd", P, Df_j, B[j])
    return J


def coupled_spec(n, m, rng):
    """Random linear blocks (n >= 3) plus cubic terms whose partial
    derivatives mix components across delay blocks: x_0 * x_last^2, with
    x_last component 1 of the last block, and x_2 * x_(m-1)n * x_last."""
    lin = [rng.standard_normal((n, n)) for _ in range(m)]
    last = (m - 1) * n + 1
    terms = [[] for _ in range(n)]
    terms[0].append((0.7, ((0, 1), (last, 2))))
    terms[n - 1].append((-0.4, ((2, 1), ((m - 1) * n, 1), (last, 1))))
    terms[1].append((0.3, ((last, 3),)))
    return SystemSpec(n=n, m=m, period=2 * pi, linear=lin, terms=terms)


def collocation_operators(K, m, N=None):
    """Dense oracles on the N-point grid (4K+1 by default): the grid, the
    projection, P @ D2 and the m shifted bases."""
    t = np.linspace(0, 2 * pi, N or 4 * K + 1, endpoint=False)
    P = projection_matrix(K, t)
    PD2 = P @ second_derivative_matrix(K, t)
    B = [basis_matrix(K, t, shift=2 * pi * j / m) for j in range(m)]
    return t, P, PD2, B


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_mode_jacobian_matches_einsum_and_finite_differences(m):
    rng = np.random.default_rng(40 + m)
    n, K = 3, 5
    spec = coupled_spec(n, m, rng)
    M = 2 * K + 1
    t, P, PD2, B = collocation_operators(K, m)
    for _ in range(3):
        sol = FourierSolution(K, 0.5 * rng.standard_normal((M, n)))
        jac_pointwise = spec.rhs_jacobian(dense_delayed_arguments(spec, sol, t))
        off_diagonal = jac_pointwise[:, 0, (m - 1) * n + 1]
        assert np.max(np.abs(off_diagonal)) > 0.1
        J = _mode_jacobian(jac_pointwise, K)
        ref = einsum_mode_jacobian(jac_pointwise, P, PD2, B)
        assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))

        def mode_residual(coeffs):
            args = dense_delayed_arguments(spec, FourierSolution(K, coeffs), t)
            return PD2 @ coeffs - P @ spec.rhs(args)

        direction = rng.standard_normal((M, n))
        eps = 1e-6
        fd = (
            mode_residual(sol.coeffs + eps * direction)
            - mode_residual(sol.coeffs - eps * direction)
        ) / (2 * eps)
        jd = J.reshape(M * n, M * n) @ direction.reshape(-1)
        assert np.max(np.abs(fd.reshape(-1) - jd)) <= 1e-7 * np.max(np.abs(jd))


@pytest.mark.parametrize("n, m, K", [(1, 1, 3), (2, 2, 6), (3, 3, 4), (2, 6, 7)])
def test_mode_jacobian_matches_einsum_on_random_pointwise_jacobian(n, m, K):
    # white-noise entries give weight to every DFT index 0..2K, which a
    # Jacobian built from a spec at small amplitude need not
    rng = np.random.default_rng(60 + 10 * n + m)
    _, P, PD2, B = collocation_operators(K, m)
    jac_pointwise = rng.standard_normal((4 * K + 1, n, m * n))
    top = np.abs(np.fft.rfft(jac_pointwise, axis=0))
    assert np.min(np.max(top, axis=(1, 2))) > 0.1
    J = _mode_jacobian(jac_pointwise, K)
    ref = einsum_mode_jacobian(jac_pointwise, P, PD2, B)
    assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fft_length_is_the_least_5_smooth_length():
    def smooth(v):
        for p in (2, 3, 5):
            while v % p == 0:
                v //= p
        return v == 1

    for n in range(1, 2001):
        assert fft_length(n) == next(v for v in range(n, 2 * n + 1) if smooth(v)), n
    assert fft_length(4 * 64 + 1) == 270 and fft_length(4 * 32 + 1) == 135


@pytest.mark.parametrize("K", [4, 7, 64])
# odd m, where -l mod m and l mod m differ, among them
@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7])
def test_mode_jacobian_on_the_smooth_grid_matches_the_dense_oracle(m, K):
    n = 2
    N = fft_length(4 * K + 1)
    rng = np.random.default_rng(80 + 10 * K + m)
    _, P, PD2, B = collocation_operators(K, m, N)
    jac_pointwise = rng.standard_normal((N, n, m * n))
    J = _mode_jacobian(jac_pointwise, K)
    ref = einsum_mode_jacobian(jac_pointwise, P, PD2, B)
    assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("K", [4, 7, 64])
def test_band_limited_jacobian_does_not_depend_on_the_grid(K):
    # every product w cos_k cos_l(. - s) of a pointwise Jacobian w with modes
    # up to 2K has modes up to 4K, so both grids sum it exactly
    n, m = 2, 3
    rng = np.random.default_rng(90 + K)
    modes_2k = rng.standard_normal((4 * K + 1, n * m * n))
    Js = []
    for N in (4 * K + 1, fft_length(4 * K + 1)):
        t = np.linspace(0, 2 * pi, N, endpoint=False)
        Js.append(_mode_jacobian((basis_matrix(2 * K, t) @ modes_2k).reshape(N, n, m * n), K))
    assert Js[0].shape == Js[1].shape
    assert np.max(np.abs(Js[0] - Js[1])) <= 1e-12 * np.max(np.abs(Js[0]))


def test_mode_jacobian_peak_memory_stays_near_its_output():
    import tracemalloc

    n = m = 6
    K = 64
    # the 4K+1 grid and Newton's smooth grid
    for N in (4 * K + 1, fft_length(4 * K + 1)):
        jac_pointwise = np.random.default_rng(7).standard_normal((N, n, m * n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            J = _mode_jacobian(jac_pointwise, K)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * J.nbytes, N


def row_masks(K):
    """The four row masks Newton can use: every row, the constant and cos
    rows, the odd-k rows, and the odd-k cos rows."""
    k = np.concatenate([np.arange(K + 1), np.arange(1, K + 1)])
    cos = np.arange(2 * K + 1) <= K
    return {"all": np.ones(2 * K + 1, dtype=bool), "cos": cos, "odd": k % 2 == 1, "odd-cos": cos & (k % 2 == 1)}


@pytest.mark.parametrize("K", [4, 7, 64])
def test_restricted_mode_jacobian_is_the_slice_of_the_full_one(K):
    n = 3
    # the 4K+1 grid and Newton's smooth grid; odd m too
    for m, N in itertools.product((5, 6, 7), (4 * K + 1, fft_length(4 * K + 1))):
        jac_pointwise = np.random.default_rng(K).standard_normal((N, n, m * n))
        full = _mode_jacobian(jac_pointwise, K)
        for name, keep in row_masks(K).items():
            J = _mode_jacobian(jac_pointwise, K, keep)
            kept = int(np.count_nonzero(keep))
            assert J.shape == (kept, n, kept, n), (m, N, name)
            assert np.array_equal(J, full[keep][:, :, keep]), (m, N, name)


def partly_constant_jacobian(N, n, m, kind, rng):
    """White noise on the N-point grid, with the columns (c, j, d) that
    kind picks constant on it: every column of the pairs (c, d) with c + d
    even ("mixed"), every column with c + j + d even, so that for m > 1 each
    pair (c, d) is constant for some j and varies for others ("split"), or
    every column ("constant")."""
    c, j, d = np.indices((n, m, n))
    picked = {"mixed": (c + d) % 2 == 0, "split": (c + j + d) % 2 == 0, "constant": c >= 0}[kind]
    jac = rng.standard_normal((N, n, m, n))
    jac[:, picked] = rng.standard_normal(np.count_nonzero(picked))
    return jac.reshape(N, n, m * n)


CONSTANT_KINDS = ("mixed", "split", "constant")


@pytest.mark.parametrize("kind", CONSTANT_KINDS)
@pytest.mark.parametrize("m", [1, 5, 6, 7])
def test_mode_jacobian_with_constant_columns_matches_the_dense_oracle(m, kind):
    # a column constant on the grid adds only to the diagonal blocks, in
    # closed form; the white-noise tests above have no such column
    n, K = 3, 7
    rng = np.random.default_rng(100 + 10 * m + CONSTANT_KINDS.index(kind))
    for N in (4 * K + 1, fft_length(4 * K + 1)):
        _, P, PD2, B = collocation_operators(K, m, N)
        jac_pointwise = partly_constant_jacobian(N, n, m, kind, rng)
        J = _mode_jacobian(jac_pointwise, K)
        ref = einsum_mode_jacobian(jac_pointwise, P, PD2, B)
        assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref)), N
        for name, keep in row_masks(K).items():
            assert np.array_equal(_mode_jacobian(jac_pointwise, K, keep), J[keep][:, :, keep]), (N, name)


def test_newton_with_the_dense_oracle_jacobian_takes_the_same_steps(monkeypatch):
    # the hexagon solve at K = 64 with the einsum oracle restricted to the
    # kept rows in place of _mode_jacobian
    from eqdeg import verifier

    K = 64
    spec, seed = d6_linear_spec(cubic=0.5), hexagon_seed(K)
    _, new = newton_solve(spec, seed, tol=1e-12, max_iter=100)
    operators = {}

    def oracle(jac_pointwise, K, keep):
        N = len(jac_pointwise)
        if N not in operators:
            operators[N] = collocation_operators(K, spec.m, N)[1:]
        P, PD2, B = operators[N]
        return einsum_mode_jacobian(jac_pointwise, P[keep], PD2[keep][:, keep], [b[:, keep] for b in B])

    monkeypatch.setattr(verifier, "_mode_jacobian", oracle)
    _, dense = newton_solve(spec, seed, tol=1e-12, max_iter=100)
    assert new.converged and dense.converged
    assert new.iterations == dense.iterations == 5
    # the last norm, below tol, is rounding (1.0e-13 and 1.1e-13 here)
    history, dense_history = np.array(new.residual_history), np.array(dense.residual_history)
    assert np.all(np.abs(history[:-1] - dense_history[:-1]) <= 1e-9 * dense_history[:-1])
    assert history[-1] < 1e-12 and dense_history[-1] < 1e-12


def test_jacobian_tables_are_keyed_by_K_m_and_the_mask():
    # two K, two m and two masks in one process, each case asked twice,
    # so a table kept under too coarse a key would serve a later case
    rng = np.random.default_rng(8)
    n, cases = 2, []
    for K, m in itertools.product((4, 7), (3, 5)):
        jac_pointwise = rng.standard_normal((fft_length(4 * K + 1), n, m * n))
        for name in ("all", "odd-cos"):
            cases.append((jac_pointwise, K, row_masks(K)[name]))
    _jacobian_tables.cache_clear()
    got = [_mode_jacobian(*case) for case in cases + cases]
    for case, J in zip(cases + cases, got):
        _jacobian_tables.cache_clear()
        assert np.array_equal(J, _mode_jacobian(*case))


def test_mode_jacobian_rejects_sin_rows_without_their_cos_rows():
    K = 3
    keep = np.zeros(2 * K + 1, dtype=bool)
    keep[[1, K + 2]] = True  # cos 1 and sin 2
    with pytest.raises(ValueError):
        _mode_jacobian(np.zeros((4 * K + 1, 1, 1)), K, keep)


def test_newton_linear_converges_to_zero():
    spec = d6_linear_spec()
    rng = np.random.default_rng(1)
    K = 8
    sol0 = FourierSolution(K, 0.01 * rng.standard_normal((2 * K + 1, 6)))
    sol, rep = newton_solve(spec, sol0, tol=1e-12)
    assert rep.converged
    assert sol.sup_norm() < 1e-10


# x'' = x^2 + 1 has no real solution, and the residual has a nonzero
# minimum at x = 0; with f = 0 the constant row of the Jacobian is 0
NO_SOLUTION = SystemSpec(n=1, m=1, period=2 * pi, terms=[[(1.0, ((0, 2),)), (1.0, ())]])
ZERO_RHS = SystemSpec(n=1, m=1, period=2 * pi, linear=[[[0.0]]])


# x'' = -2x: the linear system Newton solves in one step, to a sup residual
# near 2e-16, though a mode-space norm of 0 is never below tol = 0
LINEAR = SystemSpec(n=1, m=1, period=2 * pi, linear=[[[-2.0]]])


@pytest.mark.parametrize(
    "spec, cos_t, tol, max_iter, iterations, message",
    [
        (NO_SOLUTION, 0.0, 1e-10, 40, 3, "line search stalled"),
        (NO_SOLUTION, 0.0, 1e-10, 2, 2, "iteration budget reached"),
        (ZERO_RHS, 1.0, 1e-10, 40, 0, "singular Jacobian"),
        (LINEAR, 0.3, 0.0, 1, 1, "iteration budget reached"),
    ],
    ids=["stalled", "budget", "singular", "budget-with-a-small-sup-residual"],
)
def test_newton_failure_exits(spec, cos_t, tol, max_iter, iterations, message):
    K = 2
    seed = np.zeros((2 * K + 1, 1))
    seed[0], seed[1] = 0.5, cos_t
    _, rep = newton_solve(spec, FourierSolution(K, seed), tol=tol, max_iter=max_iter)
    assert rep.converged is False
    assert rep.message == message
    assert rep.iterations == iterations


def test_manufactured_solution_recovery():
    spec = small_spec()
    K = 10
    rng = np.random.default_rng(5)
    target = np.zeros((2 * K + 1, 2))
    target[K + 1] = [0.8, -0.3]   # sin t
    target[2] = [0.1, 0.2]        # cos 2t
    exact = FourierSolution(K, target)
    N = 4 * K + 1
    t = np.linspace(0, 2 * pi, N, endpoint=False)
    forcing = (
        second_derivative_matrix(K, t) @ exact.coeffs
        - spec.rhs(dense_delayed_arguments(spec, exact, t))
    )
    start = FourierSolution(K, target * 1.1)
    assert residual(spec, exact, forcing=forcing) < 1e-12
    assert residual(spec, exact) == pytest.approx(np.max(np.abs(forcing)), rel=1e-12)
    sol, rep = newton_solve(spec, start, tol=1e-13, forcing=forcing)
    assert rep.converged
    assert rep.residual_sup < 1e-10
    assert rep.residual_sup == residual(spec, sol, forcing=forcing)
    assert np.max(np.abs(sol.coeffs - exact.coeffs)) < 1e-10


def test_reversibility_of_residual():
    spec = small_spec()
    rng = np.random.default_rng(2)
    K = 8
    sol = FourierSolution(K, 0.3 * rng.standard_normal((2 * K + 1, 2)))
    r1 = residual(spec, sol)
    reversed_sol = sol.transformed(0.0, reverse=True)
    r2 = residual(spec, reversed_sol)
    assert abs(r1 - r2) <= 1e-12 * max(1.0, r1)


def test_linear_jacobian_blocks_match_spectral_data(d6_analysis):
    # per-mode eigenvalues of the mode-space Jacobian at zero must equal
    # -(1 + k^2) * xi_{k, l} with the isotypic multiplicities
    from eqdeg.ddedeg import xi

    spec = d6_linear_spec()
    K = 6
    blocks = zero_jacobian_mode_blocks(spec, K)
    dims = {0: 1, 3: 1, 4: 2, 5: 2}
    for k, block in blocks.items():
        got = np.sort_complex(np.linalg.eigvals(block)).real
        expected = []
        for l, d in dims.items():
            lam = -(1 + k * k) * float(xi(d6_analysis.lin, l, k))
            expected.extend([lam] * (d * (2 if k else 1)))
        expected = np.sort(np.array(expected))
        assert np.max(np.abs(got - expected)) <= 1e-9 * max(1.0, np.max(np.abs(expected)))


def hexagon_perms():
    rot = (1, 2, 3, 4, 5, 0)
    ref = (0, 5, 4, 3, 2, 1)
    seen = {tuple(range(6))}
    frontier = [tuple(range(6))]
    while frontier:
        nxt = []
        for p in frontier:
            for q in (rot, ref):
                r = tuple(q[p[i]] for i in range(6))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(seen)


def test_isotropy_constant_vector():
    K = 4
    coeffs = np.zeros((2 * K + 1, 6))
    coeffs[0] = 1.0  # constant vector fixed by the whole hexagon group
    sol = FourierSolution(K, coeffs)
    syms = isotropy_of_trajectory(sol, hexagon_perms(), theta_denominator=4)
    # every (theta, gamma, +1) works, reversal too: 4 * 2 * 12 combos
    assert len(syms) == 4 * 2 * 12
    assert all(s.sign == 1 for s in syms)


@pytest.mark.parametrize("symmetric", [False, True])
def test_isotropy_scan_equals_a_transformed_loop(symmetric):
    # a random 6-node solution, then its mean with its image under a
    # half-period shift, a node reflection and the sign -1, which that map
    # fixes besides the identity
    rng = np.random.default_rng(11)
    K, perms = 5, hexagon_perms()
    sol = FourierSolution(K, rng.standard_normal((2 * K + 1, 6)))
    if symmetric:
        half = sol.transformed(pi, False, (0, 5, 4, 3, 2, 1), -1)
        sol = FourierSolution(K, (sol.coeffs + half.coeffs) / 2)
    scale = max(1.0, float(np.max(np.abs(sol.coeffs))))
    for tol in (1e-9, np.inf):
        expected = []
        for num in range(12):
            theta = Fraction(num, 12)
            for reverse in (False, True):
                for perm in perms:
                    for sign in (1, -1):
                        cand = sol.transformed(2 * pi * float(theta), reverse, perm, sign)
                        err = float(np.max(np.abs(cand.coeffs - sol.coeffs)))
                        if err <= tol * scale:
                            expected.append((theta, reverse, perm, sign, err))
        got = isotropy_of_trajectory(sol, perms, tol=tol, theta_denominator=12)
        assert [(s.theta_turns, s.reverse, s.gamma, s.sign, s.error) for s in got] == expected
        assert len(expected) == (12 * 2 * 12 * 2 if tol == np.inf else 1 + symmetric)


def scan_entries(syms):
    return [(s.theta_turns, s.reverse, s.gamma, s.sign, s.error) for s in syms]


@pytest.fixture(scope="module")
def hexagon_orbits():
    """Newton solutions of the bundled hexagon system at K = 32 and 64."""
    spec = d6_linear_spec(cubic=0.5)
    return {K: newton_solve(spec, hexagon_seed(K), tol=1e-12, max_iter=100)[0] for K in (32, 64)}


@pytest.mark.parametrize("theta_denominator", [12, 24, 60])
@pytest.mark.parametrize("K", [32, 64])
def test_two_stage_scan_equals_the_full_scan_on_the_hexagon_orbit(hexagon_orbits, K, theta_denominator):
    sol, perms = hexagon_orbits[K], hexagon_perms()
    got = isotropy_of_trajectory(sol, perms, tol=1e-6, theta_denominator=theta_denominator)
    assert scan_entries(got) == scan_entries(full_isotropy_scan(sol, perms, 1e-6, theta_denominator))
    assert len(got) >= 16


def test_two_stage_scan_equals_the_full_scan_on_constant_solutions():
    # at K = 0 there are no mode-1 rows, and the constant row is all the scan has
    perms = hexagon_perms()
    values = (np.ones(6), np.array([1.0, -1, 1, -1, 1, -1]), np.random.default_rng(4).standard_normal(6))
    for K, value, tol in itertools.product((0, 3), values, (1e-7, np.inf)):
        coeffs = np.zeros((2 * K + 1, 6))
        coeffs[0] = value
        sol = FourierSolution(K, coeffs)
        got = isotropy_of_trajectory(sol, perms, tol=tol, theta_denominator=8)
        assert scan_entries(got) == scan_entries(full_isotropy_scan(sol, perms, tol, 8)), (K, tol)
        assert got


def test_two_stage_scan_keeps_the_candidates_at_the_tolerance(hexagon_orbits):
    # the K = 32 orbit scaled to max |coefficient| 1/2, so the scale is 1
    # and tol * scale is tol itself, then moved on the cos 3 and sin 5 rows
    # only: candidates that fix the constant, cos 1 and sin 1 rows now miss
    # by errors near 1e-7 found on higher rows, and tol is set to one of
    # those errors and to the floats on either side of it
    K, perms = 32, hexagon_perms()
    coeffs = hexagon_orbits[K].coeffs / (2 * np.max(np.abs(hexagon_orbits[K].coeffs)))
    coeffs[[3, K + 5]] += 1e-7 * np.random.default_rng(3).standard_normal((2, 6))
    sol = FourierSolution(K, coeffs)
    every = full_isotropy_scan(sol, perms, np.inf, 12)
    first_rows = full_isotropy_scan(FourierSolution(1, coeffs[[0, 1, K + 1]]), perms, np.inf, 12)
    near = sorted(full.error for full, first in zip(every, first_rows) if first.error <= 1e-12)
    missed = [err for err in near if err > 1e-9]
    assert len(near) == 16 and len(missed) >= 8 and missed[-1] < 1e-5
    middle = missed[len(missed) // 2]
    for tol in (middle, np.nextafter(middle, 0), np.nextafter(middle, 1), 1e-12, 1e-5):
        got = isotropy_of_trajectory(sol, perms, tol=tol, theta_denominator=12)
        assert scan_entries(got) == scan_entries(full_isotropy_scan(sol, perms, tol, 12)), tol
    errors = [s.error for s in isotropy_of_trajectory(sol, perms, tol=middle, theta_denominator=12)]
    assert len(near) - len(missed) < len(errors) < len(near) and middle in errors
    below = isotropy_of_trajectory(sol, perms, tol=np.nextafter(middle, 0), theta_denominator=12)
    assert middle not in [s.error for s in below]


def test_isotropy_cosine_reversal():
    K = 4
    coeffs = np.zeros((2 * K + 1, 1))
    coeffs[1] = 1.0
    sol = FourierSolution(K, coeffs)
    syms = isotropy_of_trajectory(sol, [(0,)], theta_denominator=8)
    keys = {(str(s.theta_turns), s.reverse, s.sign) for s in syms}
    assert ("0", True, 1) in keys  # cos is even
    assert ("0", False, 1) in keys
    assert ("1/2", False, -1) in keys  # half-period shift flips the sign
    assert ("1/2", True, -1) in keys


def test_apriori_bounds():
    spec = small_spec()
    K = 4
    zero = FourierSolution(K, np.zeros((2 * K + 1, 2)))
    rep = apriori_check(spec, zero, radius=2.0)
    assert rep["within"]
    big = FourierSolution(K, np.zeros((2 * K + 1, 2)))
    big.coeffs[1] = 1000.0
    rep2 = apriori_check(spec, big, radius=2.0)
    assert not rep2["within"]


@pytest.mark.parametrize("radius", [0.5, 2.0, 4.0])
def test_apriori_bound_covers_the_sampled_right_hand_side(radius):
    # the closed-form M1 is at least max |f| at the samples, so the bound
    # max(R, M1, 2 pi M1) + 1 is at least the one the samples give
    specs = [small_spec(), d6_linear_spec(cubic=0.5), coupled_spec(4, 3, np.random.default_rng(1))]
    for spec in specs:
        sol = FourierSolution(2, np.zeros((5, spec.n)))
        m1 = sampled_apriori_m1(spec, radius)
        assert apriori_check(spec, sol, radius)["bound"] >= max(radius, m1, 2 * pi * m1) + 1


def hexagon_seed(K, amplitude=4.3):
    """Initial guess along the negative-spectrum mode-1 eigendirection."""
    w5 = np.array([np.cos(2 * np.pi * v / 6) for v in range(6)])
    coeffs = np.zeros((2 * K + 1, 6))
    coeffs[1] = amplitude * w5
    return FourierSolution(K, coeffs)


def test_newton_small_norm_with_large_grid_residual_is_not_converged():
    # at K = 16 the mode-space norm drops below tol while the 4K+1-grid sup
    # residual stays near 2.5e-4: the orbit is under-resolved
    spec = d6_linear_spec(cubic=0.5)
    sol, rep = newton_solve(spec, hexagon_seed(16), tol=1e-12, max_iter=100)
    assert rep.residual_history[-1] < 1e-12
    assert rep.residual_sup > 1e-6
    assert not rep.converged
    assert f"{rep.residual_sup:.3g}" in rep.message


def test_newton_from_a_seed_with_a_sin_row_runs_in_the_full_space():
    # a sin 2t entry breaks both fixed spaces, so every row is solved for
    K = 32
    spec = d6_linear_spec(cubic=0.5)
    seed = hexagon_seed(K)
    seed.coeffs[K + 2, 0] = 1e-3
    assert _invariant_rows(spec, seed.coeffs).all()
    sol, rep = newton_solve(spec, seed, tol=1e-12, max_iter=100)
    assert rep.converged, rep.message
    assert not sol.is_constant()


def test_a_nearly_reversible_spec_is_not_reduced_by_reversal():
    # block 1 differs from block m - 1 by 1e-9 relative: check_reversible
    # rejects it, so the sin rows are solved for, while oddness still
    # drops the even-k rows
    K = 8
    lin = [np.array(a, dtype=float) for a in hexagon_delay_matrices()]
    lin[1] = lin[1] * (1 + 1e-9)
    spec = SystemSpec(n=6, m=6, period=2 * pi, linear=lin, terms=[[(0.5, ((c, 3),))] for c in range(6)])
    with pytest.raises(SpecError):
        spec.check_reversible()
    spec.check_odd()
    assert np.array_equal(_invariant_rows(spec, hexagon_seed(K).coeffs), row_masks(K)["odd"])


def test_the_spec_tol_reaches_the_reversal_reduction():
    # the same 1e-9 difference within the spec's tol: reversal drops the
    # sin rows too, and the time rescaling keeps the tol
    K = 8
    lin = [np.array(a, dtype=float) for a in hexagon_delay_matrices()]
    lin[1] = lin[1] * (1 + 1e-9)
    terms = [[(0.5, ((c, 3),))] for c in range(6)]
    spec = SystemSpec(n=6, m=6, period=2 * pi, linear=lin, terms=terms, tol=1e-8)
    spec.check_reversible()
    with pytest.raises(SpecError):
        spec.check_reversible(tol=0.0)
    assert np.array_equal(_invariant_rows(spec, hexagon_seed(K).coeffs), row_masks(K)["odd-cos"])
    assert normalize(SystemSpec(n=6, m=6, period=4 * pi, linear=lin, tol=1e-8)).tol == 1e-8


def test_forcing_modes_outside_the_fixed_rows_keep_them():
    spec = d6_linear_spec(cubic=0.5)
    K = 4
    seed = hexagon_seed(K)
    forcing_modes = np.zeros_like(seed.coeffs)
    assert np.array_equal(_invariant_rows(spec, seed.coeffs, forcing_modes), row_masks(K)["odd-cos"])
    forcing_modes[2, 3] = 1e-3  # cos 2t: even k
    assert np.array_equal(_invariant_rows(spec, seed.coeffs, forcing_modes), row_masks(K)["cos"])
    forcing_modes[K + 1, 3] = 1e-3  # sin t
    assert _invariant_rows(spec, seed.coeffs, forcing_modes).all()


def test_newton_evaluates_each_iterate_once():
    # the accepted line-search trial's residual is the next step's, so no
    # argument grid reaches the right-hand side twice
    import hashlib

    spec = d6_linear_spec(cubic=0.5)
    rhs, seen = spec.rhs, Counter()

    def counted(args):
        seen[hashlib.sha256(np.ascontiguousarray(args).tobytes()).hexdigest()] += 1
        return rhs(args)

    spec.rhs = counted
    sol, rep = newton_solve(spec, hexagon_seed(32), tol=1e-12, max_iter=100)
    assert rep.converged and rep.iterations == 5
    assert len(seen) >= rep.iterations + 1
    assert max(seen.values()) == 1


def test_end_to_end_orbit_and_symmetry(d6ctx):
    from eqdeg import o2gamma as og

    spec = d6_linear_spec(cubic=0.5)
    spec.check_reversible()
    spec.check_odd()
    K = 32
    seed = hexagon_seed(K)
    # reversible, odd and seeded with cos t: Newton solves only the odd cos
    # rows (16 modes x 6 nodes), and the other rows stay exactly 0
    keep = _invariant_rows(spec, seed.coeffs)
    assert np.array_equal(keep, row_masks(K)["odd-cos"])
    sol, rep = newton_solve(spec, seed, tol=1e-12, max_iter=100)
    assert isinstance(rep, NewtonReport)
    assert rep.converged, rep.message
    assert rep.iterations == 5
    assert not sol.is_constant()
    assert rep.residual_sup < 1e-8
    assert not sol.coeffs[~keep].any()

    syms = isotropy_of_trajectory(sol, hexagon_perms(), tol=1e-6, theta_denominator=12)
    assert len(syms) == 16
    assert max(s.error for s in syms) <= 1e-12
    guaranteed = []
    for l in (0, 3, 4, 5):
        guaranteed.extend(og.maximal_orbit_types(d6ctx, 1, l))
    matches = [
        cls for cls in guaranteed if class_matches_symmetries(cls, syms)
    ]
    assert matches, "no guaranteed class matched the detected symmetries"


def _mode_block_map(K, k, n, theta_turns, reverse, perm, sign):
    """The matrix of `transformed` on the mode-k coefficient rows, acting
    on the flattened (cos, sin) x n block."""
    cols = []
    for j in range(2 * n):
        coeffs = np.zeros((2 * K + 1, n))
        coeffs[[k, K + k][j // n], j % n] = 1.0
        out = FourierSolution(K, coeffs).transformed(2 * pi * theta_turns, reverse, perm, sign)
        cols.append(out.coeffs[[k, K + k]].ravel())
    return np.array(cols).T


def test_class_maps_project_onto_the_fixed_space_of_every_conclusion():
    # the mean of a class's maps over its elements, on W_k (x) V_l, must be
    # the projector onto Fix(H) there: idempotent, of rank dim Fix(H)
    result = run_analyze(load_config(bundled_example_path()))
    assert len(result.report.conclusions) == 15
    n = result.config.table.group.degree
    for conc in result.report.conclusions:
        cls, k, l = conc.cls, conc.mode, conc.component
        iso = np.array(_isotypic_projector(result.config.table, l), dtype=float)
        on_block = np.kron(np.eye(2), iso)
        mean = sum(
            _mode_block_map(k, k, n, *element_symmetry(cls, elem)) for elem in cls.elems
        ) / len(cls.elems)
        proj = mean @ on_block
        assert np.allclose(proj @ proj, proj, atol=1e-9), cls.name()
        assert np.linalg.matrix_rank(proj, tol=1e-7) == fixed_dim(cls, k, l), cls.name()
