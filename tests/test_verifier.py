from math import pi

import numpy as np
import pytest

from eqdeg.verifier import (
    FourierSolution,
    NewtonReport,
    SpecError,
    SystemSpec,
    _mode_jacobian,
    apriori_check,
    basis_matrix,
    class_matches_symmetries,
    delayed_arguments,
    isotropy_of_trajectory,
    mode_block,
    newton_jacobian_at,
    newton_solve,
    normalize,
    projection_matrix,
    residual,
    second_derivative_matrix,
)

from conftest import hexagon_delay_matrices


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
    N = 64
    t = np.linspace(0, 2 * pi, N, endpoint=False)
    tau = 2 * pi / 5
    direct = sol.values(t, shift=tau)
    # oracle: sample, FFT, multiply by the phase, inverse FFT
    samples = sol.values(t)
    freq = np.fft.fft(samples, axis=0)
    ks = np.fft.fftfreq(N, d=1.0 / N)
    shifted = np.fft.ifft(freq * np.exp(-1j * ks * tau)[:, None], axis=0).real
    assert np.max(np.abs(direct - shifted)) < 1e-12


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


@pytest.mark.parametrize("m", [1, 2, 3])
def test_mode_jacobian_matches_einsum_and_finite_differences(m):
    rng = np.random.default_rng(40 + m)
    n, K = 3, 5
    spec = coupled_spec(n, m, rng)
    M, N = 2 * K + 1, 4 * K + 1
    t = np.linspace(0, 2 * pi, N, endpoint=False)
    P = projection_matrix(K, t)
    PD2 = P @ second_derivative_matrix(K, t)
    B = [basis_matrix(K, t, shift=2 * pi * j / m) for j in range(m)]
    for _ in range(3):
        sol = FourierSolution(K, 0.5 * rng.standard_normal((M, n)))
        jac_pointwise = spec.rhs_jacobian(delayed_arguments(spec, sol, t))
        off_diagonal = jac_pointwise[:, 0, (m - 1) * n + 1]
        assert np.max(np.abs(off_diagonal)) > 0.1
        J = _mode_jacobian(jac_pointwise, P, PD2, np.concatenate(B))
        ref = einsum_mode_jacobian(jac_pointwise, P, PD2, B)
        assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))

        def mode_residual(coeffs):
            args = delayed_arguments(spec, FourierSolution(K, coeffs), t)
            return PD2 @ coeffs - P @ spec.rhs(args)

        direction = rng.standard_normal((M, n))
        eps = 1e-6
        fd = (
            mode_residual(sol.coeffs + eps * direction)
            - mode_residual(sol.coeffs - eps * direction)
        ) / (2 * eps)
        jd = J.reshape(M * n, M * n) @ direction.reshape(-1)
        assert np.max(np.abs(fd.reshape(-1) - jd)) <= 1e-7 * np.max(np.abs(jd))


def test_newton_linear_converges_to_zero():
    spec = d6_linear_spec()
    rng = np.random.default_rng(1)
    K = 8
    sol0 = FourierSolution(K, 0.01 * rng.standard_normal((2 * K + 1, 6)))
    sol, rep = newton_solve(spec, sol0, tol=1e-12)
    assert rep.converged
    assert sol.sup_norm() < 1e-10


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
    from eqdeg.verifier import delayed_arguments

    forcing = (
        second_derivative_matrix(K, t) @ exact.coeffs
        - spec.rhs(delayed_arguments(spec, exact, t))
    )
    start = FourierSolution(K, target * 1.1)
    sol, rep = newton_solve(spec, start, tol=1e-13, forcing=forcing)
    assert rep.converged
    assert rep.residual_sup < 1e-10
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
    J = newton_jacobian_at(spec, K)
    dims = {0: 1, 3: 1, 4: 2, 5: 2}
    for k in range(K + 1):
        block = mode_block(J, k, K)
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


def test_end_to_end_orbit_and_symmetry(d6ctx):
    from eqdeg import o2gamma as og

    spec = d6_linear_spec(cubic=0.5)
    spec.check_reversible()
    spec.check_odd()
    sol, rep = newton_solve(spec, hexagon_seed(32), tol=1e-12, max_iter=100)
    assert isinstance(rep, NewtonReport)
    assert rep.converged, rep.message
    assert not sol.is_constant()
    assert rep.residual_sup < 1e-8

    def perm_of_gamma_index(gidx):
        gamma_part, eps = d6ctx.signed.parts(d6ctx.elems[gidx])
        return tuple(gamma_part), eps

    syms = isotropy_of_trajectory(sol, hexagon_perms(), tol=1e-6, theta_denominator=12)
    guaranteed = []
    for l in (0, 3, 4, 5):
        guaranteed.extend(og.maximal_orbit_types(d6ctx, 1, l))
    matches = [
        cls for cls in guaranteed if class_matches_symmetries(cls, syms, perm_of_gamma_index)
    ]
    assert matches, "no guaranteed class matched the detected symmetries"


def test_solution_json_and_csv_export():
    K = 3
    coeffs = np.zeros((2 * K + 1, 2))
    coeffs[1] = [1.0, -0.5]
    sol = FourierSolution(K, coeffs, 1e-9)
    clone = FourierSolution.from_json(sol.to_json())
    assert clone.K == K
    assert np.allclose(clone.coeffs, sol.coeffs)
    csv = sol.sample_csv(samples=8)
    lines = csv.strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 9
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)
