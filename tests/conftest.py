from fractions import Fraction
from math import gcd, isqrt
from types import SimpleNamespace

import numpy as np
import pytest

from eqdeg.chartab import SignedGroup, bundled_table, isotypic_multiplicities, permutation_character
from eqdeg.ddedeg import LinearizationData, SpectralTable, coupling_coefficient
from eqdeg import o2gamma as og
from eqdeg.o2gamma import GammaContext
from eqdeg.permgroup import p_mul

F = Fraction


def perm_closure(group, seed):
    """The subgroup generated by permutations, closed by composing
    permutation tuples (independent of the group's index tables)."""
    elems = set(seed) | {group.identity}
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


def marks_row(lattice, h):
    """Fixed-point counts |(G/H)^L| = n(L, H) * |W(H)| for every class L,
    with n(L, H) counted on the conjugates of H: an oracle independent of
    any product rule."""
    cls = lattice.classes[h]
    return [
        sum(1 for member in cls.conjugates if low.rep_set <= member) * cls.weyl_order
        for low in lattice.classes
    ]


# The quaternion group Q8 in its regular action on eight points; row 5 is
# the 2-dim character of quaternionic type (Frobenius-Schur indicator -1).
Q8_GENERATORS = ["(1 3 2 4)(5 7 6 8)", "(1 5 2 6)(3 8 4 7)"]
Q8_TABLE = {
    "class_reps": [
        "()",
        "(1 2)(3 4)(5 6)(7 8)",
        "(1 3 2 4)(5 7 6 8)",
        "(1 5 2 6)(3 8 4 7)",
        "(1 7 2 8)(3 5 4 6)",
    ],
    "class_sizes": [1, 1, 2, 2, 2],
    "rows": [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1],
        [2, -2, 0, 0, 0],
    ],
}


def three_delay_config(group, leading):
    """mu[l] = [v_l, -1, -1] on every character row l of a preset group."""
    mu = {str(l + 1): [v, "-1", "-1"] for l, v in enumerate(leading)}
    return {
        "group": group,
        "representation": "natural",
        "delays": 3,
        "linearization": {"mu": mu},
    }


def full_key_walk(ctx, elems, grid):
    """Oracle for `o2gamma._fin_key`: the least aligned conjugate and how
    many equal it, over every (kappa twist, reflection axis, g in Gamma')
    with nothing skipped, each written as sorted (numerator, denominator,
    s, g) tuples with t = u/grid in lowest terms."""

    def turn(u):
        c = gcd(u, grid)
        return (u // c, grid // c)

    conjugates = []
    for kappa in (1, -1):
        base = {(kappa * u % grid, s, g) for (u, s, g) in elems}
        for b in sorted({u for (u, s, _) in base if s == -1}):
            shifted = [((u - b) % grid if s == -1 else u, s, g) for (u, s, g) in base]
            conjugates += [
                tuple(sorted((*turn(u), s, tab[g]) for (u, s, g) in shifted))
                for tab in ctx.conj
            ]
    best = min(conjugates)
    return ("fin", best), conjugates.count(best)


def product_mark(c1, c2):
    """Oracle for `o2gamma.mark`: the coefficient of (c1) in the full
    Burnside product (c1) * (c2), every meet built and classed."""
    return og.class_product(c1, c2).get(c1, 0)


def all_pairings_candidates(ctx):
    """Oracle for `o2gamma.mode1_candidates`: the enumeration over every
    (rho, sigma) pair of every K/R, no conjugate pairing skipped."""
    found = {}

    def record(elems, grid):
        cls = og.make_fin(ctx, elems, grid)
        found[cls.key] = cls

    mult, ident = ctx.mult, ctx.identity
    for kset in (cls.rep_set for cls in ctx.lattice.classes):
        normal = og._normal_subgroups_of(ctx, kset)
        for rset in normal:
            cosets = og._cosets_of(ctx, kset, rset)
            d, odd = divmod(len(cosets), 2)
            if odd:
                continue
            coset_of = {x: ci for ci, coset in enumerate(cosets) for x in coset}
            unit = coset_of[ident]
            reps = [min(coset) for coset in cosets]
            for rho in reps:
                powers = [ident]
                while coset_of[mult[powers[-1]][rho]] != unit:
                    powers.append(mult[powers[-1]][rho])
                if len(powers) != d:
                    continue
                cyclic = {coset_of[x] for x in powers}
                for sigma in reps:
                    sr = mult[sigma][rho]
                    if (
                        coset_of[sigma] in cyclic
                        or coset_of[mult[sigma][sigma]] != unit
                        or coset_of[mult[sr][sr]] != unit
                    ):
                        continue
                    elems = set()
                    for j, x in enumerate(powers):
                        elems |= {(j, 1, y) for y in cosets[coset_of[x]]}
                        elems |= {(j, -1, y) for y in cosets[coset_of[mult[x][sigma]]]}
                    record(elems, d)
        record({(0, s, x) for s in (1, -1) for x in kset}, 1)
        for rset in normal:
            if len(kset) == 2 * len(rset):
                elems = {(0, s, x) for s in (1, -1) for x in rset}
                elems |= {(1, s, x) for s in (1, -1) for x in kset - rset}
                record(elems, 2)
    return sorted(found.values(), key=lambda c: (-c.size, c.key))


def closed_form_resonances(data):
    """Oracle: the modes k >= 0 where k^2 = -c_k^l for some component,
    solved in closed form from the m residues of k (c_k only depends on
    k mod m).  Needs exact data whose c_k are rational, as every reversible
    rational row gives at m in {1, 2, 3, 4, 6}."""
    out = set()
    for l in data.mu:
        for r in range(data.m):
            target = -coupling_coefficient(data, l, r)
            if target >= 0 and target.denominator == 1:
                root = isqrt(target.numerator)
                if root * root == target.numerator and root % data.m == r:
                    out.add(root)
    return out


def basis_matrix(K, tgrid, shift=0.0):
    """Dense oracle: the rows [constant, cos 1..K, sin 1..K] sampled at
    tgrid - shift, one column per row, as an (N, 2K+1) matrix."""
    t = np.asarray(tgrid, dtype=float) - shift
    k = np.arange(1, K + 1)
    return np.hstack([np.ones((len(t), 1)), np.cos(np.outer(t, k)), np.sin(np.outer(t, k))])


def second_derivative_matrix(K, tgrid):
    """Dense oracle: samples of x'' from the coefficients of x."""
    k2 = np.arange(1, K + 1) ** 2.0
    return basis_matrix(K, tgrid) * -np.concatenate([[0.0], k2, k2])


def projection_matrix(K, tgrid):
    """Dense oracle: trigonometric projection from grid samples back to
    mode coefficients."""
    weights = np.concatenate([[1.0], np.full(2 * K, 2.0)]) / len(tgrid)
    return (basis_matrix(K, tgrid) * weights).T


def dense_delayed_arguments(spec, sol, tgrid):
    """Dense oracle: x at the m delays 2*pi*j/m on tgrid, as the (N, m*n)
    arguments of spec.rhs."""
    return np.hstack(
        [basis_matrix(sol.K, tgrid, 2 * np.pi * j / spec.m) @ sol.coeffs for j in range(spec.m)]
    )


def concatenated_monomials(monomials, args):
    """Oracle for `verifier._Monomials.__call__`: the column of ones joined
    by a concatenation and the factors reduced by `np.prod`."""
    padded = np.concatenate([args, np.ones((len(args), 1))], axis=1)
    return (monomials.coeffs * np.prod(padded[:, monomials.factors], axis=2)) @ monomials.scatter


def full_isotropy_scan(sol, gamma_perms, tol, theta_denominator):
    """Oracle for `verifier.isotropy_of_trajectory`: the one-pass scan,
    which maps all 2K+1 rows for every (shift, reversal) and compares every
    (gamma, sign) candidate on all of them."""
    from eqdeg.permgroup import p_inv
    from eqdeg.verifier import DetectedSymmetry

    scale = max(1.0, float(np.max(np.abs(sol.coeffs))))
    gathers = np.array([p_inv(perm) for perm in gamma_perms], dtype=int).reshape(len(gamma_perms), sol.n)
    target = sol.coeffs[:, None, :]
    out = []
    for num in range(theta_denominator):
        theta = Fraction(num, theta_denominator)
        for reverse in (False, True):
            moved = sol.transformed(2 * np.pi * float(theta), reverse).coeffs[:, gathers]
            errs = {
                1: np.max(np.abs(moved - target), axis=(0, 2)),
                -1: np.max(np.abs(moved + target), axis=(0, 2)),
            }
            for i, perm in enumerate(gamma_perms):
                for sign in (1, -1):
                    err = float(errs[sign][i])
                    if err <= tol * scale:
                        out.append(DetectedSymmetry(theta, reverse, tuple(perm), sign, err))
    return out


def rhs_oracle(spec, args):
    """Oracle: f on rows of args (N, m*n), one block product per delay and
    one product loop per term."""
    args = np.atleast_2d(np.asarray(args, dtype=float))
    out = np.zeros((args.shape[0], spec.n))
    if spec.linear is not None:
        for j in range(spec.m):
            out += args[:, j * spec.n : (j + 1) * spec.n] @ spec.linear[j].T
    for c, comp_terms in enumerate(spec.terms):
        for coeff, powers in comp_terms:
            val = np.full(args.shape[0], float(coeff))
            for (v, p) in powers:
                val = val * args[:, v] ** p
            out[:, c] += val
    return out


def sampled_apriori_m1(spec, radius, samples=4000, seed=0):
    """Oracle for the M1 of `verifier.apriori_check`: max |f| and |x| at
    uniform samples of the box |y_v| <= R, a lower estimate of M1."""
    rng = np.random.default_rng(seed)
    args = rng.uniform(-radius, radius, size=(samples, spec.m * spec.n))
    return max(float(np.max(np.abs(spec.rhs(args)))), float(np.max(np.abs(args[:, : spec.n]))))


def sampled_growth_check(rhs, n, m, radius, samples=2000, seed=0):
    """Oracle for `ddedeg.check_growth_condition`: the sampling loop with
    `Random.uniform` draws and one delayed block appended at a time."""
    import random

    rng = random.Random(seed)
    worst = None
    positive = 0
    for _ in range(samples):
        scale = radius * (1 + rng.random())
        x = [rng.uniform(-1, 1) for _ in range(n)]
        top = max(abs(v) for v in x) or 1.0
        x = [v * scale / top for v in x]
        args = list(x)
        for _ in range(m - 1):
            y = [rng.uniform(-scale, scale) for _ in range(n)]
            args.extend(y)
        val = rhs(args)
        dot = sum(a * b for a, b in zip(x, val))
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


def rhs_jacobian_oracle(spec, args):
    """Oracle: d f / d args on rows of args -> (N, n, m*n), by the product
    rule over the factor positions of each term (a variable listed twice
    contributes once per position)."""
    args = np.atleast_2d(np.asarray(args, dtype=float))
    N = args.shape[0]
    jac = np.zeros((N, spec.n, spec.m * spec.n))
    if spec.linear is not None:
        for j in range(spec.m):
            jac[:, :, j * spec.n : (j + 1) * spec.n] += spec.linear[j]
    for c, comp_terms in enumerate(spec.terms):
        for coeff, powers in comp_terms:
            for i, (v, p) in enumerate(powers):
                val = np.full(N, float(coeff) * p) * args[:, v] ** (p - 1)
                for j, (w, q) in enumerate(powers):
                    if j != i:
                        val = val * args[:, w] ** q
                jac[:, c, v] += val
    return jac


def zero_jacobian_mode_blocks(spec, K):
    """The Newton Jacobian at the zero solution of a period-2*pi spec,
    restricted to the cos/sin rows of each mode k = 0..K: {k: square block}."""
    from eqdeg.verifier import _mode_jacobian

    zero = np.zeros((4 * K + 1, spec.m * spec.n))
    J = _mode_jacobian(spec.rhs_jacobian(zero), K)
    blocks = {}
    for k in range(K + 1):
        rows = [0] if k == 0 else [k, K + k]
        size = len(rows) * spec.n
        blocks[k] = J[np.ix_(rows, range(spec.n), rows, range(spec.n))].reshape(size, size)
    return blocks


def hexagon_coupling_matrix():
    """Circulant nearest-neighbour matrix: -1 on the diagonal, 1/10 beside it."""
    n = 6
    mat = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = F(-1)
        mat[i][(i + 1) % n] = F(1, 10)
        mat[i][(i - 1) % n] = F(1, 10)
    return mat


def hexagon_delay_matrices():
    """Six delay blocks (d, a, b, c, b, a) * A-hat with the example weights."""
    weights = [F(69, 10), F(4), F(1), F(3), F(1), F(4)]
    base = hexagon_coupling_matrix()
    return [[[w * v for v in row] for row in base] for w in weights]


@pytest.fixture(scope="session")
def d6_table():
    return bundled_table("D6")


@pytest.fixture(scope="session")
def d6ctx(d6_table):
    return GammaContext.from_signed_group(SignedGroup(d6_table))


@pytest.fixture(scope="session")
def z1ctx():
    return GammaContext.from_signed_group(SignedGroup(bundled_table("Z1")))


@pytest.fixture(scope="session")
def d6_analysis(d6_table, d6ctx):
    chi = permutation_character(d6_table)
    decomposition = isotypic_multiplicities(chi, d6_table)
    lin = LinearizationData.from_matrices(
        d6_table, decomposition, hexagon_delay_matrices()
    )
    spectral = SpectralTable(lin, decomposition, k_max=50).build()
    return SimpleNamespace(
        table=d6_table,
        ctx=d6ctx,
        decomposition=decomposition,
        lin=lin,
        spectral=spectral,
    )
