import math
import random
from fractions import Fraction

import pytest

from eqdeg.basicdeg import GRingElement
from eqdeg.cli import bundled_example_path, load_config
from eqdeg.chartab import (
    IsotypicDecomposition,
    bundled_table,
    isotypic_multiplicities,
    permutation_character,
)
from eqdeg.ddedeg import (
    ComplexTypeError,
    DegenerateSpectrumError,
    LinearizationData,
    ReversibilityError,
    ScalarityError,
    SpectralTable,
    assemble_omega,
    check_growth_condition,
    coupling_coefficient,
    default_k_max,
    require_real_components,
    survival_parity,
    theorem_conclusions_resonant,
    xi,
)
from eqdeg.o2gamma import maximal_orbit_types

from conftest import closed_form_resonances, hexagon_delay_matrices, sampled_growth_check


F = Fraction


def test_matrix_extraction_exact(d6_analysis):
    lin = d6_analysis.lin
    assert lin.exact
    assert lin.component_indices() == [0, 3, 4, 5]
    base = {l: lin.mu[l][0] / F(69, 10) for l in lin.mu}
    # circulant eigenvalues per component: the Fourier coefficients of the ring
    assert base[0] == F(-8, 10)
    assert base[4] == F(-9, 10)
    assert base[5] == F(-11, 10)
    assert base[3] == F(-12, 10)
    # reversibility of the weights (d, a, b, c, b, a)
    for l in lin.mu:
        assert lin.mu[l][1] == lin.mu[l][5]
        assert lin.mu[l][2] == lin.mu[l][4]


def test_circulant_spectrum_set(d6_analysis):
    lin = d6_analysis.lin
    values = {lin.mu[l][0] / F(69, 10) for l in lin.mu}
    assert values == {F(-8, 10), F(-9, 10), F(-11, 10), F(-12, 10)}


def test_scalarity_rejection(d6_table):
    chi = permutation_character(d6_table)
    dec = isotypic_multiplicities(chi, d6_table)
    bad = [[F(1) if (i, j) == (0, 0) else F(0) for j in range(6)] for i in range(6)]
    with pytest.raises(ScalarityError):
        LinearizationData.from_matrices(d6_table, dec, [bad])


def test_exact_matrices_are_tested_in_integers(d6_table):
    # an exact matrix and the projector columns are scaled to integers
    # before mat.P = mu.P is tested: a non-scalar int matrix and a
    # perturbation far below any float tolerance are rejected, and the
    # bundled config keeps its mu values
    chi = permutation_character(d6_table)
    dec = isotypic_multiplicities(chi, d6_table)
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(6)] for i in range(6)]
    with pytest.raises(ScalarityError):
        LinearizationData.from_matrices(d6_table, dec, [swap])
    near = [[F(3) * (i == j) for j in range(6)] for i in range(6)]
    assert LinearizationData.from_matrices(d6_table, dec, [near]).mu[0] == (F(3),)
    near[2][3] = F(1, 10**15)
    with pytest.raises(ScalarityError):
        LinearizationData.from_matrices(d6_table, dec, [near])
    config = load_config(bundled_example_path())
    mats = [[[F(v) for v in row] for row in mat] for mat in config["linearization"]["matrices"]]
    lin = LinearizationData.from_matrices(d6_table, dec, mats)
    expected = {
        0: "-138/25 -16/5 -4/5 -12/5 -4/5 -16/5",
        3: "-207/25 -24/5 -6/5 -18/5 -6/5 -24/5",
        4: "-621/100 -18/5 -9/10 -27/10 -9/10 -18/5",
        5: "-759/100 -22/5 -11/10 -33/10 -11/10 -22/5",
    }
    assert lin.mu == {l: tuple(map(F, row.split())) for l, row in expected.items()}
    assert all(type(v) is F for row in lin.mu.values() for v in row)


def test_exact_and_float_matrices_in_one_config(d6_table):
    # each matrix is converted to ints, or not, on its own: with one bundled
    # matrix given as floats, the exact ones keep their Fraction mu, the
    # float one's mu lies within 1e-12 of the exact value, and a non-scalar
    # int matrix among float ones is still rejected
    dec = isotypic_multiplicities(permutation_character(d6_table), d6_table)
    config = load_config(bundled_example_path())
    mats = [[[F(v) for v in row] for row in mat] for mat in config["linearization"]["matrices"]]
    exact = LinearizationData.from_matrices(d6_table, dec, mats)
    floats = [[float(v) for v in row] for row in mats[1]]
    mixed = LinearizationData.from_matrices(d6_table, dec, [mats[0], floats, *mats[2:]])
    assert not mixed.exact
    assert mixed.mu.keys() == exact.mu.keys()
    for l, row in mixed.mu.items():
        assert type(row[1]) is float and abs(row[1] - exact.mu[l][1]) <= 1e-12
        assert all(type(v) is F for j, v in enumerate(row) if j != 1)
        assert row[:1] + row[2:] == exact.mu[l][:1] + exact.mu[l][2:]
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(6)] for i in range(6)]
    with pytest.raises(ScalarityError):
        LinearizationData.from_matrices(d6_table, dec, [floats, swap, floats])


def test_exact_matrix_with_two_eigenvalues_on_a_component_is_rejected():
    # every projector column can be an eigenvector while the eigenvalues
    # differ between columns: D2 has two copies of the trivial component,
    # on the orbits {0, 1} and {2, 3}, and D4 on the square has its 2-dim
    # component on the lines of e0 - e2 and e1 - e3
    diag = [[int(i == j) * (1 if i < 2 else 2) for j in range(4)] for i in range(4)]
    v = (0, 1, 0, -1)
    line = [[F(int(i == j)) + F(v[i] * v[j], 2) for j in range(4)] for i in range(4)]
    for name, mat in (("D2", diag), ("D4", line)):
        table = bundled_table(name)
        dec = isotypic_multiplicities(permutation_character(table), table)
        with pytest.raises(ScalarityError):
            LinearizationData.from_matrices(table, dec, [mat])


def test_reversibility_enforced():
    with pytest.raises(ReversibilityError):
        LinearizationData(m=3, mu={0: (F(1), F(2), F(3))})
    LinearizationData(m=3, mu={0: (F(1), F(2), F(2))})
    LinearizationData(m=1, mu={0: (F(-2),)})


def test_float_values_are_compared_within_tolerance():
    # exactness is read off the values: floats that agree up to rounding
    # are reversible, as they are in a config
    lin = LinearizationData(m=3, mu={0: (1.0, 0.1 + 0.2, 0.3)})
    assert not lin.exact
    with pytest.raises(ReversibilityError):
        LinearizationData(m=3, mu={0: (1.0, 0.1, 0.3)})
    assert LinearizationData(m=3, mu={0: (1, F(1, 2), F(1, 2))}).exact
    # the data's tol, scaled by max(1, |mu_j|, |mu_{m-j}|), decides a pair
    # with a float; two exact values must be equal
    near = (-3, -1, -1.0000001)
    with pytest.raises(ReversibilityError):
        LinearizationData(m=3, mu={0: near})
    assert LinearizationData(m=3, mu={0: near}, tol=1e-5).tol == 1e-5
    LinearizationData(m=3, mu={0: (0, 1e4, 1e4 + 1e-6)})
    with pytest.raises(ReversibilityError):
        LinearizationData(m=3, mu={0: (-3, -1, F(-10000001, 10**7))}, tol=1e-5)


def test_float_matrices_are_scalar_within_tolerance(d6_analysis):
    # the hexagon's delay matrices given as floats: the same mu values up to
    # rounding, a rounding-size change is accepted and a real one is not
    table, dec = d6_analysis.table, d6_analysis.decomposition
    mats = [[[float(v) for v in row] for row in mat] for mat in hexagon_delay_matrices()]
    lin = LinearizationData.from_matrices(table, dec, mats)
    assert not lin.exact
    assert lin.mu.keys() == d6_analysis.lin.mu.keys()
    for l, row in d6_analysis.lin.mu.items():
        assert all(abs(a - b) <= 1e-12 for a, b in zip(lin.mu[l], row))
    mats[0][0][0] += 1e-13
    LinearizationData.from_matrices(table, dec, mats)
    mats[0][0][0] += 1e-6
    with pytest.raises(ScalarityError):
        LinearizationData.from_matrices(table, dec, mats)


def test_coupling_values(d6_analysis):
    lin = d6_analysis.lin
    # weight factors (d + 2a + 2b + c) etc. scale the component eigenvalue
    assert coupling_coefficient(lin, 0, 0) == F(199, 10) * F(-8, 10)
    assert coupling_coefficient(lin, 0, 3) == F(-21, 10) * F(-8, 10)
    assert coupling_coefficient(lin, 0, 2) == F(49, 10) * F(-8, 10)
    # periodicity in k mod 6
    for l in lin.mu:
        for k in range(7):
            assert coupling_coefficient(lin, l, k) == coupling_coefficient(lin, l, k + 6)


def test_coupling_no_delays():
    lin = LinearizationData(m=1, mu={0: (F(5),)})
    for k in range(4):
        assert coupling_coefficient(lin, 0, k) == F(5)


def test_xi_values(d6_analysis):
    lin = d6_analysis.lin
    assert xi(lin, 0, 0) == F(-398, 25)
    assert float(xi(lin, 0, 0)) == -15.92
    assert xi(lin, 0, 2) == F(2, 125)
    assert float(xi(lin, 0, 2)) == 0.016


def test_sign_grid_matches_reference(d6_analysis):
    grid = d6_analysis.spectral.sign_grid()
    assert grid[0] == ["-", "-", "-", "-"]
    assert grid[1] == ["-", "-", "-", "-"]
    # column order follows the character rows 1, 4, 5, 6
    assert grid[2] == ["+", "-", "-", "-"]
    assert grid[3] == ["+", "+", "+", "+"]
    for k in range(4, 51):
        assert grid[k] == ["+", "+", "+", "+"]


def test_negative_factors(d6_analysis):
    factors = d6_analysis.spectral.negative_factors()
    assert len(factors) == 11
    assert all(m == 1 for (_, _, m) in factors)
    assert {(k, l) for (k, l, _) in factors} == {
        (0, 0), (0, 3), (0, 4), (0, 5),
        (1, 0), (1, 3), (1, 4), (1, 5),
        (2, 3), (2, 4), (2, 5),
    }


def test_zero_mu_degenerate():
    lin = LinearizationData(m=1, mu={0: (F(0),)})
    dec_like = type("D", (), {"multiplicities": (1,)})()
    table = SpectralTable(lin, dec_like, k_max=3).build()
    assert table.zero_spectrum()
    assert (0, 0) in table.degenerate


def test_default_k_max_tail():
    lin = LinearizationData(m=1, mu={0: (F(-2),)})
    k = default_k_max(lin)
    assert k * k > 2
    lin6 = LinearizationData(m=6, mu={0: tuple(F(-1) for _ in range(6))})
    assert lin6.coupling_bound == 6
    assert default_k_max(lin6) ** 2 > 6
    # a k_max below the bound is refused by the same number
    dec_like = type("D", (), {"multiplicities": (1,)})()
    with pytest.raises(ValueError, match="k_max=2 too small"):
        SpectralTable(lin6, dec_like, k_max=2).build()


def test_constant_negative_coupling():
    # single population with constant coupling c < -1: negatives exactly k^2 < -c
    lin = LinearizationData(m=1, mu={0: (F(-7),)})
    dec_like = type("D", (), {"multiplicities": (1,)})()
    table = SpectralTable(lin, dec_like, k_max=5).build()
    for k in range(6):
        assert (table.signs[(k, 0)] < 0) == (k * k < 7)


def test_resonance_set_exact():
    lin = LinearizationData(m=1, mu={0: (F(-4),)})
    dec_like = type("D", (), {"multiplicities": (1,)})()
    table = SpectralTable(lin, dec_like, k_max=4).build()
    assert table.resonance_set() == {2}
    lin36 = LinearizationData(m=1, mu={0: (F(-36),)})
    t36 = SpectralTable(lin36, dec_like, k_max=8).build()
    assert t36.resonance_set() == {6}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_resonance_set_matches_closed_form(m):
    # reversible integer rows in -40..0, given by mu_0..mu_{m//2}: every
    # row for m = 1, a seeded sample of 250 otherwise (about one in ten is
    # resonant)
    free = m // 2 + 1
    rng = random.Random(m)
    if m == 1:
        rows = [(v,) for v in range(-40, 1)]
    else:
        rows = [tuple(rng.randint(-40, 0) for _ in range(free)) for _ in range(250)]
    dec_like = type("D", (), {"multiplicities": (1,)})()
    resonant = 0
    for half in rows:
        row = tuple(half[min(j, m - j)] for j in range(m))
        lin = LinearizationData(m=m, mu={0: row})
        table = SpectralTable(lin, dec_like, k_max=default_k_max(lin)).build()
        assert table.resonance_set() == closed_form_resonances(lin), row
        resonant += bool(table.resonance_set())
    assert resonant >= 5


def test_survival_parities(d6_analysis):
    ctx, spectral = d6_analysis.ctx, d6_analysis.spectral
    top11 = maximal_orbit_types(ctx, 1, 0)[0]
    assert survival_parity(spectral, top11, 1) == 1
    # no negative blocks at k = 3: parity vanishes
    assert survival_parity(spectral, top11, 3) == 0


def test_positive_linearization_gives_zero_omega(d6ctx, d6_table):
    chi = permutation_character(d6_table)
    dec = isotypic_multiplicities(chi, d6_table)
    lin = LinearizationData(
        m=1, mu={l: (F(1),) for l in (0, 3, 4, 5)}
    )
    spectral = SpectralTable(lin, dec, k_max=3).build()
    report = assemble_omega(d6ctx, spectral)
    assert report.omega == GRingElement(d6ctx, {})
    assert report.conclusions == []


def test_degenerate_redirects(d6ctx, d6_table):
    chi = permutation_character(d6_table)
    dec = isotypic_multiplicities(chi, d6_table)
    lin = LinearizationData(m=1, mu={l: (F(0),) for l in (0, 3, 4, 5)})
    spectral = SpectralTable(lin, dec, k_max=3).build()
    with pytest.raises(DegenerateSpectrumError):
        assemble_omega(d6ctx, spectral)


def test_require_real_components_rejects_complex_type():
    # Z5: the trivial row is of real type, the other four are complex
    t = bundled_table("Z5")
    require_real_components(t, IsotypicDecomposition((1, 0, 0, 0, 0), t.dims()))
    with pytest.raises(ComplexTypeError):
        require_real_components(t, IsotypicDecomposition((1, 1, 0, 0, 0), t.dims()))


def test_small_product_single_negative_mode(z1ctx):
    # one population, coupling -2: negative blocks at modes 0 and 1 only
    lin = LinearizationData(m=1, mu={0: (F(-2),)})
    dec_like = type("D", (), {"multiplicities": (1,)})()
    spectral = SpectralTable(lin, dec_like, k_max=3).build()
    report = assemble_omega(z1ctx, spectral)
    assert not spectral.zero_spectrum()
    assert len(report.conclusions) == 1
    conc = report.conclusions[0]
    assert conc.mode == 1
    assert abs(conc.coefficient) == conc.x_o == 1


def test_resonant_route(z1ctx):
    lin = LinearizationData(m=1, mu={0: (F(-4),)})
    dec_like = type("D", (), {"multiplicities": (1,)})()
    spectral = SpectralTable(lin, dec_like, k_max=4).build()
    assert spectral.zero_spectrum()
    report = theorem_conclusions_resonant(z1ctx, spectral, s=1)
    assert report.conclusions
    assert all(c.mode % 2 == 1 for c in report.conclusions)
    assert all(c.parity % 2 == 1 for c in report.conclusions)


def test_resonant_route_rejects_bad_s(z1ctx):
    lin = LinearizationData(m=1, mu={0: (F(-36),)})
    dec_like = type("D", (), {"multiplicities": (1,)})()
    spectral = SpectralTable(lin, dec_like, k_max=8).build()
    with pytest.raises(ValueError, match="odd multiple"):
        theorem_conclusions_resonant(z1ctx, spectral, s=2)
    report = theorem_conclusions_resonant(z1ctx, spectral, s=4)
    assert isinstance(report.conclusions, list)


def test_growth_condition_checker():
    def cubic(args):
        return [v ** 3 for v in args[:2]]

    res = check_growth_condition(cubic, n=2, m=2, radius=2.0, samples=300)
    assert res["all_positive"]
    assert res["min_dot"] > 0

    def inward(args):
        return [-v for v in args[:2]]

    res2 = check_growth_condition(inward, n=2, m=2, radius=2.0, samples=300)
    assert not res2["all_positive"]
    assert res2["min_dot"] < 0


def test_growth_check_draws_equal_the_uniform_loop():
    import numpy as np

    from eqdeg.verifier import SystemSpec

    # the bundled `verify` system (cubic 1/2) through `run_verify`'s one-row callback
    system = load_config(bundled_example_path())["system"]
    linear = [[[float(v) for v in row] for row in mat] for mat in hexagon_delay_matrices()]
    terms = [[(0.5, ((c, 3),))] for c in range(6)]
    spec = SystemSpec(n=6, m=6, period=2 * math.pi, linear=linear, terms=terms)

    def hexagon(args):
        return list(spec.rhs(np.asarray(args)[None, :])[0])

    def cubic(args):
        return [v ** 3 for v in args[:2]]

    def mixed(args):
        x, y, z = args[:3]
        return [x ** 3 - 2 * args[3] + y, -x + z ** 3 * args[5], y * args[4] ** 2 - 3 * z]

    def recorded(rhs, calls):
        def record(args):
            calls.append(list(args))
            return rhs(args)

        return record

    systems = [
        (hexagon, 6, 6, system["radius"], system["growth_samples"]),
        (cubic, 2, 2, 2.0, 300),
        (mixed, 3, 2, 0.7, 300),
    ]
    for rhs, n, m, radius, samples in systems:
        for seed in (0, 1, 7, 12345):
            kw = dict(n=n, m=m, radius=radius, samples=samples, seed=seed)
            got_args, want_args = [], []
            got = check_growth_condition(recorded(rhs, got_args), **kw)
            assert got == sampled_growth_check(recorded(rhs, want_args), **kw)
            assert got_args == want_args


def test_multiplicity_table_values(d6_analysis):
    spectral = d6_analysis.spectral
    assert spectral.multiplicity(2, 0) == 0
    assert spectral.multiplicity(2, 3) == 1
    assert spectral.multiplicity(1, 4) == 1
    assert spectral.multiplicity(3, 5) == 0


def test_constant_mode_only_negatives_no_conclusions(z1ctx):
    # only the k = 0 block is negative: solutions may be constant, so no
    # non-constant guarantees are emitted, though omega itself is nonzero
    lin = LinearizationData(m=1, mu={0: (F(-1, 2),)})
    dec_like = type("D", (), {"multiplicities": (1,)})()
    spectral = SpectralTable(lin, dec_like, k_max=2).build()
    report = assemble_omega(z1ctx, spectral)
    assert report.conclusions == []
    assert report.omega.coeffs


def test_resonant_route_matches_nondegenerate_on_odd_modes(z1ctx):
    lin = LinearizationData(m=1, mu={0: (F(-2),)})
    dec_like = type("D", (), {"multiplicities": (1,)})()
    spectral = SpectralTable(lin, dec_like, k_max=3).build()
    assert spectral.resonance_set() == set()
    full = assemble_omega(z1ctx, spectral)
    parity = theorem_conclusions_resonant(z1ctx, spectral, s=1)
    full_odd = {c.cls.key for c in full.conclusions if c.mode % 2 == 1}
    assert {c.cls.key for c in parity.conclusions} == full_odd
