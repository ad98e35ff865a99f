"""Numerical corroboration for the delay network: spectral collocation,
Newton refinement, and symmetry detection of computed trajectories.

Delays commensurate with the period act exactly on trigonometric modes
(a phase shift per mode), so trajectories are represented by Fourier
coefficients and delayed evaluation is exact for band-limited functions.
Nothing here is proof-grade: detected symmetries are numerical evidence,
reported with their residuals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import pi

import numpy as np

from .ddedeg import _isotypic_projector, check_growth_condition
from .o2gamma import maximal_orbit_types
from .permgroup import p_inv


class SpecError(ValueError):
    pass


class _Monomials:
    """A sum of monomials coeff * y_a * y_b * ..., each added to one output
    column: every factor list is padded to one width with n_vars, which
    stands for the factor 1.0, so an evaluation is one gather, one product
    and one scatter product.

    The gather reads args itself, the padding slots sent to column 0; the
    product skips them (`where=used`) and starts from 1.0, so it equals the
    product over args with a column of ones appended, whose factors 1.0
    come last."""

    def __init__(self, monomials, n_vars: int, n_out: int):
        """monomials: (coeff, Counter of variable powers, output column)."""
        width = max((sum(deg.values()) for _, deg, _ in monomials), default=0)
        self.factors = np.full((len(monomials), width), n_vars)
        self.coeffs = np.array([coeff for coeff, _, _ in monomials], dtype=float)
        self.scatter = np.zeros((len(monomials), n_out))
        for i, (_, deg, out) in enumerate(monomials):
            factors = list(deg.elements())
            self.factors[i, : len(factors)] = factors
            self.scatter[i, out] = 1.0
        self.used = self.factors < n_vars
        self._gather = np.where(self.used, self.factors, 0)

    def __call__(self, args: np.ndarray) -> np.ndarray:
        """Values on rows of args (N, n_vars) -> (N, n_out)."""
        prods = np.multiply.reduce(args[:, self._gather], axis=2, where=self.used, initial=1.0)
        return (self.coeffs * prods) @ self.scatter


@dataclass
class SystemSpec:
    """Second-order delay system x'' = f(x(t), x(t - p/m), ...).

    The right-hand side is a polynomial: per component, a list of terms
    (coefficient, ((variable, power), ...)) over the m*n delayed variables,
    variable j*n + c meaning component c of the j-th delayed block, plus an
    optional linear part given as m matrices.  tol is the run's tolerance
    for `check_reversible`.
    """

    n: int
    m: int
    period: float
    linear: list | None = None
    terms: list = field(default_factory=list)
    tol: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise SpecError("period must be positive")
        if self.linear is not None:
            if len(self.linear) != self.m:
                raise SpecError(f"expected {self.m} linear blocks")
            self.linear = [np.asarray(a, dtype=float) for a in self.linear]
            for a in self.linear:
                if a.shape != (self.n, self.n):
                    raise SpecError("linear block size mismatch")
        if not self.terms:
            self.terms = [[] for _ in range(self.n)]
        if len(self.terms) != self.n:
            raise SpecError("terms must list one entry per component")
        # f(y) = y @ linear_stack + terms(y), d f / d y = linear part + the
        # derivative of each term in each of its variables, as monomials
        mn = self.m * self.n
        self._linear_stack = np.zeros((mn, self.n))
        if self.linear is not None:
            self._linear_stack = np.concatenate([a.T for a in self.linear])
        terms, derivatives = [], []
        for c, comp_terms in enumerate(self.terms):
            for coeff, powers in comp_terms:
                deg = Counter()
                for v, p in powers:
                    if not (0 <= v < mn and int(v) == v and int(p) == p >= 0):
                        raise SpecError(f"component {c}: factor {(v, p)} is not a variable power")
                    deg[int(v)] += int(p)
                terms.append((float(coeff), deg, c))
                for v, p in deg.items():
                    if p:
                        derivatives.append((float(coeff) * p, deg - Counter({v: 1}), c * mn + v))
        self._terms = _Monomials(terms, mn, self.n)
        self._derivatives = _Monomials(derivatives, mn, self.n * mn)

    # -- structural checks --------------------------------------------------

    def check_reversible(self, tol: float | None = None) -> None:
        """Delayed arguments must enter symmetrically: block j paired with
        block m - j, the linear blocks equal within tol times max(1, their
        largest entry) and the term coefficients within the absolute tol
        (the spec's own tol by default)."""
        if tol is None:
            tol = self.tol
        if self.linear is not None:
            for j in range(1, self.m):
                a, b = self.linear[j], self.linear[self.m - j]
                scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
                if not np.allclose(a, b, rtol=0, atol=tol * scale):
                    raise SpecError(f"linear blocks {j} and {self.m - j} differ")
        for c, comp_terms in enumerate(self.terms):
            bag = {}
            for coeff, powers in comp_terms:
                key = tuple(sorted(powers))
                bag[key] = bag.get(key, 0.0) + coeff
            for key, coeff in bag.items():
                mirrored = tuple(
                    sorted((self._mirror_var(v), p) for (v, p) in key)
                )
                if abs(bag.get(mirrored, 0.0) - coeff) > tol:
                    raise SpecError(
                        f"component {c}: term {key} has no mirrored partner"
                    )

    def _mirror_var(self, v: int) -> int:
        j, c = divmod(v, self.n)
        return ((self.m - j) % self.m) * self.n + c

    def check_odd(self) -> None:
        for c, comp_terms in enumerate(self.terms):
            for coeff, powers in comp_terms:
                if sum(p for (_, p) in powers) % 2 == 0 and coeff != 0:
                    raise SpecError(f"component {c}: even-degree term {powers}")

    # -- evaluation ----------------------------------------------------------

    def rhs(self, args: np.ndarray) -> np.ndarray:
        """Evaluate f on rows of args (shape (N, m*n)) -> (N, n)."""
        args = np.atleast_2d(np.asarray(args, dtype=float))
        out = self._terms(args)
        out += args @ self._linear_stack
        return out

    def rhs_jacobian(self, args: np.ndarray) -> np.ndarray:
        """d f / d args on rows of args -> (N, n, m*n)."""
        args = np.atleast_2d(np.asarray(args, dtype=float))
        jac = self._derivatives(args)
        jac += self._linear_stack.T.ravel()
        return jac.reshape(len(args), self.n, self.m * self.n)


def normalize(spec: SystemSpec) -> SystemSpec:
    """Rescale time so the period becomes 2*pi; the right-hand side picks up
    the factor (p / 2*pi)^2 and delays become 2*pi*j/m."""
    alpha2 = (spec.period / (2 * pi)) ** 2
    linear = None
    if spec.linear is not None:
        linear = [alpha2 * a for a in spec.linear]
    terms = [
        [(alpha2 * coeff, powers) for (coeff, powers) in comp]
        for comp in spec.terms
    ]
    return SystemSpec(n=spec.n, m=spec.m, period=2 * pi, linear=linear, terms=terms, tol=spec.tol)


@dataclass
class FourierSolution:
    """Trigonometric polynomial: rows [constant, cos 1..K, sin 1..K] per
    component."""

    K: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape[0] != 2 * self.K + 1:
            raise SpecError("coefficient rows must equal 2K+1")

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def copy(self) -> "FourierSolution":
        return FourierSolution(self.K, self.coeffs.copy())

    def samples(self, N: int, shifts=(0.0,)) -> np.ndarray:
        """x(t_i - s) on the grid t_i = 2*pi*i/N for each shift s, shape
        (len(shifts), N, n): one irfft, with the shift as the phase
        exp(-i k s) on mode k.  Exact for N >= 2K+1."""
        K = self.K
        if N < 2 * K + 1:
            raise SpecError("the grid needs at least 2K+1 points")
        spectrum = np.zeros((len(shifts), N // 2 + 1, self.n), dtype=complex)
        spectrum[:, 0] = N * self.coeffs[0]
        spectrum[:, 1 : K + 1] = N / 2 * (self.coeffs[1 : K + 1] - 1j * self.coeffs[K + 1 :])
        spectrum[:, : K + 1] *= np.exp(-1j * np.outer(shifts, np.arange(K + 1)))[:, :, None]
        return np.fft.irfft(spectrum, n=N, axis=1)

    def derivative(self) -> "FourierSolution":
        K = self.K
        k = np.arange(1, K + 1)[:, None]
        out = np.zeros_like(self.coeffs)
        out[1 : K + 1] = k * self.coeffs[K + 1 :]
        out[K + 1 :] = -k * self.coeffs[1 : K + 1]
        return FourierSolution(K, out)

    def sup_norm(self, samples: int = 512) -> float:
        return float(np.max(np.abs(self.samples(samples))))

    def is_constant(self, tol: float = 1e-8) -> bool:
        return bool(np.max(np.abs(self.coeffs[1:])) <= tol)

    def transformed(self, theta: float, reverse: bool, perm=None, sign: int = 1) -> "FourierSolution":
        """sign * perm applied to x(t + theta) (or x(-t + theta))."""
        out = _time_map(self.coeffs, *_phases(self.K, theta), reverse)
        if perm is not None:
            out = out[:, p_inv(perm)]
        return FourierSolution(self.K, sign * out)


def _phases(K: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """cos(k theta) and sin(k theta) for k = 1..K, shape (K, 1)."""
    k = np.arange(1, K + 1)[:, None]
    return np.cos(k * theta), np.sin(k * theta)


def _time_map(coeffs: np.ndarray, c: np.ndarray, s: np.ndarray, reverse: bool) -> np.ndarray:
    """The rows [constant, cos 1..k, sin 1..k] of x(t + theta) (or
    x(-t + theta)) from those of x, given c = cos(j theta) and
    s = sin(j theta) for j = 1..k, shape (..., k, 1): the maps of several
    theta at once over the leading axes.  Each entry is the same two
    products and one sum whatever the shapes, so the first rows of c and
    s with the rows of the modes 0..k of a longer solution give the same
    rows of its map, to the bit."""
    k = c.shape[-2]
    u, v = coeffs[1 : k + 1], coeffs[k + 1 :]
    constant = np.broadcast_to(coeffs[:1], c.shape[:-2] + coeffs[:1].shape)
    moved = s * u - c * v if reverse else c * v - s * u
    return np.concatenate([constant, c * u + s * v, moved], axis=-2)


def modes(values: np.ndarray, K: int) -> np.ndarray:
    """Rows [constant, cos 1..K, sin 1..K] of the trigonometric projection of
    samples on the grid t_i = 2*pi*i/N (values of shape (N, n), N >= 2K+1),
    by one rfft; the inverse of `FourierSolution.samples`."""
    N = len(values)
    if N < 2 * K + 1:
        raise SpecError("the grid needs at least 2K+1 points")
    R = np.fft.rfft(values, axis=0)[: K + 1] * (2 / N)
    return np.concatenate([R[:1].real / 2, R[1:].real, -R[1:].imag])


def _k_squared(K: int) -> np.ndarray:
    """k^2 on the rows [constant, cos 1..K, sin 1..K]: x'' has the modes
    -k^2 c."""
    k2 = np.arange(K + 1) ** 2.0
    return np.concatenate([k2, k2[1:]])


def _checked_forcing(forcing, N: int, n: int) -> np.ndarray:
    forcing = np.asarray(forcing, dtype=float)
    if forcing.shape != (N, n):
        raise SpecError(f"forcing must have shape {(N, n)}, not {forcing.shape}")
    return forcing


def residual(
    spec: SystemSpec,
    sol: FourierSolution,
    grid_size: int | None = None,
    forcing: np.ndarray | None = None,
) -> float:
    """Sup norm over the grid of x'' - f(x_t) - forcing; delays evaluated
    exactly on modes.  forcing is sampled on the same grid, shape (N, n)."""
    if abs(spec.period - 2 * pi) > 1e-12:
        spec = normalize(spec)
    N = grid_size or (4 * sol.K + 1)
    if N < 4 * sol.K + 1:
        raise SpecError("grid must have at least 4K+1 points")
    delays = 2 * pi * np.arange(spec.m) / spec.m
    acc = sol.derivative().derivative().samples(N)[0]
    f = spec.rhs(np.concatenate(sol.samples(N, delays), axis=1))
    if forcing is not None:
        f = f + _checked_forcing(forcing, N, sol.n)
    return float(np.max(np.abs(acc - f)))


@dataclass
class NewtonReport:
    converged: bool
    iterations: int
    residual_sup: float
    residual_history: list[float]
    message: str = ""


# A solve counts as converged only if its 4K+1-grid sup residual is at most
# this, whatever the mode-space norm says.
SUP_RESIDUAL_TOL = 1e-6


def fft_length(n: int) -> int:
    """The least 2*3*5-smooth integer >= n: numpy's pocketfft runs such a
    length by its mixed-radix passes and a prime length, such as 4K+1 = 257
    at K = 64, by Bluestein's chirp-z algorithm, about ten times slower."""
    n = max(n, 1)
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def _mode_jacobian(jac_pointwise: np.ndarray, K: int, keep: np.ndarray | None = None) -> np.ndarray:
    """Mode-space Jacobian of the residual -k^2 c - modes(f(x_t)): the
    diagonal -k^2 on the rows [constant, cos 1..K, sin 1..K] of every
    component (sampling x'' and projecting it back is exact on this grid),
    minus J_f[:, c, :, d] = sum_j P diag(w_j) B_j, read off the discrete
    Fourier coefficients of the pointwise Jacobian.  With a boolean mask
    keep over those 2K+1 rows, only the kept rows and columns are built,
    shape (kept, n, kept, n); the entries equal those of the full J.

    jac_pointwise is d f / d args on the grid t_i = 2*pi*i/N, N >= 4K+1, shape
    (N, n, m*n); w_j = jac_pointwise[:, c, j*n + d], B_j samples the rows at
    t_i - s_j for the delay s_j = 2*pi*j/m, and P is the projection `modes`.
    Let R_j[p] = sum_i w_j(t_i) exp(-i p t_i), the rows p = 0..2K of the
    rfft, which has them for every N >= 4K+1.  The product-to-sum rules
    hold at every grid point, so summed over the grid they are exact
    discrete identities on any such N, and J is the exact Jacobian of the
    residual collocated on that grid.  With F_j[q] = conj R_j[q] and
    F_j[-q] = R_j[q] (w_j is real) they give for the modes k, l = 0..K

        a = sum_j exp(i l s_j) F_j[k - l],   b = sum_j exp(-i l s_j) F_j[k + l],

        sum_j cos_k w_j cos_l(. - s_j) = Re(a + b) / 2,
        sum_j cos_k w_j sin_l(. - s_j) = -Im(a - b) / 2,
        sum_j sin_k w_j cos_l(. - s_j) = Im(a + b) / 2,
        sum_j sin_k w_j sin_l(. - s_j) = Re(a - b) / 2,

    and P weights row k by 1/N for k = 0 and 2/N otherwise (Boyd, Chebyshev
    and Fourier Spectral Methods, ch. 9).  The delays are equally spaced,
    so exp(i l s_j) = exp(2*pi*i l j / m) depends on l only through
    l mod m, and every delay sum is an entry of one length-m DFT over j:

        G[p, r] = -1/N sum_j exp(2*pi*i r j / m) R_j[p],   r = 0..m-1,

        -a/N = conj G[k - l, -l mod m] (k >= l),  G[l - k, l mod m] (k < l),
        -b/N = conj G[k + l, l mod m].

    Delays that are not multiples of 2*pi/m would give each l its own
    phases and so its own sum.

    A column w_j of jac_pointwise that is constant on the grid, w_j = A_j,
    has R_j[0] = N A_j and R_j[p] = 0 for p = 1..2K: exp(-i p t_i) runs
    over the N-th roots of unity p times, and they sum to 0 for every p
    that N does not divide.  So its a is nonzero only at k - l = 0 and its
    b only at k + l = 0, and it adds to the diagonal blocks (k, k) only.
    There a = -(C_k + i S_k) with C_k + i S_k = sum_j A_j exp(i k s_j),
    so it adds -[[C_k, -S_k], [S_k, C_k]] to the [cos k, sin k] rows and
    columns; at k = 0, where b = a and row 0 has P's weight 1/N, it adds
    -C_0.  Such columns come from the linear part of f and from every
    term whose derivative is constant along the orbit: on the bundled
    hexagon system 210 of the m n^2 = 216 columns, all but the derivatives
    of its cubic terms.

    Only the other columns go through the rfft and one product of their
    (2K+1) x m rows per entry pair (c, d) with the m x m DFT matrix,
    which give G for every pair that holds such a column; J is then read
    off G and its conjugate by index gathers, vectorised over at most n
    pairs at a time, so besides J the temporaries are G and its
    conjugate, with at most 2 (2K+1) m n^2 entries, and one gather of a
    and b, with at most 2 nc^2 n entries, nc the number of kept cos modes
    (K + 1 for the full J).  The DFT matrix and the gather index depend
    only on K, m and keep, and come from `_jacobian_tables`.
    """
    N, n, mn = jac_pointwise.shape
    m = mn // n
    M = 2 * K + 1
    cos_k, t, dft, at = _jacobian_tables(
        K, m, None if keep is None else np.asarray(keep, dtype=bool).tobytes()
    )
    nc = len(cos_k)
    # column (c, j, d) of w is the entry (c, d) of delay block j
    w = jac_pointwise.reshape(N, mn * n)
    constant = (w == w[0]).all(axis=0)
    J = np.zeros((2 * nc - t, n, 2 * nc - t, n))
    moving = ~constant.reshape(n, m, n)
    pairs = np.flatnonzero(moving.any(axis=1))  # c * n + d
    c, j, d = np.nonzero(moving)
    # R[pair, p, j] = R_j[p] of the pair's entry, 0 for a constant column
    R = np.zeros((len(pairs), M, m), dtype=complex)
    R[np.searchsorted(pairs, c * n + d), :, j] = np.fft.rfft(w[:, ~constant], axis=0)[:M].T
    # -1/N is P's row weight 2/N times the 1/2 of the rules; row 0 is halved below
    G = (R.reshape(-1, m) @ (dft / -N)).reshape(len(pairs), M * m)
    del R
    # G and its conjugate side by side, so a and b are one gather of
    # G[pair] at `at`
    G = np.concatenate([G, G.conj()], axis=1)
    for lo in range(0, len(pairs), n):
        c, d = np.divmod(pairs[lo : lo + n], n)
        # Re(a + b), -Im(a - b), Im(a + b) and Re(a - b), indexed [pair, k, l]
        a, b = np.moveaxis(G[lo : lo + n, at], 1, 0)
        J[:nc, c, :nc, d] = a.real + b.real
        J[:nc, c, nc:, d] = b.imag[:, :, t:] - a.imag[:, :, t:]
        J[nc:, c, :nc, d] = a.imag[:, t:] + b.imag[:, t:]
        J[nc:, c, nc:, d] = a.real[:, t:, t:] - b.real[:, t:, t:]
        del a, b  # freed before the next pairs' gather
    if nc and cos_k[0] == 0:
        J[0] *= 0.5
    # the diagonal blocks: CS[k] = C_k + i S_k of the constant columns,
    # and -k^2 on the diagonal of block (k, k) of each kept row
    CS = (dft @ np.where(constant, w[0], 0.0).reshape(n, m, n))[:, cos_k % m].swapaxes(0, 1)
    diagonal = CS.real + cos_k[:, None, None] ** 2 * np.eye(n)
    cos, sin = np.arange(nc), np.arange(nc, J.shape[0])
    J[cos, :, cos] -= diagonal
    J[sin, :, sin] -= diagonal[t:]
    J[cos[t:], :, sin] += CS.imag[t:]
    J[sin, :, cos[t:]] -= CS.imag[t:]
    return J


@lru_cache(maxsize=8)
def _jacobian_tables(K: int, m: int, keep: bytes | None) -> tuple:
    """What `_mode_jacobian` reads that depends only on K, m and its mask
    keep (as bytes; None for every row), so a Newton solve builds it once:
    the kept cos modes cos_k (the constant as mode 0), the number t of
    them without a kept sin row, the m x m DFT matrix and the index `at`
    of a and b in G and its conjugate side by side, [a or b, k, l] over
    the kept cos modes, a read from the conjugate where k >= l.  The
    arrays are read-only, as every call shares them."""
    M = 2 * K + 1
    keep = np.ones(M, dtype=bool) if keep is None else np.frombuffer(keep, dtype=bool)
    # the kept sin modes must be cos_k[t:], as in every mask of `_invariant_rows`
    cos_k = np.flatnonzero(keep[: K + 1])
    sin_k = np.flatnonzero(keep[K + 1 :]) + 1
    t = len(cos_k) - len(sin_k)
    if not np.array_equal(cos_k[t:], sin_k):
        raise ValueError("the kept sin modes must be the last kept cos modes")
    r = np.arange(m)
    dft = np.exp(2j * pi / m * (np.outer(r, r) % m))
    k, l = cos_k[:, None], cos_k
    at = np.stack([
        np.where(k >= l, M * m + (k - l) * m + (-l % m), (l - k) * m + l % m),
        M * m + (k + l) * m + l % m,
    ])
    for table in (cos_k, dft, at):
        table.flags.writeable = False
    return cos_k, t, dft, at


def _invariant_rows(spec: SystemSpec, *coeffs: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows [constant, cos 1..K, sin 1..K] that Newton
    solves for, given the seed and forcing modes as coeffs (each of shape
    (2K+1, n)).

    Two maps may commute with the residual of spec.  Reversal x(t) ->
    x(-t) does when block j of f equals block m - j, within the spec's
    tol (`check_reversible`); its fixed rows are the constant and cos rows.
    The half-period map x(t) -> -x(t + pi) does when f is odd
    (`check_odd`); its fixed rows are the cos and sin rows of odd k.  A
    map whose check passes and whose fixed rows hold every nonzero entry
    of coeffs drops its other rows; the mask keeps what no such map drops.
    """
    K = (len(coeffs[0]) - 1) // 2
    k = np.concatenate([np.arange(K + 1), np.arange(1, K + 1)])
    cos_rows = np.arange(2 * K + 1) <= K
    keep = np.ones(2 * K + 1, dtype=bool)
    for check, fixed in ((spec.check_reversible, cos_rows), (spec.check_odd, k % 2 == 1)):
        try:
            check()
        except SpecError:
            continue
        if not any(np.any(c[~fixed]) for c in coeffs):
            keep &= fixed
    return keep


def newton_solve(
    spec: SystemSpec,
    initial: FourierSolution,
    tol: float = 1e-10,
    max_iter: int = 40,
    forcing: np.ndarray | None = None,
) -> tuple[FourierSolution, NewtonReport]:
    """Newton iteration on the mode-space projection of x'' - f(x_t) (+g).

    Returns the refined solution and a convergence report; non-convergence
    is reported, never raised.  Convergence needs both the mode-space norm
    below tol and a grid sup residual of at most SUP_RESIDUAL_TOL.

    The step is solved on the rows of `_invariant_rows` only and is 0 on
    the others.  The sin rows are dropped when the spec is reversible and
    the seed and the forcing modes have only zeros there; the constant and
    even-k rows are dropped when f is odd and both have only zeros there.
    Otherwise every row is kept.  Each symmetry S used commutes with the
    residual G (G(Sx) = S G(x)), so at an S-fixed iterate G and the Newton
    step are S-fixed too and the Jacobian maps the fixed rows to
    themselves: Newton on the kept rows is Newton in the fixed space, and
    the dropped rows stay exactly 0.  Reversal also removes the time-shift
    direction x', which lies in the sin rows of an even orbit and spans
    the kernel of the full Jacobian at a periodic orbit.  The residual,
    tol and the sup-residual test still cover every row, so a reduction
    that does not hold can only show as non-convergence.

    The residual is collocated on N = fft_length(4K+1) points (270 at
    K = 64, where 4K+1 = 257 is prime), on which `_mode_jacobian` is exact
    as on any N >= 4K+1.  forcing is sampled on the 4K+1 grid, as for
    `residual`, and the final sup-residual test runs there too.  Each
    iterate is evaluated once: the accepted line-search trial's residual
    is the next step's.
    """
    if abs(spec.period - 2 * pi) > 1e-12:
        spec = normalize(spec)
    K = initial.K
    n = spec.n
    M, N = 2 * K + 1, fft_length(4 * K + 1)
    delays = 2 * pi * np.arange(spec.m) / spec.m
    k2 = _k_squared(K)[:, None]
    g_modes = np.zeros((M, n))
    if forcing is not None:
        g_modes = modes(_checked_forcing(forcing, 4 * K + 1, n), K)
    keep = _invariant_rows(spec, initial.coeffs, g_modes)
    size = int(np.count_nonzero(keep)) * n

    sol = initial.copy()
    history = []

    def mode_residual(c):
        args = np.concatenate(FourierSolution(K, c).samples(N, delays), axis=1)
        return -k2 * c - modes(spec.rhs(args), K) - g_modes, args

    G, args = mode_residual(sol.coeffs)
    for it in range(max_iter):
        norm = float(np.sqrt(np.sum(G * G)))
        history.append(norm)
        if norm < tol:
            sup = residual(spec, sol, forcing=forcing)
            ok = sup <= SUP_RESIDUAL_TOL
            message = "" if ok else (
                f"mode-space norm {norm:.3g} < tol but grid sup residual "
                f"{sup:.3g} > {SUP_RESIDUAL_TOL:g}"
            )
            return sol, NewtonReport(ok, it, sup, history, message)
        J = _mode_jacobian(spec.rhs_jacobian(args), K, keep)
        step = np.zeros((M, n))
        try:
            step[keep] = np.linalg.solve(J.reshape(size, size), G[keep].reshape(-1)).reshape(-1, n)
        except np.linalg.LinAlgError:
            return sol, NewtonReport(False, it, float("inf"), history, "singular Jacobian")
        lam = 1.0
        for _ in range(20):
            trial = sol.coeffs - lam * step
            Gt, args_t = mode_residual(trial)
            if np.sqrt(np.sum(Gt * Gt)) < norm:
                sol = FourierSolution(K, trial)
                G, args = Gt, args_t
                break
            lam /= 2
        else:
            sup = residual(spec, sol, forcing=forcing)
            return sol, NewtonReport(False, it, sup, history, "line search stalled")
    # the mode-space norm never went below tol, so the sup test alone decides nothing
    sup = residual(spec, sol, forcing=forcing)
    return sol, NewtonReport(False, max_iter, sup, history, "iteration budget reached")


# ---------------------------------------------------------------------------
# symmetry detection


@dataclass
class DetectedSymmetry:
    theta_turns: Fraction
    reverse: bool
    gamma: tuple
    sign: int
    error: float


def isotropy_of_trajectory(
    sol: FourierSolution,
    gamma_perms: list[tuple],
    tol: float = 1e-7,
    theta_denominator: int = 24,
) -> list[DetectedSymmetry]:
    """Scan (shift, reversal, gamma, sign) candidates that fix the trajectory.

    Shifts run over multiples of 1/theta_denominator turns.  The output is
    numerical evidence, with the matching error attached.

    Each gamma is a column gather and the sign -1 a negation, both exact,
    so every error equals that of `sol.transformed(theta, reverse, perm,
    sign)`.  An error is a max over the rows, so a candidate whose error
    on the constant, cos 1 and sin 1 rows alone exceeds tol * scale fails.
    The scan first takes that probe for every candidate, from the first
    rows of the phases `transformed` uses, and maps all 2K+1 rows only for
    the (shift, reversal) pairs with a candidate that passes it, and
    compares them only for those candidates.
    """
    K = sol.K
    limit = tol * max(1.0, float(np.max(np.abs(sol.coeffs))))
    gathers = np.array(
        [p_inv(perm) for perm in gamma_perms], dtype=int
    ).reshape(len(gamma_perms), sol.n)
    thetas = [Fraction(num, theta_denominator) for num in range(theta_denominator)]
    phases = [_phases(K, 2 * pi * float(theta)) for theta in thetas]
    # the modes 0..min(K, 1), so at K = 0 the probe is the whole scan
    rows = [0, 1, K + 1][: 2 * min(K, 1) + 1]
    c1 = np.stack([c[:1] for c, _ in phases])
    s1 = np.stack([s[:1] for _, s in phases])
    probe = np.stack(
        [_time_map(sol.coeffs[rows], c1, s1, reverse) for reverse in (False, True)], axis=1
    )
    # [theta, reverse, gamma]: some sign passes the probe
    live = (_scan_errors(probe[..., gathers], sol.coeffs[rows]) <= limit).any(axis=-1)
    out = []
    for theta, (c, s), live_theta in zip(thetas, phases, live):
        for reverse, live_map in zip((False, True), live_theta):
            picked = np.flatnonzero(live_map)
            if not len(picked):
                continue
            moved = _time_map(sol.coeffs, c, s, reverse)[:, gathers[picked]]
            for i, errs in zip(picked, _scan_errors(moved, sol.coeffs)):
                for sign, err in zip((1, -1), errs):
                    if err <= limit:
                        out.append(
                            DetectedSymmetry(theta, reverse, tuple(gamma_perms[i]), sign, float(err))
                        )
    return out


def _scan_errors(moved: np.ndarray, target: np.ndarray) -> np.ndarray:
    """max |sign * moved - target| over rows and columns, moved indexed
    [..., row, gamma, column] and target [row, column], as
    [..., gamma, sign] for the signs 1 and -1."""
    target = target[:, None, :]
    # -x - y rounds to exactly -(x + y)
    return np.stack(
        [np.max(np.abs(moved - target), axis=(-3, -1)), np.max(np.abs(moved + target), axis=(-3, -1))],
        axis=-1,
    )


def element_symmetry(cls, elem) -> tuple:
    """The element (u, s, g) of a finite class over Gamma x Z2 as the
    trajectory map (theta_turns, reverse, perm, sign) that
    `FourierSolution.transformed` applies (theta = 2*pi*theta_turns) and
    `isotropy_of_trajectory` reports.

    The map is the inverse of the element's action: `transformed` shifts
    time the other way, so perm is the inverse of g's permutation too.
    The maps of a class then form a group whose mean projects onto Fix(H).
    """
    u, s, g = elem
    gamma, sign = cls.ctx.signed.parts(cls.ctx.elems[g])
    return Fraction(u, cls.grid), s == -1, p_inv(gamma), sign


def class_matches_symmetries(cls, detected: list[DetectedSymmetry]) -> bool:
    """Does every element of the finite class appear among the detected
    trajectory symmetries?"""
    found = {
        (sym.theta_turns, sym.reverse, sym.gamma, sym.sign) for sym in detected
    }
    return all(element_symmetry(cls, elem) in found for elem in cls.elems)


# ---------------------------------------------------------------------------
# a-priori bound monitoring


def apriori_check(spec: SystemSpec, sol: FourierSolution, radius: float) -> dict:
    """Check the solution against the homotopy bound max(R, M1, 2*pi*M1) + 1,
    M1 the bound on |f| and |x| over the box |y_v| <= R that the homotopy
    deformation lam*(f - x) + x needs (it is extremal at lam in {0, 1}).

    On the box, |f_c| <= sum_v |L[v, c]| R + sum of |coeff| R^deg over the
    terms of component c, and |x| <= R.
    """
    terms = spec._terms
    degrees = np.count_nonzero(terms.used, axis=1)
    f_max = np.abs(spec._linear_stack).sum(axis=0) * radius + (
        np.abs(terms.coeffs) * float(radius) ** degrees
    ) @ terms.scatter
    m1 = max(float(radius), float(np.max(f_max)))
    bound = max(radius, m1, 2 * pi * m1) + 1
    dx = sol.derivative()
    x_sup, dx_sup, ddx_sup = (
        s.sup_norm(max(512, 2 * sol.K + 1)) for s in (sol, dx, dx.derivative())
    )
    return {
        "bound": bound,
        "x_sup": x_sup,
        "dx_sup": dx_sup,
        "ddx_sup": ddx_sup,
        "within": bool(x_sup < bound and dx_sup < bound and ddx_sup < bound),
    }


# ---------------------------------------------------------------------------
# the verify subcommand


def run_verify(result, system) -> dict:
    """`eqdeg verify` on a nondegenerate `cli.AnalysisResult` and the
    `config.System` values of its config."""
    config = result.config
    n = config.table.group.degree
    terms = [[(system.cubic, ((c, 3),))] for c in range(n)]
    spec = SystemSpec(
        n=n, m=config.lin.m, period=2 * pi, linear=config.matrices, terms=terms, tol=config.lin.tol
    )
    spec.check_reversible()
    spec.check_odd()
    growth = check_growth_condition(
        lambda args: list(spec.rhs(np.asarray(args)[None, :])[0]),
        n=n,
        m=spec.m,
        radius=system.radius,
        samples=system.growth_samples,
    )
    # the seed: the first nonzero column of the seed row's isotypic projector
    proj = np.array(_isotypic_projector(config.table, system.seed_row), dtype=float)
    seed = next(v for v in proj.T if v.any())
    K = system.fourier_modes
    coeffs = np.zeros((2 * K + 1, n))
    coeffs[1] = system.seed_amplitude * (seed / np.max(np.abs(seed)))
    sol, rep = newton_solve(spec, FourierSolution(K, coeffs), tol=1e-12, max_iter=100)
    out = {
        "growth_check": growth,
        "converged": rep.converged,
        "iterations": rep.iterations,
        "residual_sup": rep.residual_sup,
        "message": rep.message,
        "non_constant": bool(not sol.is_constant()),
        "matched_classes": [],
        "apriori": None,
    }
    if sol.is_constant():
        out["note"] = "Newton did not produce a non-constant orbit; report retained"
    elif not rep.converged:
        out["note"] = f"Newton did not converge ({rep.message}); report retained"
    else:
        perms = sorted({tuple(g) for g in config.table.group.elements})
        syms = isotropy_of_trajectory(sol, perms, tol=1e-6, theta_denominator=12)
        out["matched_classes"] = sorted(
            cls.name()
            for l in result.spectral.components
            for cls in maximal_orbit_types(result.ctx, 1, l)
            if class_matches_symmetries(cls, syms)
        )
        out["detected_symmetries"] = len(syms)
        out["apriori"] = apriori_check(spec, sol, radius=system.radius)
    return out
