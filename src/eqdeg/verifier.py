"""Numerical corroboration for the delay network: spectral collocation,
Newton refinement, and symmetry detection of computed trajectories.

Delays commensurate with the period act exactly on trigonometric modes
(a phase shift per mode), so trajectories are represented by Fourier
coefficients and delayed evaluation is exact for band-limited functions.
Nothing here is proof-grade: detected symmetries are numerical evidence,
reported with their residuals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import pi

import numpy as np


class SpecError(ValueError):
    pass


@dataclass
class SystemSpec:
    """Second-order delay system x'' = f(x(t), x(t - p/m), ...).

    The right-hand side is a polynomial: per component, a list of terms
    (coefficient, ((variable, power), ...)) over the m*n delayed variables,
    variable j*n + c meaning component c of the j-th delayed block, plus an
    optional linear part given as m matrices.
    """

    n: int
    m: int
    period: float
    linear: list | None = None
    terms: list = field(default_factory=list)

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

    # -- structural checks --------------------------------------------------

    def check_reversible(self, tol: float = 0.0) -> None:
        """Delayed arguments must enter symmetrically: block j paired with
        block m - j."""
        if self.linear is not None:
            for j in range(1, self.m):
                if not np.allclose(
                    self.linear[j], self.linear[(self.m - j) % self.m], atol=tol
                ):
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
                if abs(bag.get(mirrored, 0.0) - coeff) > max(tol, 1e-12):
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
        out = np.zeros((args.shape[0], self.n))
        if self.linear is not None:
            for j in range(self.m):
                block = args[:, j * self.n : (j + 1) * self.n]
                out += block @ self.linear[j].T
        for c, comp_terms in enumerate(self.terms):
            for coeff, powers in comp_terms:
                val = np.full(args.shape[0], float(coeff))
                for (v, p) in powers:
                    val = val * args[:, v] ** p
                out[:, c] += val
        return out

    def rhs_jacobian(self, args: np.ndarray) -> np.ndarray:
        """d f / d args on rows of args -> (N, n, m*n)."""
        args = np.atleast_2d(np.asarray(args, dtype=float))
        N = args.shape[0]
        jac = np.zeros((N, self.n, self.m * self.n))
        if self.linear is not None:
            for j in range(self.m):
                jac[:, :, j * self.n : (j + 1) * self.n] += self.linear[j]
        for c, comp_terms in enumerate(self.terms):
            for coeff, powers in comp_terms:
                # product rule over factor positions: a variable listed twice
                # contributes once per position
                for i, (v, p) in enumerate(powers):
                    val = np.full(N, float(coeff) * p)
                    val = val * args[:, v] ** (p - 1)
                    for j, (w, q) in enumerate(powers):
                        if j != i:
                            val = val * args[:, w] ** q
                    jac[:, c, v] += val
        return jac

    @staticmethod
    def from_json(payload) -> "SystemSpec":
        data = json.loads(payload) if isinstance(payload, str) else payload
        linear = data.get("linear")
        if linear is not None:
            linear = [
                [[float(Fraction(str(v))) for v in row] for row in mat]
                for mat in linear
            ]
        terms = [
            [
                (float(Fraction(str(t["coeff"]))), tuple((int(v), int(p)) for v, p in t["powers"]))
                for t in comp
            ]
            for comp in data.get("terms", [])
        ] or None
        spec = SystemSpec(
            n=int(data["n"]),
            m=int(data["m"]),
            period=float(data.get("period", 2 * pi)),
            linear=linear,
            terms=terms or [],
        )
        return spec


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
    return SystemSpec(n=spec.n, m=spec.m, period=2 * pi, linear=linear, terms=terms)


@dataclass
class FourierSolution:
    """Trigonometric polynomial: rows [constant, cos 1..K, sin 1..K] per
    component."""

    K: int
    coeffs: np.ndarray
    residual_norm: float = float("nan")

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape[0] != 2 * self.K + 1:
            raise SpecError("coefficient rows must equal 2K+1")

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def copy(self) -> "FourierSolution":
        return FourierSolution(self.K, self.coeffs.copy(), self.residual_norm)

    def values(self, tgrid: np.ndarray, shift: float = 0.0) -> np.ndarray:
        return basis_matrix(self.K, tgrid, shift) @ self.coeffs

    def derivative(self) -> "FourierSolution":
        K = self.K
        k = np.arange(1, K + 1)[:, None]
        out = np.zeros_like(self.coeffs)
        out[1 : K + 1] = k * self.coeffs[K + 1 :]
        out[K + 1 :] = -k * self.coeffs[1 : K + 1]
        return FourierSolution(K, out)

    def sup_norm(self, samples: int = 512) -> float:
        t = np.linspace(0, 2 * pi, samples, endpoint=False)
        return float(np.max(np.abs(self.values(t))))

    def is_constant(self, tol: float = 1e-8) -> bool:
        return bool(np.max(np.abs(self.coeffs[1:])) <= tol)

    def to_json(self) -> str:
        return json.dumps(
            {
                "K": self.K,
                "residual_norm": self.residual_norm,
                "coefficients": self.coeffs.tolist(),
            }
        )

    @staticmethod
    def from_json(payload) -> "FourierSolution":
        data = json.loads(payload) if isinstance(payload, str) else payload
        return FourierSolution(
            int(data["K"]),
            np.asarray(data["coefficients"], dtype=float),
            float(data.get("residual_norm", float("nan"))),
        )

    def sample_csv(self, samples: int = 256) -> str:
        """Time series of the trajectory as CSV text (t, x_1, ..., x_n)."""
        t = np.linspace(0, 2 * pi, samples, endpoint=False)
        values = self.values(t)
        lines = ["t," + ",".join(f"x{c + 1}" for c in range(self.n))]
        for ti, row in zip(t, values):
            lines.append(",".join(f"{v:.12g}" for v in [ti, *row]))
        return "\n".join(lines) + "\n"

    def transformed(self, theta: float, reverse: bool, perm=None, sign: int = 1) -> "FourierSolution":
        """sign * perm applied to x(t + theta) (or x(-t + theta))."""
        K = self.K
        k = np.arange(1, K + 1)[:, None]
        c, s = np.cos(k * theta), np.sin(k * theta)
        u, v = self.coeffs[1 : K + 1], self.coeffs[K + 1 :]
        out = np.empty_like(self.coeffs)
        out[0] = self.coeffs[0]
        out[1 : K + 1] = c * u + s * v
        out[K + 1 :] = s * u - c * v if reverse else c * v - s * u
        if perm is not None:
            out = out[:, perm_inverse_columns(perm)]
        return FourierSolution(K, sign * out)


def perm_inverse_columns(perm) -> list[int]:
    """Column gather indices so that column target perm[c] receives source c."""
    inv = [0] * len(perm)
    for i, img in enumerate(perm):
        inv[img] = i
    return inv


def basis_matrix(K: int, tgrid: np.ndarray, shift: float = 0.0) -> np.ndarray:
    t = np.asarray(tgrid, dtype=float) - shift
    cols = [np.ones_like(t)]
    for k in range(1, K + 1):
        cols.append(np.cos(k * t))
    for k in range(1, K + 1):
        cols.append(np.sin(k * t))
    return np.stack(cols, axis=1)


def second_derivative_matrix(K: int, tgrid: np.ndarray) -> np.ndarray:
    B = basis_matrix(K, tgrid)
    scale = np.concatenate(
        [[0.0], [-(k**2) for k in range(1, K + 1)], [-(k**2) for k in range(1, K + 1)]]
    )
    return B * scale


def projection_matrix(K: int, tgrid: np.ndarray) -> np.ndarray:
    """Trigonometric projection from grid samples back to mode coefficients."""
    N = len(tgrid)
    B = basis_matrix(K, tgrid)
    weights = np.concatenate([[1.0], np.full(2 * K, 2.0)]) / N
    return (B * weights).T


def delayed_arguments(spec: SystemSpec, sol: FourierSolution, tgrid: np.ndarray) -> np.ndarray:
    blocks = [
        sol.values(tgrid, shift=2 * pi * j / spec.m) for j in range(spec.m)
    ]
    return np.concatenate(blocks, axis=1)


def residual(spec: SystemSpec, sol: FourierSolution, grid_size: int | None = None) -> float:
    """Sup norm over the grid of x'' - f(x_t); delays evaluated exactly on
    modes."""
    if abs(spec.period - 2 * pi) > 1e-12:
        spec = normalize(spec)
    N = grid_size or (4 * sol.K + 1)
    if N < 4 * sol.K + 1:
        raise SpecError("grid must have at least 4K+1 points")
    t = np.linspace(0, 2 * pi, N, endpoint=False)
    acc = second_derivative_matrix(sol.K, t) @ sol.coeffs
    f = spec.rhs(delayed_arguments(spec, sol, t))
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


def _collocation(spec: SystemSpec, K: int):
    """Projection P, P @ D2 and the m shifted bases stacked row-wise, on the
    4K+1-point grid of a spec with period 2*pi."""
    t = np.linspace(0, 2 * pi, 4 * K + 1, endpoint=False)
    P = projection_matrix(K, t)
    PD2 = P @ second_derivative_matrix(K, t)
    Bs = np.concatenate(
        [basis_matrix(K, t, shift=2 * pi * j / spec.m) for j in range(spec.m)]
    )
    return P, PD2, Bs


def _mode_jacobian(
    jac_pointwise: np.ndarray, P: np.ndarray, PD2: np.ndarray, Bs: np.ndarray
) -> np.ndarray:
    """Mode-space Jacobian J[:, c, :, d] = PD2 [c == d] - sum_j P diag(Df_j[c, d]) B_j.

    jac_pointwise is d f / d args on the grid, shape (N, n, m*n).  The sum
    over delay blocks j and grid points is one GEMM per (c, d) over the
    stacked grid of length m*N, so no temporary is larger than P tiled m
    times.
    """
    N, n, mn = jac_pointwise.shape
    m = mn // n
    M = P.shape[0]
    Df = jac_pointwise.reshape(N, n, m, n).transpose(1, 3, 2, 0).reshape(n, n, m * N)
    Ps = np.tile(P, m)
    J = np.empty((M, n, M, n))
    for c in range(n):
        for d in range(n):
            J[:, c, :, d] = -((Ps * Df[c, d]) @ Bs)
        J[:, c, :, c] += PD2
    return J


def newton_solve(
    spec: SystemSpec,
    initial: FourierSolution,
    tol: float = 1e-10,
    max_iter: int = 40,
    damping: float = 1.0,
    forcing: np.ndarray | None = None,
) -> tuple[FourierSolution, NewtonReport]:
    """Newton iteration on the mode-space projection of x'' - f(x_t) (+g).

    Returns the refined solution and a convergence report; non-convergence
    is reported, never raised.  Convergence needs both the mode-space norm
    below tol and a grid sup residual of at most SUP_RESIDUAL_TOL.
    """
    if abs(spec.period - 2 * pi) > 1e-12:
        spec = normalize(spec)
    K = initial.K
    n = spec.n
    M = 2 * K + 1
    P, PD2, Bs = _collocation(spec, K)
    g_modes = 0.0
    if forcing is not None:
        g_modes = P @ forcing

    sol = initial.copy()
    history = []

    def mode_residual(c):
        args = np.hstack(np.split(Bs @ c, spec.m))
        return PD2 @ c - P @ spec.rhs(args) - g_modes, args

    for it in range(max_iter):
        G, args = mode_residual(sol.coeffs)
        norm = float(np.sqrt(np.sum(G * G)))
        history.append(norm)
        if norm < tol:
            sup = residual_with_forcing(spec, sol, forcing)
            ok = sup <= SUP_RESIDUAL_TOL
            message = "" if ok else (
                f"mode-space norm {norm:.3g} < tol but grid sup residual "
                f"{sup:.3g} > {SUP_RESIDUAL_TOL:g}"
            )
            return (
                FourierSolution(K, sol.coeffs, sup),
                NewtonReport(ok, it, sup, history, message),
            )
        J = _mode_jacobian(spec.rhs_jacobian(args), P, PD2, Bs)
        try:
            step = np.linalg.solve(J.reshape(M * n, M * n), G.reshape(-1))
        except np.linalg.LinAlgError:
            return (
                FourierSolution(K, sol.coeffs, float("inf")),
                NewtonReport(False, it, float("inf"), history, "singular Jacobian"),
            )
        lam = damping
        for _ in range(20):
            trial = sol.coeffs - lam * step.reshape(M, n)
            Gt, _ = mode_residual(trial)
            if np.sqrt(np.sum(Gt * Gt)) < norm:
                sol = FourierSolution(K, trial)
                break
            lam /= 2
        else:
            sup = residual_with_forcing(spec, sol, forcing)
            return (
                FourierSolution(K, sol.coeffs, sup),
                NewtonReport(False, it, sup, history, "line search stalled"),
            )
    sup = residual_with_forcing(spec, sol, forcing)
    return (
        FourierSolution(K, sol.coeffs, sup),
        NewtonReport(
            sup <= SUP_RESIDUAL_TOL, max_iter, sup, history, "iteration budget reached"
        ),
    )


def residual_with_forcing(spec, sol, forcing) -> float:
    if forcing is None:
        return residual(spec, sol)
    N = 4 * sol.K + 1
    t = np.linspace(0, 2 * pi, N, endpoint=False)
    acc = second_derivative_matrix(sol.K, t) @ sol.coeffs
    f = spec.rhs(delayed_arguments(spec, sol, t)) + forcing
    return float(np.max(np.abs(acc - f)))


def newton_jacobian_at(spec: SystemSpec, K: int) -> np.ndarray:
    """Mode-space Jacobian at the zero solution, shape (M, n, M, n)."""
    if abs(spec.period - 2 * pi) > 1e-12:
        spec = normalize(spec)
    P, PD2, Bs = _collocation(spec, K)
    zero = np.zeros((P.shape[1], spec.m * spec.n))
    return _mode_jacobian(spec.rhs_jacobian(zero), P, PD2, Bs)


def mode_block(J: np.ndarray, k: int, K: int) -> np.ndarray:
    """Restrict the (M, n, M, n) Jacobian to the cos/sin rows of mode k."""
    n = J.shape[1]
    if k == 0:
        rows = [0]
    else:
        rows = [k, K + k]
    sub = J[np.ix_(rows, range(n), rows, range(n))]
    size = len(rows) * n
    return sub.reshape(size, size)


# ---------------------------------------------------------------------------
# symmetry detection


@dataclass
class DetectedSymmetry:
    theta_turns: Fraction
    reverse: bool
    gamma: tuple
    sign: int
    error: float

    def jsonable(self) -> dict:
        return {
            "theta_turns": str(self.theta_turns),
            "reverse": self.reverse,
            "gamma": list(self.gamma),
            "sign": self.sign,
            "error": self.error,
        }


def isotropy_of_trajectory(
    sol: FourierSolution,
    gamma_perms: list[tuple],
    tol: float = 1e-7,
    theta_denominator: int = 24,
) -> list[DetectedSymmetry]:
    """Scan (shift, reversal, gamma, sign) candidates that fix the trajectory.

    Shifts run over multiples of 1/theta_denominator turns.  The output is
    numerical evidence, with the matching error attached.
    """
    scale = max(1.0, float(np.max(np.abs(sol.coeffs))))
    out = []
    for num in range(theta_denominator):
        theta = Fraction(num, theta_denominator)
        angle = 2 * pi * float(theta)
        for reverse in (False, True):
            for perm in gamma_perms:
                for sign in (1, -1):
                    cand = sol.transformed(angle, reverse, perm, sign)
                    err = float(np.max(np.abs(cand.coeffs - sol.coeffs)))
                    if err <= tol * scale:
                        out.append(
                            DetectedSymmetry(theta, reverse, tuple(perm), sign, err)
                        )
    return out


def class_matches_symmetries(
    cls,
    detected: list[DetectedSymmetry],
    perm_of_gamma_index,
) -> bool:
    """Does every element of the amalgamated class appear among the detected
    trajectory symmetries?"""
    found = {
        (sym.theta_turns, sym.reverse, sym.gamma, sym.sign) for sym in detected
    }
    for (u, s, gidx) in cls.elems:
        perm, eps = perm_of_gamma_index(gidx)
        key = (Fraction(u, cls.grid), s == -1, tuple(perm), eps)
        if key not in found:
            return False
    return True


# ---------------------------------------------------------------------------
# a-priori bound monitoring


def apriori_check(
    spec: SystemSpec,
    sol: FourierSolution,
    radius: float,
    samples: int = 4000,
    seed: int = 0,
) -> dict:
    """Check the solution against the homotopy bound max(R, M1, 2*pi*M1) + 1,
    with M1 estimated by sampling the right-hand side on the radius box."""
    rng = np.random.default_rng(seed)
    args = rng.uniform(-radius, radius, size=(samples, spec.m * spec.n))
    x_part = args[:, : spec.n]
    f_vals = spec.rhs(args)
    # the homotopy deformation lam*(f - x) + x is extremal at lam in {0, 1}
    m1 = max(
        float(np.max(np.abs(f_vals))),
        float(np.max(np.abs(x_part))),
    )
    bound = max(radius, m1, 2 * pi * m1) + 1
    x_sup = sol.sup_norm()
    dx_sup = sol.derivative().sup_norm()
    ddx_sup = sol.derivative().derivative().sup_norm()
    return {
        "bound": bound,
        "x_sup": x_sup,
        "dx_sup": dx_sup,
        "ddx_sup": ddx_sup,
        "within": bool(x_sup < bound and dx_sup < bound and ddx_sup < bound),
    }
