"""Command-line entry point and pipeline orchestration.

Pipeline: character data -> spectral table -> orbit-type enumeration ->
basic degrees -> Burnside product -> existence report.  Reports are
byte-stable across runs: every collection is canonically ordered and no
timestamps are emitted.

Exit codes: 0 success; 2 degenerate spectrum (a zero block eigenvalue,
rerun with --s); 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, nan, pi
from pathlib import Path

from . import __version__
from .basicdeg import basic_degree, format_terms
from .chartab import (
    CharacterError,
    IsotypicDecomposition,
    SignedGroup,
    bundled_table,
    isotypic_multiplicities,
    permutation_character,
    table_from_json,
)
from .ddedeg import (
    DEFAULT_TOL,
    DegreeReport,
    LinearizationData,
    SpectralTable,
    _isotypic_projector,
    assemble_omega,
    default_k_max,
    require_real_components,
    theorem_conclusions_resonant,
)
from .o2gamma import GammaContext, class_product, make_o2
from .permgroup import Group, GroupTooLargeError, parse_perms, subgroup_lattice

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_INVALID = 3

NAME_CAVEAT = (
    "naming: decorated subgroup labels are bindings of this engine; "
    "structural fingerprints (H, |Z|, |L|, |R|, |K|, Weyl order) are authoritative"
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


def load_config(path_or_dict) -> dict:
    if isinstance(path_or_dict, dict):
        data = path_or_dict
    else:
        with open(path_or_dict) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("group", "delays", "linearization"):
        if key not in data:
            raise ConfigError(f"missing config key: {key}")
    delays = data["delays"]
    if not _is_int(delays) or delays < 1:
        raise ConfigError("delays must be a positive integer")
    return data


def _build_group_and_table(config):
    spec = config["group"]
    if isinstance(spec, str):
        table = bundled_table(spec)
        return table.group, table
    if isinstance(spec, dict) and "generators" in spec:
        group = Group.make(_perm_words(spec["generators"], "generators"))
        tab_payload = config.get("character_table")
        if tab_payload is None:
            raise ConfigError("custom groups need an explicit character_table")
        table = table_from_json(group, tab_payload)
        return group, table
    raise ConfigError("group must be a preset name or {'generators': [...]}")


def _perm_words(words, what: str) -> list:
    """words, when they are a list of cycle words or of point lists."""
    if not isinstance(words, list) or not all(
        isinstance(w, str) or isinstance(w, list) and all(map(_is_int, w)) for w in words
    ):
        raise ConfigError(f"{what} must be a list of cycle words or of point lists")
    return words


def _representation_action(config, group):
    rep = config.get("representation", "natural")
    if rep == "natural":
        return lambda g: g
    if not (isinstance(rep, dict) and "images" in rep):
        raise ConfigError("representation must be 'natural' or {'images': [...]}")
    words = _perm_words(rep["images"], "representation images")
    if len(words) != len(group.generators):
        raise ConfigError(f"expected {len(group.generators)} generator images, got {len(words)}")
    try:
        images = parse_perms(words)
    except ValueError as exc:
        raise ConfigError(f"representation images must be permutations: {exc}") from exc
    # the pairs (generator, image), as permutations of the disjoint union of
    # the two point sets, generate the graph of the map, which has |group|
    # elements exactly when the map is a homomorphism
    d = group.degree
    pairs = [g + tuple(d + x for x in image) for g, image in zip(group.generators, images)]
    try:
        graph = Group.make(pairs, cap=group.order)
    except GroupTooLargeError:
        raise ConfigError("representation images do not define a homomorphism") from None
    return {p[:d]: tuple(x - d for x in p[d:]) for p in graph.elements}.__getitem__


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value) -> float:
    """value as a float; nan for a bool or what float() refuses."""
    try:
        return nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        return nan


def _system_value(system: dict, key: str, default, integer: bool = False):
    """system[key], or default when null or absent: an int (not a bool)
    when integer, else a finite number > 0."""
    value = system.get(key)
    if value is None:
        return default
    if integer:
        if not _is_int(value):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return value
    number = _real(value)
    if not 0 < number < inf:  # nan fails both comparisons
        raise ConfigError(f"{key} must be a finite number > 0, got {value!r}")
    return number


def _parse_value(v):
    """A config number: a string ("p/q") or an integer read exactly, a
    finite float as it is."""
    if isinstance(v, float):
        if not isfinite(v):
            raise ConfigError(f"not a finite number: {v!r}")
        return v
    if isinstance(v, (str, int)) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"not a number: {v!r}")


def _parse_values(value, depth: int):
    """Config numbers in lists nested `depth` deep."""
    if depth == 0:
        return _parse_value(value)
    if not isinstance(value, list):
        raise ConfigError(f"expected a list of values, got {value!r}")
    return [_parse_values(v, depth - 1) for v in value]


def _build_linearization(config, table, decomposition, action, tol) -> LinearizationData:
    lin = config["linearization"]
    m = config["delays"]
    if not isinstance(lin, dict):
        raise ConfigError("linearization must be an object with 'matrices' or 'mu'")
    if "matrices" in lin:
        mats = _parse_values(lin["matrices"], 3)
        if len(mats) != m:
            raise ConfigError(f"expected {m} matrices, got {len(mats)}")
        return LinearizationData.from_matrices(table, decomposition, mats, tol, action)
    if "mu" in lin:
        if not isinstance(lin["mu"], dict):
            raise ConfigError("mu must map character rows to lists of values")
        mu = {}
        for key, row in lin["mu"].items():
            l = int(key) - 1
            if not 0 <= l < table.n_irreps:
                raise ConfigError(f"mu component {key} out of range")
            mu[l] = tuple(_parse_values(row, 1))
        return LinearizationData(m=m, mu=mu, tol=tol)
    raise ConfigError("linearization needs 'matrices' or 'mu'")


# ---------------------------------------------------------------------------
# analysis pipeline


@dataclass
class AnalysisResult:
    config: dict
    table: object
    ctx: GammaContext
    decomposition: object
    lin: LinearizationData
    spectral: SpectralTable
    report: DegreeReport | None
    exit_code: int
    message: str = ""

    def report_json(self) -> dict:
        """The report payload: report.json is its dump, report.txt its text."""
        spectral = self.spectral
        return {
            "engine": {"name": "eqdeg", "version": __version__},
            "group": self.config["group"] if isinstance(self.config["group"], str) else "custom",
            "delays": self.lin.m,
            "k_max": spectral.k_max,
            "components": [l + 1 for l in spectral.components],
            "multiplicities": list(self.decomposition.multiplicities),
            "mu": {
                str(l + 1): [str(v) for v in row] for l, row in sorted(self.lin.mu.items())
            },
            "spectrum": {
                "signs": spectral.sign_grid()[: min(spectral.k_max, 10) + 1],
                "negative_blocks": [
                    {"mode": k, "component": l + 1, "multiplicity": m}
                    for (k, l, m) in spectral.negative_factors()
                ],
                "degenerate": [[k, l + 1] for (k, l) in spectral.degenerate],
                "resonances": sorted(spectral.resonance_set()),
            },
            "omega": self.report.omega.to_jsonable()
            if self.report and self.report.omega is not None
            else None,
            "conclusions": [c.jsonable() for c in self.report.conclusions]
            if self.report
            else [],
            "zero_spectrum": spectral.zero_spectrum(),
            "exit_code": self.exit_code,
            "note": NAME_CAVEAT,
        }

    def report_text(self, payload: dict | None = None) -> str:
        """The report.json payload as text, with the message of a run that
        has no report; the omega line is the ring element's own rendering.
        payload is `report_json()`, built here when not given."""
        if payload is None:
            payload = self.report_json()
        signs = payload["spectrum"]["signs"]
        lines = [
            f"equivariant degree analysis ({payload['group']}, m={payload['delays']})",
            "",
            "isotypic multiplicities: " + ", ".join(
                f"V{l}:{mult}" for l, mult in enumerate(payload["multiplicities"], 1) if mult
            ),
            "",
            "block eigenvalue signs (rows k = 0..%d, columns l = %s):"
            % (len(signs) - 1, ", ".join(map(str, payload["components"]))),
            *(f"  k={k:<2d}  " + "  ".join(row) for k, row in enumerate(signs)),
            "",
        ]
        if payload["zero_spectrum"]:
            lines.append("DEGENERATE: zero block eigenvalue at " + ", ".join(
                f"(k={k}, l={l})" for (k, l) in payload["spectrum"]["degenerate"]
            ))
        # the payload of a run without a report reads like a --s run without conclusions
        if self.report is None:
            return "\n".join([*lines, self.message, ""])
        if payload["omega"] is not None:
            lines += ["omega = (G) - deg:", "  " + self.report.omega.render(), ""]
        lines.append(f"guaranteed non-constant solution classes ({len(payload['conclusions'])}):")
        for c in payload["conclusions"]:
            coeff = "parity-route" if c["coefficient"] is None else f"coeff {c['coefficient']:+d}"
            lines.append(
                f"  mode {c['mode']} block V{c['component']}: ({c['class']})  "
                f"[{coeff}, x_o={c['x_o']}, |W|={c['weyl_order']}]"
            )
        return "\n".join([*lines, "", payload["note"], ""])


# The front half of the pipeline, shared by `analyze` and `spectrum`, in two
# steps: `analyze` rejects components of complex type between them, also
# when the linearization is given as mu values, which `spectrum` accepts.


def _decompose(config):
    """Character table of a config, the isotypic decomposition of its
    representation and the representation's action on the nodes."""
    group, table = _build_group_and_table(config)
    action = _representation_action(config, group)
    chi = permutation_character(table, action)
    return table, isotypic_multiplicities(chi, table), action


def _options(config, k_max=None, s=None) -> dict:
    """The config's options, where the k_max and s given here (the --kmax
    and --s flags) take the place of the config's when set.  Given or
    configured, k_max and s must be null or integers >= 0, where 0 picks
    the default, and tol null or a tolerance."""
    options = config.get("options", {})
    if not isinstance(options, dict) or any(
        value is not None and not (_is_int(value) and value >= 0)
        for value in (k_max, s, options.get("k_max"), options.get("s"))
    ):
        raise ConfigError(
            "options must be an object whose k_max and s are integers >= 0, as are --kmax and --s"
        )
    _tolerance(options.get("tol"))
    return {**options, "k_max": k_max or options.get("k_max"), "s": s or options.get("s")}


def _tolerance(value) -> float:
    """A zero-test tolerance: a finite number >= 0, where 0 and null pick
    the default."""
    tol = _real(DEFAULT_TOL if value is None else value)
    if not 0 <= tol < inf:  # nan fails both comparisons
        raise ConfigError(f"tol must be a finite number >= 0, got {value!r}")
    return tol or DEFAULT_TOL


def _spectral_table(config, table, decomposition, action, k_max=None, tol=None):
    """Linearization data and block sign table of a config; the data carries
    the one tolerance of the scalarity and reversibility checks and the
    zero test of the blocks."""
    options = _options(config, k_max)
    tol = _tolerance(tol or options.get("tol"))
    lin = _build_linearization(config, table, decomposition, action, tol)
    k_max = options["k_max"] or default_k_max(lin)
    return lin, SpectralTable(lin, decomposition, k_max=k_max).build()


def run_analyze(config, k_max=None, s=None, tol=None) -> AnalysisResult:
    s = _options(config, k_max, s)["s"]
    table, decomposition, action = _decompose(config)
    require_real_components(table, decomposition)
    lin, spectral = _spectral_table(config, table, decomposition, action, k_max, tol)
    signed = SignedGroup(table)
    ctx = GammaContext.from_signed_group(signed)
    if spectral.zero_spectrum() and not s:
        return AnalysisResult(
            config, table, ctx, decomposition, lin, spectral, None,
            EXIT_DEGENERATE,
            "degenerate spectrum: pass --s to use the resonance-avoiding route",
        )
    if s:
        try:
            report = theorem_conclusions_resonant(ctx, spectral, int(s))
        except ValueError as exc:
            return AnalysisResult(
                config, table, ctx, decomposition, lin, spectral, None,
                EXIT_INVALID, str(exc),
            )
    else:
        report = assemble_omega(ctx, spectral)
    return AnalysisResult(
        config, table, ctx, decomposition, lin, spectral, report, EXIT_OK
    )


REPORT_SCHEMA = {
    "engine": dict,
    "group": str,
    "delays": int,
    "k_max": int,
    "components": list,
    "multiplicities": list,
    "mu": dict,
    "spectrum": dict,
    "conclusions": list,
    "zero_spectrum": bool,
    "exit_code": int,
}


def validate_report(payload: dict) -> list[str]:
    errors = []
    for key, typ in REPORT_SCHEMA.items():
        if key not in payload:
            errors.append(f"missing key {key}")
        elif not isinstance(payload[key], typ):
            errors.append(f"key {key} has type {type(payload[key]).__name__}")
    if "spectrum" in payload:
        for sub in ("signs", "negative_blocks", "degenerate"):
            if sub not in payload["spectrum"]:
                errors.append(f"missing spectrum.{sub}")
    for conc in payload.get("conclusions", []):
        for key in ("class", "fingerprint", "mode", "coefficient", "x_o"):
            if key not in conc:
                errors.append(f"conclusion missing {key}")
    return errors


# ---------------------------------------------------------------------------
# verification subcommand


def run_verify(config) -> dict:
    import numpy as np

    from .verifier import (
        FourierSolution,
        class_matches_symmetries,
        isotropy_of_trajectory,
        newton_solve,
        SystemSpec,
        apriori_check,
    )
    from .ddedeg import check_growth_condition
    from .o2gamma import maximal_orbit_types

    system = config.get("system")
    if not isinstance(system, dict) or not system:
        raise ConfigError("verification needs a 'system' block")
    if config.get("representation", "natural") != "natural":
        raise ConfigError("verification needs the natural representation")
    lin = config["linearization"]
    if not isinstance(lin, dict) or "matrices" not in lin:
        raise ConfigError("verification needs the linearization as 'matrices'")
    seed_l = _system_value(system, "seed_component", 5, integer=True) - 1
    cubic = float(_parse_value(system.get("cubic", "1/2")))
    radius = _system_value(system, "radius", 4.0)
    samples = _system_value(system, "growth_samples", 500, integer=True)
    K = _system_value(system, "fourier_modes", 32, integer=True)
    amp = _system_value(system, "seed_amplitude", 4.0)
    for key, count in (("fourier_modes", K), ("growth_samples", samples)):
        if count < 1:
            raise ConfigError(f"{key} must be a positive integer")
    result = run_analyze(config)
    if result.exit_code != EXIT_OK:
        raise ConfigError("verification requires a nondegenerate analysis")
    if not 0 <= seed_l < result.table.n_irreps:
        raise ConfigError(f"seed_component must be in 1..{result.table.n_irreps}")
    lin_mats = [
        [[float(v) for v in row] for row in mat] for mat in _parse_values(lin["matrices"], 3)
    ]
    n = result.table.group.degree
    terms = [[(cubic, ((c, 3),))] for c in range(n)]
    spec = SystemSpec(
        n=n, m=result.lin.m, period=2 * pi, linear=lin_mats, terms=terms, tol=result.lin.tol
    )
    spec.check_reversible()
    spec.check_odd()
    growth = check_growth_condition(
        lambda args: list(spec.rhs(np.asarray(args)[None, :])[0]),
        n=n,
        m=result.lin.m,
        radius=radius,
        samples=samples,
    )
    basis = _seed_vector(result.table, seed_l)
    coeffs = np.zeros((2 * K + 1, n))
    coeffs[1] = amp * basis
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
        perms = sorted({tuple(g) for g in result.table.group.elements})
        syms = isotropy_of_trajectory(sol, perms, tol=1e-6, theta_denominator=12)
        out["matched_classes"] = sorted(
            cls.name()
            for l in result.spectral.components
            for cls in maximal_orbit_types(result.ctx, 1, l)
            if class_matches_symmetries(cls, syms)
        )
        out["detected_symmetries"] = len(syms)
        out["apriori"] = apriori_check(spec, sol, radius=radius)
    return out


def _seed_vector(table, l):
    """The first nonzero column of the isotypic projector of row l, scaled
    to sup norm 1."""
    import numpy as np

    proj = np.array(_isotypic_projector(table, l), dtype=float)
    for v in proj.T:
        if v.any():
            return v / np.max(np.abs(v))
    raise ConfigError(f"component {l + 1} absent from the representation")


# ---------------------------------------------------------------------------
# CLI


def bundled_example_path() -> Path:
    return Path(__file__).parent / "data" / "d6_example.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eqdeg",
        description="Equivariant degree analysis of reversible coupled delay networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full pipeline on a JSON config")
    p_an.add_argument("config")
    p_an.add_argument("--kmax", type=int, default=None)
    p_an.add_argument("--s", type=int, default=None)
    p_an.add_argument("--tol", type=float, default=None)
    p_an.add_argument("--json-only", action="store_true")
    p_an.add_argument("--out", default=".")

    p_lat = sub.add_parser("lattice", help="subgroup classes of a preset group")
    p_lat.add_argument("group")

    p_bur = sub.add_parser("burnside", help="Burnside multiplication table")
    p_bur.add_argument("group")

    p_bd = sub.add_parser("basic-deg", help="basic degree of one block")
    p_bd.add_argument("group")
    p_bd.add_argument("k", type=int)
    p_bd.add_argument("l", type=int, help="character row, 1-based")

    p_sp = sub.add_parser("spectrum", help="block eigenvalue table only")
    p_sp.add_argument("config")
    p_sp.add_argument("--kmax", type=int, default=None)

    p_ver = sub.add_parser("verify", help="numerical corroboration run")
    p_ver.add_argument("config")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, CharacterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _dispatch(args) -> int:
    if args.command == "analyze":
        config = load_config(args.config)
        result = run_analyze(config, k_max=args.kmax, s=args.s, tol=args.tol)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = result.report_json()
        errors = validate_report(payload)
        if errors:
            raise ConfigError("report failed schema validation: " + "; ".join(errors))
        (out_dir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if not args.json_only:
            text = result.report_text(payload)
            (out_dir / "report.txt").write_text(text)
            print(text, end="")
        if result.exit_code != EXIT_OK:
            print(f"note: {result.message}", file=sys.stderr)
        return result.exit_code

    if args.command == "lattice":
        lat = subgroup_lattice(Group.from_name(args.group))
        print(f"{len(lat.classes)} subgroup conjugacy classes "
              f"({sum(c.class_size for c in lat.classes)} subgroups)")
        for i, cls in enumerate(lat.classes):
            print(
                f"  [{i:2d}] {cls.name:<8} order {cls.order:<4d} "
                f"class size {cls.class_size:<3d} |W| = {cls.weyl_order}"
            )
        return EXIT_OK

    if args.command == "burnside":
        # A(Gamma) is the O(2) x K slice of the ring over O(2) x Gamma
        ctx = GammaContext(Group.from_name(args.group), [])
        lat, names = ctx.lattice, ctx.names
        gens = [make_o2(ctx, cls.rep_set) for cls in lat.classes]
        print("generators: " + ", ".join(f"({n})" for n in names))
        for i in range(len(gens)):
            for j in range(i, len(gens)):
                prod = {lat.class_of(c.K): m for c, m in class_product(gens[i], gens[j]).items()}
                order = sorted(prod, key=lambda l: (-lat.classes[l].order, l))
                terms = format_terms((names[l], prod[l]) for l in order)
                print(f"  ({names[i]})*({names[j]}) = {terms}")
        return EXIT_OK

    if args.command == "basic-deg":
        table = bundled_table(args.group)
        if not 1 <= args.l <= table.n_irreps:
            raise ConfigError(f"l must be in 1..{table.n_irreps}")
        # the block W_k (x) V_l holds one copy of row l
        row = tuple(int(i == args.l - 1) for i in range(table.n_irreps))
        require_real_components(table, IsotypicDecomposition(row, table.dims()))
        ctx = GammaContext.from_signed_group(SignedGroup(table))
        deg = basic_degree(ctx, args.k, args.l - 1)
        print(f"deg(k={args.k}, l={args.l}) = {deg.render()}")
        return EXIT_OK

    if args.command == "spectrum":
        config = load_config(args.config)
        _, spectral = _spectral_table(config, *_decompose(config), args.kmax)
        print("block eigenvalue signs (columns l = %s):" % ", ".join(
            str(l + 1) for l in spectral.components
        ))
        for k, row in enumerate(spectral.sign_grid()):
            print(f"  k={k:<2d}  " + "  ".join(row))
        return EXIT_OK

    if args.command == "verify":
        config = load_config(args.config)
        out = run_verify(config)
        print(json.dumps(out, indent=2, sort_keys=True, default=str))
        return EXIT_OK

    raise ConfigError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
