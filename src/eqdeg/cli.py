"""Command-line entry point and pipeline orchestration.

Pipeline: character data -> spectral table -> orbit-type enumeration ->
basic degrees -> Burnside product -> existence report.  Reports are
byte-stable across runs: every collection is canonically ordered and no
timestamps are emitted.

Exit codes: 0 success; 2 degenerate spectrum (a zero block eigenvalue,
rerun with --s); 3 invalid input: a malformed command line, an unreadable
config or --out path, or an invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .basicdeg import basic_degree, format_terms
from .chartab import IsotypicDecomposition, SignedGroup, bundled_table
from .config import Config, ConfigError, load_config, read_config, read_verify
from .ddedeg import (
    DegreeReport,
    SpectralTable,
    assemble_omega,
    require_real_components,
    theorem_conclusions_resonant,
)
from .o2gamma import GammaContext, class_product, make_o2
from .permgroup import Group, subgroup_lattice

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_INVALID = 3

NAME_CAVEAT = (
    "naming: decorated subgroup labels are bindings of this engine; "
    "structural fingerprints (H, |Z|, |L|, |R|, |K|, Weyl order) are authoritative"
)


# ---------------------------------------------------------------------------
# analysis pipeline


@dataclass
class AnalysisResult:
    config: Config
    ctx: GammaContext
    spectral: SpectralTable
    report: DegreeReport | None
    exit_code: int
    message: str = ""

    def report_json(self) -> dict:
        """The report payload: report.json is its dump, report.txt its text."""
        config, spectral = self.config, self.spectral
        return {
            "engine": {"name": "eqdeg", "version": __version__},
            "group": config.group,
            "delays": config.lin.m,
            "k_max": spectral.k_max,
            "components": [l + 1 for l in spectral.components],
            "multiplicities": list(config.decomposition.multiplicities),
            "mu": {
                str(l + 1): [str(v) for v in row] for l, row in sorted(config.lin.mu.items())
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


def spectral_table(config: Config) -> SpectralTable:
    """The block sign table of a config, for `analyze` and `spectrum`."""
    return SpectralTable(config.lin, config.decomposition, k_max=config.k_max).build()


def analyze(config: Config) -> AnalysisResult:
    spectral = spectral_table(config)
    ctx = GammaContext.from_signed_group(SignedGroup(config.table))
    if spectral.zero_spectrum() and not config.s:
        return AnalysisResult(
            config, ctx, spectral, None, EXIT_DEGENERATE,
            "degenerate spectrum: pass --s to use the resonance-avoiding route",
        )
    if config.s:
        try:
            report = theorem_conclusions_resonant(ctx, spectral, config.s)
        except ValueError as exc:
            return AnalysisResult(config, ctx, spectral, None, EXIT_INVALID, str(exc))
    else:
        report = assemble_omega(ctx, spectral)
    return AnalysisResult(config, ctx, spectral, report, EXIT_OK)


def run_analyze(data: dict, k_max=None, s=None, tol=None) -> AnalysisResult:
    """`analyze` on a config as `load_config` returns it."""
    return analyze(read_config(data, k_max, s, tol))


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

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error is 2, a degenerate spectrum here
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _dispatch(args) -> int:
    if args.command == "analyze":
        result = run_analyze(load_config(args.config), k_max=args.kmax, s=args.s, tol=args.tol)
        payload = result.report_json()
        errors = validate_report(payload)
        if errors:
            raise ConfigError("report failed schema validation: " + "; ".join(errors))
        text = None if args.json_only else result.report_text(payload)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            if text is not None:
                (out_dir / "report.txt").write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write to --out {out_dir}: {exc}") from exc
        if text is not None:
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
        spectral = spectral_table(read_config(load_config(args.config), k_max=args.kmax))
        print("block eigenvalue signs (columns l = %s):" % ", ".join(
            str(l + 1) for l in spectral.components
        ))
        for k, row in enumerate(spectral.sign_grid()):
            print(f"  k={k:<2d}  " + "  ".join(row))
        return EXIT_OK

    if args.command == "verify":
        from .verifier import run_verify  # numpy, which the other commands do not load

        config, system = read_verify(load_config(args.config))
        result = analyze(config)
        if result.exit_code != EXIT_OK:
            raise ConfigError("verification requires a nondegenerate analysis")
        print(json.dumps(run_verify(result, system), indent=2, sort_keys=True, default=str))
        return EXIT_OK

    raise ConfigError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
