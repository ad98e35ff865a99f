"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --cpu C [--trace] [--setup-only]

Set-up (imports, config loading, input construction) runs first; then the
timed phase runs every operation of the workload and checks its output.
The last line of standard output is one JSON object:

    ready        monotonic clock (CLOCK_MONOTONIC, shared by all processes)
                 when set-up ended, so the parent can time set-up from spawn
    start, end   monotonic clock at the start and end of the timed phase,
                 so the parent can match it with the reference loop
    wall_s       wall seconds of the timed phase
    cpu_s        process CPU seconds of the timed phase
    peak_rss_mb  peak resident memory of this process (VmHWM, which exec
                 resets, so the parent's memory is not counted)
    attempted    operations run
    failed       operations that raised, returned the wrong exit code or
                 failed their output check
    layers       per-layer metrics (with --trace only)

A failed operation is reported on standard error and counted; it does not
stop the repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
import traceback
from fractions import Fraction
from math import pi
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = json.loads((HERE / "golden.json").read_text())


def _analyze(cli, config):
    """The ``eqdeg analyze`` path: run_analyze, report_json,
    validate_report, report_text and the sorted JSON dump, which yields the
    bytes ``eqdeg analyze`` writes to report.json."""
    result = cli.run_analyze(config)
    payload = result.report_json()
    errors = cli.validate_report(payload)
    result.report_text()
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    return result.exit_code, payload, data, errors


def _check_report(golden: dict, exit_code: int, data: bytes, errors: list) -> list[str]:
    problems = [f"schema: {e}" for e in errors]
    if exit_code != golden["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {golden['exit_code']}")
    digest = hashlib.sha256(data).hexdigest()
    if digest != golden["sha256"]:
        problems.append(f"report.json sha256 {digest[:12]}, expected {golden['sha256'][:12]}")
    return problems


def _check_paper_classes(payload: dict) -> list[str]:
    """The 15 guaranteed classes of the paper's hexagon example: mode,
    component, structural fingerprint and x_o, with coefficient +-x_o."""
    expected = sorted(
        (c["mode"], c["component"], tuple(c["fingerprint"]), c["x_o"])
        for c in GOLDEN["d6-hexagon"]["paper_classes"]
    )
    got = []
    problems = []
    for c in payload["conclusions"]:
        got.append((c["mode"], c["component"], tuple(c["fingerprint"]), c["x_o"]))
        if c["coefficient"] is None or abs(c["coefficient"]) != c["x_o"]:
            problems.append(f"coefficient {c['coefficient']} is not +-x_o at {c['class']}")
    if sorted(got) != expected:
        problems.append(f"guaranteed classes differ from the paper's {len(expected)}")
    return problems


class D6Hexagon:
    """The bundled hexagon example through the analyze path.  The input is
    the paper's; the seed only sets the interpreter's hash seed."""

    def __init__(self, seed: int):
        from eqdeg import cli

        self.cli = cli
        self.config = cli.load_config(cli.bundled_example_path())
        self.golden = GOLDEN["d6-hexagon"]

    def operations(self):
        yield "d6-hexagon", self.analyze

    def analyze(self) -> list[str]:
        exit_code, payload, data, errors = _analyze(self.cli, self.config)
        return _check_report(self.golden, exit_code, data, errors) + _check_paper_classes(payload)


NEWTON_MODES = 64
FINE_GRID_FACTOR = 16
MAX_FINE_RESIDUAL = 1e-9
THETA_DENOMINATOR = 12
EXPECTED_SYMMETRIES = 16


class HexagonNewton:
    """The numerical half of ``eqdeg verify`` on the bundled config at
    K = 64.  The seed picks the element of D6 that permutes the nodes of
    the config's initial guess; the solution moves with it and keeps its
    number of symmetries."""

    def __init__(self, seed: int):
        import numpy as np

        from eqdeg import chartab, cli, ddedeg, verifier

        self.np, self.ddedeg, self.verifier = np, ddedeg, verifier
        config = cli.load_config(cli.bundled_example_path())
        system = config["system"]
        table = chartab.bundled_table(config["group"])
        group = table.group
        n, m = group.degree, config["delays"]
        linear = [
            [[float(Fraction(v)) for v in row] for row in mat]
            for mat in config["linearization"]["matrices"]
        ]
        cubic = float(Fraction(system["cubic"]))
        terms = [[(cubic, ((c, 3),))] for c in range(n)]
        self.spec = verifier.SystemSpec(n=n, m=m, period=2 * pi, linear=linear, terms=terms)
        self.spec.check_reversible()
        self.spec.check_odd()
        self.n, self.m = n, m
        self.radius = float(system["radius"])
        self.growth_samples = int(system["growth_samples"])
        self.perms = sorted({tuple(g) for g in group.elements})
        g = self.perms[random.Random(seed).randrange(len(self.perms))]
        basis = _component_vector(np, table, int(system["seed_component"]) - 1)
        moved = np.empty(n)
        moved[list(g)] = basis
        self.coeffs = np.zeros((2 * NEWTON_MODES + 1, n))
        self.coeffs[1] = float(system["seed_amplitude"]) * moved

    def operations(self):
        yield "hexagon-newton", self.verify

    def verify(self) -> list[str]:
        np, verifier, spec = self.np, self.verifier, self.spec
        self.ddedeg.check_growth_condition(
            lambda args: list(spec.rhs(np.asarray(args)[None, :])[0]),
            n=self.n,
            m=self.m,
            radius=self.radius,
            samples=self.growth_samples,
        )
        initial = verifier.FourierSolution(NEWTON_MODES, self.coeffs.copy())
        sol, report = verifier.newton_solve(spec, initial, tol=1e-12, max_iter=100)
        # converged alone is not trusted: it is judged on the mode-space norm
        fine = verifier.residual(spec, sol, grid_size=FINE_GRID_FACTOR * NEWTON_MODES + 1)
        syms = verifier.isotropy_of_trajectory(
            sol, self.perms, tol=1e-6, theta_denominator=THETA_DENOMINATOR
        )
        apriori = verifier.apriori_check(spec, sol, radius=self.radius)
        problems = []
        if not report.converged:
            problems.append(f"Newton did not converge: {report.message}")
        if not fine <= MAX_FINE_RESIDUAL:
            problems.append(f"fine-grid sup residual {fine:.3e} > {MAX_FINE_RESIDUAL:g}")
        if sol.is_constant():
            problems.append("Newton returned a constant solution")
        if len(syms) != EXPECTED_SYMMETRIES:
            problems.append(f"{len(syms)} symmetries detected, expected {EXPECTED_SYMMETRIES}")
        if not apriori["within"]:
            problems.append("solution exceeds the a-priori bound")
        return problems


def _component_vector(np, table, l: int):
    """A column of the isotypic projector onto component l, scaled to unit
    sup norm: the config's initial guess."""
    group = table.group
    n = group.degree
    dim = table.dims()[l]
    proj = np.zeros((n, n))
    for g in group.elements:
        chi = float(table.rows[l][table.class_of(g)].as_fraction())
        for col in range(n):
            proj[g[col], col] += dim / group.order * chi
    for col in range(n):
        v = proj[:, col]
        if np.linalg.norm(v) > 1e-9:
            return v / np.max(np.abs(v))
    raise ValueError(f"component {l + 1} is absent from the representation")


def peak_rss_mb() -> float:
    """Peak resident memory of this process since exec.  getrusage's
    ru_maxrss is not used: it keeps the high-water mark of the forked
    parent's address space."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


WORKLOADS = {
    "d6-hexagon": D6Hexagon,
    "hexagon-newton": HexagonNewton,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, required=True, help="processor to pin this process to")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "attempted": 0, "failed": 0}))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    attempted = failed = 0
    start, cpu0 = time.monotonic(), time.process_time()
    for label, op in workload.operations():
        attempted += 1
        try:
            problems = op()
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
        if problems:
            failed += 1
            for problem in problems:
                print(f"{args.workload} {label}: {problem}", file=sys.stderr)
    end, cpu = time.monotonic(), time.process_time() - cpu0

    out = {
        "ready": ready,
        "start": start,
        "end": end,
        "wall_s": end - start,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
