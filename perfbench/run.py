"""eqdeg benchmark: two workloads through eqdeg's public functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; eqdeg is imported from ``src/``.
Every repetition runs in a fresh interpreter (``perfbench/worker.py``) on
one processor, while a fixed reference loop (``perfbench/reference.py``)
runs on a second one and measures how fast the host is at that time.

--trace 0 measures the end-to-end metrics: set-up-only workers, then
repetitions one after the other while another one still fits in S seconds
(always at least one).  Each timing is the median over them.  A
repetition's wall time is scaled by the reference loop's speed during it.
--trace 1 runs an untraced and a traced repetition and reports the
per-layer metrics of the traced one.  Metric names and units are those
BENCHMARK.json declares.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
The first line holds the provenance: Python and numpy versions, BLAS, its
thread count, the number of usable processors and the two processors used.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.py"
WORKLOADS = ("d6-hexagon", "hexagon-newton")
# operations per repetition, counted as failed when a worker dies
OPERATIONS = {"d6-hexagon": 1, "hexagon-newton": 1}
# The host's speed drifts by up to about a fifth over minutes.  A reference
# loop on the second processor runs during every repetition; its units per
# second, over the repetition's timed phase, divided by its median rate on
# the host in README.md, is the factor that scales the wall time.  Each
# workload gets the loop whose slowdowns track its own best.
REFERENCE_KIND = {"d6-hexagon": "python", "hexagon-newton": "numpy"}
NOMINAL_RATE = {"d6-hexagon": 47.0, "hexagon-newton": 11.0}
# longer than a few reference units
REFERENCE_TAIL_S = 0.5
SETUP_PROBES = 10
# a run must end within 180 s; leave room for the last worker's exit
RUN_LIMIT_S = 170.0
# one BLAS thread: the host is shared and at most nproc threads may be used
BLAS_THREADS = 1


class WorkerFailed(RuntimeError):
    pass


def worker_env(seed: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # the reports must not depend on the hash seed, so it varies with the seed
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def processors() -> tuple[int, int]:
    """The processor for the workers and the one for the reference loop."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        raise SystemExit("error: the benchmark needs two usable processors")
    return cpus[0], cpus[1]


def spawn(workload: str, seed: int, env: dict, deadline: float, *flags: str) -> dict:
    """Run one worker to completion; return its result line plus its
    set-up time (spawn to end of set-up) and total duration."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {' '.join(flags)}") from exc
    duration = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise WorkerFailed("worker printed no result line") from exc
    out["setup_s"] = out["ready"] - t0
    out["duration_s"] = duration
    return out


class Tally:
    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, seed, env, deadline, *flags) -> dict | None:
        try:
            rep = spawn(self.workload, seed, env, deadline, *flags)
        except WorkerFailed as exc:
            print(f"{self.workload}: {exc}", file=sys.stderr)
            self.attempted += OPERATIONS[self.workload]
            self.failed += OPERATIONS[self.workload]
            return None
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        return rep


class Reference:
    """The reference loop on its own processor for the length of a run.
    After the ``with`` block, ``scale(rep)`` gives a repetition's wall time
    scaled to the nominal speed."""

    def __init__(self, workload: str, cpu: int, env: dict):
        self.workload = workload
        self.cmd = [sys.executable, str(REFERENCE), "--kind", REFERENCE_KIND[workload],
                    "--cpu", str(cpu)]
        self.env = env
        self.ends: list[float] = []

    def __enter__(self):
        self.proc = subprocess.Popen(self.cmd, cwd=ROOT, env=self.env,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("the reference loop did not start")
        return self

    def __exit__(self, exc_type, *_):
        # let the loop finish a unit after the last repetition ends
        time.sleep(REFERENCE_TAIL_S)
        out = self._stop()
        if exc_type is None:
            if self.proc.returncode != 0:
                raise RuntimeError(f"the reference loop exited with code {self.proc.returncode}")
            self.ends = json.loads(out)

    def _stop(self) -> str:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out

    def units_done(self, t: float) -> float:
        """Units the loop had done at time t, interpolated within a unit."""
        ends = self.ends
        k = bisect.bisect_right(ends, t)
        if k == 0 or k == len(ends):
            raise RuntimeError("a repetition ran outside the reference loop's span")
        return k + (t - ends[k - 1]) / (ends[k] - ends[k - 1])

    def rate(self, rep: dict) -> float:
        """Reference units per second during the repetition's timed phase."""
        return (self.units_done(rep["end"]) - self.units_done(rep["start"])) / rep["wall_s"]

    def scale(self, rep: dict) -> float:
        return rep["wall_s"] * self.rate(rep) / NOMINAL_RATE[self.workload]


def timed_run(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    env = worker_env(seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    tally = Tally(workload)
    cpu, ref_cpu = processors()
    pin = ("--cpu", str(cpu))
    setups, reps = [], []
    with Reference(workload, ref_cpu, env) as ref:
        for _ in range(SETUP_PROBES):
            probe = tally.run(seed, env, deadline, "--setup-only", *pin)
            if probe is not None:
                setups.append(probe["setup_s"])
        measure_start = time.monotonic()
        while True:
            rep = tally.run(seed, env, deadline, *pin)
            if rep is None:
                break
            reps.append(rep)
            setups.append(rep["setup_s"])
            now = time.monotonic()
            longest = max(r["duration_s"] for r in reps)
            if now - measure_start + longest > seconds or now + longest > deadline:
                break
    if not reps:
        return tally, {}
    print(json.dumps({
        "wall_s": [r["wall_s"] for r in reps],
        "reference_rate": [ref.rate(r) for r in reps],
    }))
    return tally, {
        "scaled_wall_s": statistics.median(ref.scale(r) for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def traced_run(workload: str, seed: int) -> tuple[Tally, dict]:
    """An untraced and a traced repetition; the overhead is the difference
    of their scaled wall times."""
    env = worker_env(seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    tally = Tally(workload)
    cpu, ref_cpu = processors()
    with Reference(workload, ref_cpu, env) as ref:
        plain = tally.run(seed, env, deadline, "--cpu", str(cpu))
        traced = tally.run(seed, env, deadline, "--cpu", str(cpu), "--trace")
    if traced is None or plain is None:
        return tally, {}
    layers = dict(traced["layers"])
    layers["process.cpu_s"] = traced["cpu_s"]
    layers["trace.overhead_s"] = ref.scale(traced) - ref.scale(plain)
    return tally, layers


def declared_units(trace: int) -> dict:
    """Name -> unit of every metric BENCHMARK.json declares for this mode."""
    manifest = json.loads(MANIFEST.read_text())
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def provenance() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "processors": processors(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eqdeg" / "__init__.py").is_file():
        print(f"error: no eqdeg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("EQDEG_CACHE_DIR"):
        print("error: EQDEG_CACHE_DIR is set; the disk candidate cache would "
              "skip enumeration", file=sys.stderr)
        return 2

    print(json.dumps({"provenance": provenance()}))
    if args.trace:
        tally, metrics = traced_run(args.workload, args.seed)
    else:
        tally, metrics = timed_run(args.workload, args.seed, args.seconds)
    if not metrics:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: measured metrics differ from {MANIFEST.name}: "
              f"undeclared {sorted(set(metrics) - set(units))}, "
              f"missing {sorted(set(units) - set(metrics))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
