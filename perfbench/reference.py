"""A fixed reference loop that measures the host's speed while a workload
runs on another processor.

    python3 perfbench/reference.py --kind python|numpy --cpu C

It pins itself to processor C, prints ``ready`` once its first unit has run,
and then repeats one unit of work until it receives SIGTERM.  It then prints
one JSON list: the CLOCK_MONOTONIC time at which each unit ended.  The loop
is benchmark code and imports nothing from eqdeg, so a change to eqdeg
moves it only through the load it puts on the shared caches and memory;
what moves it is the host's speed.

``python`` units do the kind of work the exact layers do (fractions in a
large tuple-keyed table); ``numpy`` units do the contraction the Newton
Jacobian assembly does, on smaller operands.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time


def python_unit():
    import random
    from fractions import Fraction

    # A table about the size of a D6 analysis's heap, read and rewritten in
    # a scattered order: the loop has to share the caches and memory the
    # way eqdeg's exact layers do, or it misses the slowdowns they see.
    table = {(i, i % 7, i % 13): Fraction(i % 97 + 1, i % 89 + 2) for i in range(100_000)}
    keys = list(table)
    random.Random(0).shuffle(keys)
    batches = [keys[i:i + 2000] for i in range(0, len(keys), 2000)]
    position = [0]

    def unit():
        acc = Fraction(0)
        for key in batches[position[0]]:
            acc += table[key]
            table[key] = table[key] * 2 / 2
        position[0] = (position[0] + 1) % len(batches)

    return unit


def numpy_unit():
    import numpy as np

    rng = np.random.default_rng(0)
    p = rng.standard_normal((65, 130))
    df = rng.standard_normal((130, 6, 6))
    b = rng.standard_normal((130, 65))

    def unit():
        np.einsum("mi,icd,iv->mcvd", p, df, b)

    return unit


UNITS = {"python": python_unit, "numpy": numpy_unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=sorted(UNITS))
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    unit = UNITS[args.kind]()
    ends: list[float] = []

    def stop(*_):
        print(json.dumps(ends), flush=True)
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    unit()
    print("ready", flush=True)
    while True:
        unit()
        ends.append(time.monotonic())


if __name__ == "__main__":
    sys.exit(main())
