"""Time ``GammaWindowFilter.run`` of two checkouts over a grid of configs.

Usage::

    python3 tools/kernel_grid.py BASE_CHECKOUT NEW_CHECKOUT [--samples N] [--rounds R]

Both checkouts' ``src/gdswu`` are copied under a temporary directory as
two packages, ``gdswu_base`` and ``gdswu_new``, and imported into this one
process, so each timing of one side is paired with a timing of the other
taken moments apart.  For every config of the grid (sample bits 1, 7, 8,
12, 16, 20 and 64; taps 4, 16, 64 and 256; both modes; a=2, b=5, 7 weight
bits) both filters must give the same outputs on a fixed pseudo-random
stream of N samples; then each round takes the timeit minimum of one
filter's ``run`` over that stream on each side, alternating which side
goes first.  The table gives each side's median over rounds, the ratio
new/base and the rounds the new checkout won.  Standard library only; it
is not part of the test suite.
"""

from __future__ import annotations

import argparse
import importlib
import os
import random
import shutil
import statistics
import sys
import tempfile
import timeit

SAMPLE_BITS = (1, 7, 8, 12, 16, 20, 64)
TAPS = (4, 16, 64, 256)
MODES = ("normalized-average", "raw-accumulate")


def best(run, number: int) -> float:
    return min(timeit.repeat(run, repeat=3, number=number)) / number


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout whose src/gdswu is the baseline")
    parser.add_argument("new", help="checkout whose src/gdswu is compared with it")
    parser.add_argument("--samples", type=int, default=8192)
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    tmp = tempfile.mkdtemp()
    try:
        sides = {}
        for side in ("base", "new"):
            shutil.copytree(os.path.join(getattr(args, side), "src", "gdswu"),
                            os.path.join(tmp, f"gdswu_{side}"))
        sys.path.insert(0, tmp)
        for side in ("base", "new"):
            sides[side] = importlib.import_module(f"gdswu_{side}.core")
    finally:
        shutil.rmtree(tmp)

    print(f"# {args.samples} samples, {args.rounds} rounds; timeit minimums in ms")
    print(f"{'bits':>4} {'taps':>4} {'mode':<18} {'base':>9} {'new':>9} {'new/base':>8} {'wins':>5}")
    for bits in SAMPLE_BITS:
        for taps in TAPS:
            for mode in MODES:
                rng = random.Random(bits * 1000 + taps)
                stream = [rng.getrandbits(bits) for _ in range(args.samples)]
                runs, outputs = {}, {}
                for side, core in sides.items():
                    filt = core.GammaWindowFilter(core.make_config(
                        a=2, b=5.0, taps=taps, mode=mode, sample_int_bits=bits))
                    outputs[side] = filt.run(stream)
                    runs[side] = lambda filt=filt: filt.run(stream)
                if outputs["base"] != outputs["new"]:
                    print(f"{bits}/{taps}/{mode}: outputs differ between the checkouts",
                          file=sys.stderr)
                    return 1
                number = max(1, timeit.Timer(runs["base"]).autorange()[0] // 10)
                times = {"base": [], "new": []}
                for r in range(args.rounds):
                    for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
                        times[side].append(best(runs[side], number))
                b = statistics.median(times["base"])
                n = statistics.median(times["new"])
                wins = sum(x < y for x, y in zip(times["new"], times["base"]))
                print(f"{bits:>4} {taps:>4} {mode:<18} {b * 1e3:>9.3f} {n * 1e3:>9.3f} "
                      f"{n / b:>8.3f} {wins:>2}/{args.rounds}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
