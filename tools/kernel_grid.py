"""Time ``GammaWindowFilter.run`` and ``gdswu run`` of two checkouts.

Usage::

    python3 tools/kernel_grid.py BASE_CHECKOUT NEW_CHECKOUT [--samples N] [--rounds R]

Both checkouts' ``src/gdswu`` are copied under a temporary directory as
two packages, ``gdswu_base`` and ``gdswu_new``, and imported into this one
process, so each timing of one side is paired with a timing of the other
taken moments apart.  For every config of the grid (sample bits 1, 7, 8,
9, 12, 16, 20 and 64; taps 4, 16, 64 and 256; both modes; a=2, b=5, 7
weight bits) both filters must give the same outputs on a fixed
pseudo-random stream of N samples; then each round takes the timeit
minimum of one filter's ``run`` over that stream on each side,
alternating which side goes first.  Two more tables do the same for whole
commands through each side's ``cli.main`` on a CSV of 65,536 samples at
every sample width (default flags otherwise): ``gdswu run``, and ``gdswu
simulate`` for the tree and the chain.  Each command writes its CSV, and
``simulate`` its footer, to files, and the two sides' files must be
byte-identical.  Each table gives each side's median over rounds, the
median over rounds of the ratio new/base, each round's pair timed
moments apart, and the rounds the new checkout won.  Standard library
only; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import importlib
import os
import pathlib
import random
import shutil
import statistics
import sys
import tempfile
import timeit

SAMPLE_BITS = (1, 7, 8, 9, 12, 16, 20, 64)
CLI_ROWS = 65536
TAPS = (4, 16, 64, 256)
MODES = ("normalized-average", "raw-accumulate")
# each whole command timed: the extra flags of each of its table rows, and
# the flags that name the files it writes
COMMANDS = {
    "run": ([()], ("-o",)),
    "simulate": ([("--architecture", "tree"), ("--architecture", "chain")], ("-o", "--summary")),
}


def best(run, number: int) -> float:
    return min(timeit.repeat(run, repeat=3, number=number)) / number


def paired(runs: dict, rounds: int) -> str:
    """Each side's median over ``rounds`` of timeit minimums, in ms, the
    median of the rounds' new/base ratios and the rounds the new side won,
    the first side alternating.  A round times its two sides moments
    apart, so its ratio shares the host's load of that moment, which a
    ratio of the two medians would not."""
    number = max(1, timeit.Timer(runs["base"]).autorange()[0] // 10)
    times = {"base": [], "new": []}
    for r in range(rounds):
        for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
            times[side].append(best(runs[side], number))
    ratios = [n / b for n, b in zip(times["new"], times["base"])]
    b = statistics.median(times["base"])
    n = statistics.median(times["new"])
    wins = sum(ratio < 1 for ratio in ratios)
    return f"{b * 1e3:>9.3f} {n * 1e3:>9.3f} {statistics.median(ratios):>8.3f} {wins:>2}/{rounds}"


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
        sides, clis = {}, {}
        for side in ("base", "new"):
            shutil.copytree(os.path.join(getattr(args, side), "src", "gdswu"),
                            os.path.join(tmp, f"gdswu_{side}"))
        sys.path.insert(0, tmp)
        for side in ("base", "new"):
            sides[side] = importlib.import_module(f"gdswu_{side}.core")
            clis[side] = importlib.import_module(f"gdswu_{side}.cli")
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
                print(f"{bits:>4} {taps:>4} {mode:<18} {paired(runs, args.rounds)}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        inputs = {}
        for bits in SAMPLE_BITS:
            rng = random.Random(bits)
            inputs[bits] = os.path.join(tmp, f"in{bits}.csv")
            with open(inputs[bits], "w", encoding="utf-8") as fh:
                fh.writelines(f"{rng.getrandbits(bits)}\n" for _ in range(CLI_ROWS))
        for command, (variants, writes) in COMMANDS.items():
            print(f"# gdswu {command}, {CLI_ROWS} rows, {args.rounds} rounds; timeit minimums in ms")
            print(f"{'bits':>4} {'flags':<22} {'base':>9} {'new':>9} {'new/base':>8} {'wins':>5}")
            for bits in SAMPLE_BITS:
                for flags in variants:
                    name = f"{bits}-bit {command} {' '.join(flags)}"
                    runs, files = {}, {}
                    for side, cli in clis.items():
                        outs = [os.path.join(tmp, f"{side}{k}") for k in range(len(writes))]
                        argv = [command, inputs[bits], "--sample-int-bits", str(bits), *flags]
                        for flag, out in zip(writes, outs):
                            argv += [flag, out]
                        runs[side] = lambda main=cli.main, argv=argv: main(argv)
                        if runs[side]() != 0:
                            print(f"{name}: {side} checkout failed", file=sys.stderr)
                            return 1
                        files[side] = [pathlib.Path(out).read_bytes() for out in outs]
                    if files["base"] != files["new"]:
                        print(f"{name}: the outputs differ between the checkouts", file=sys.stderr)
                        return 1
                    print(f"{bits:>4} {' '.join(flags):<22} {paired(runs, args.rounds)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
