"""Time the filter kernel, the pipeline models and commands of two checkouts.

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
alternating which side goes first.  A second table does the same for
``run_pipeline`` on a fresh pipeline of each architecture at 16 and 64
taps (7-bit samples, default flags otherwise), over N ticks of three
streams: half of them idle, gapless but for one idle tick at seven eighths
of the stream, and gapless; both sides must give the same outputs, trace
columns and stage pattern on every tick.  Two more tables do the same for
whole commands through each side's ``cli.main`` on a CSV of 65,536 samples at
every sample width (default flags otherwise): ``gdswu run``, and ``gdswu
simulate`` for the tree and the chain.  Each command writes its CSV, and
``simulate`` its footer, to files, and the two sides' files must be
byte-identical.  A last table does the same for ``faults.sweep`` over
4,096 7-bit samples at 64 taps (a=4, b=8), in both modes: the 12 specs
of the benchmark's ``fault-sweep`` workload, and 1,000 one-sample spikes
at pseudo-random starts and levels; both sides' reports must be equal.
Each table gives each side's median over rounds, the median over rounds
of the ratio new/base, each round's pair timed moments apart, and the
rounds the new checkout won.  Its last row, the control, times one of its rows with the base
checkout on both sides: a round's minimum of three repeats still carries
the host's load of that moment, and the control's ratio and wins show
how far that noise alone moves a row that a change leaves alone.
Standard library only; it is not part of the test suite.
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
SWEEP_SAMPLES = 4096
# the kernel row timed base against base as well
CONTROL_KERNEL = (7, 64, "raw-accumulate")
TAPS = (4, 16, 64, 256)
PIPELINE_TAPS = (16, 64)
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


def control(runs: dict, rounds: int) -> str:
    """``paired`` of the base side against itself: the host's noise floor
    for the rows of its table, whose ratios a change that leaves them
    alone still moves by about this much."""
    return paired({"base": runs["base"], "new": runs["base"]}, rounds)


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
        sides, clis, pipelines, faults = {}, {}, {}, {}
        for side in ("base", "new"):
            shutil.copytree(os.path.join(getattr(args, side), "src", "gdswu"),
                            os.path.join(tmp, f"gdswu_{side}"))
        sys.path.insert(0, tmp)
        for side in ("base", "new"):
            sides[side] = importlib.import_module(f"gdswu_{side}.core")
            clis[side] = importlib.import_module(f"gdswu_{side}.cli")
            pipelines[side] = importlib.import_module(f"gdswu_{side}.systolic")
            faults[side] = importlib.import_module(f"gdswu_{side}.faults")
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
                    runs[side] = lambda filt=filt, stream=stream: filt.run(stream)
                if outputs["base"] != outputs["new"]:
                    print(f"{bits}/{taps}/{mode}: outputs differ between the checkouts",
                          file=sys.stderr)
                    return 1
                if (bits, taps, mode) == CONTROL_KERNEL:
                    floor = runs
                print(f"{bits:>4} {taps:>4} {mode:<18} {paired(runs, args.rounds)}", flush=True)
    bits, taps, mode = CONTROL_KERNEL
    print(f"{'control, base/base':<28} {control(floor, args.rounds)}  ({bits}/{taps}/{mode})",
          flush=True)

    rng = random.Random(2)
    gapless = [rng.getrandbits(7) for _ in range(args.samples)]
    late = list(gapless)
    late[args.samples * 7 // 8] = None
    streams = {
        "half-idle": [x if rng.getrandbits(1) else None for x in gapless],
        "late gap": late,
        "gapless": gapless,
    }
    print(f"# run_pipeline, {args.samples} ticks, {args.rounds} rounds; timeit minimums in ms")
    print(f"{'taps':>4} {'arch':<5} {'stream':<9} {'base':>9} {'new':>9} {'new/base':>8} {'wins':>5}")
    for taps in PIPELINE_TAPS:
        for architecture in ("tree", "chain"):
            for name, stream in streams.items():
                runs, traces = {}, {}
                for side, systolic in pipelines.items():
                    config = sides[side].make_config(a=2, b=5.0, taps=taps)

                    def run(systolic=systolic, config=config):
                        return systolic.run_pipeline(
                            systolic.build_pipeline(config, architecture), stream)

                    outputs, trace = run()
                    # a tick's stage pattern, whatever the runs' split
                    bits = [b for b, length in trace.runs for _ in range(length)]
                    traces[side] = (outputs, trace.first_cycle, trace.inputs, trace.outputs, bits)
                    runs[side] = run
                if traces["base"] != traces["new"]:
                    print(f"{taps}/{architecture}/{name}: the traces differ between the checkouts",
                          file=sys.stderr)
                    return 1
                print(f"{taps:>4} {architecture:<5} {name:<9} {paired(runs, args.rounds)}",
                      flush=True)
    print(f"{'control, base/base':<20} {control(runs, args.rounds)}  "
          f"({taps}/{architecture}/{name})", flush=True)

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
                    if bits == 7:
                        floor, floor_name = runs, name
                    print(f"{bits:>4} {' '.join(flags):<22} {paired(runs, args.rounds)}", flush=True)
            print(f"{'control, base/base':<27} {control(floor, args.rounds)}  ({floor_name})",
                  flush=True)

    rng = random.Random(SWEEP_SAMPLES)
    stream = [rng.getrandbits(7) for _ in range(SWEEP_SAMPLES)]
    grids = {
        # the benchmark's fault-sweep workload: 12 specs at a quarter and
        # three quarters of the stream
        "fault-sweep": [(kind, start, duration, 127) for kind in ("spike", "stuck", "dropout")
                        for start in (SWEEP_SAMPLES // 4, 3 * SWEEP_SAMPLES // 4)
                        for duration in (1, 16)],
        "1000 spikes": [("spike", rng.randrange(SWEEP_SAMPLES), 1, rng.getrandbits(7))
                        for _ in range(1000)],
    }
    print(f"# faults.sweep, {SWEEP_SAMPLES} samples, 64 taps, a=4, b=8, "
          f"{args.rounds} rounds; timeit minimums in ms")
    print(f"{'mode':<18} {'grid':<11} {'base':>9} {'new':>9} {'new/base':>8} {'wins':>5}")
    for mode in MODES:
        for name, grid in grids.items():
            runs, reports = {}, {}
            for side, module in faults.items():
                config = sides[side].make_config(a=4, b=8.0, taps=64, mode=mode)
                specs = [module.FaultSpec(*spec) for spec in grid]
                runs[side] = lambda sweep=module.sweep, specs=specs, config=config: sweep(
                    specs, config, [stream])
                reports[side] = runs[side]()
            if reports["base"] != reports["new"]:
                print(f"{mode}/{name}: the reports differ between the checkouts", file=sys.stderr)
                return 1
            print(f"{mode:<18} {name:<11} {paired(runs, args.rounds)}", flush=True)
    print(f"{'control, base/base':<30} {control(runs, args.rounds)}  ({mode}/{name})",
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
