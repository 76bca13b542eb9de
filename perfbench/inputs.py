"""Seeded input generator for the benchmark workloads.

Every workload input is a stream of uniform random 7-bit samples drawn from
``random.Random(seed)``: the same seed always gives the same stream, and the
program under test only ever sees the generated CSV file or list.

``HELD_BACK_SEED`` is never used while a change is being written or tuned.
Re-run a finished claim on it (``--seed 8675309``) to check that the claim
does not depend on the seeds it was developed against.

Write one workload input by hand with::

    python3 perfbench/inputs.py --seed 1 --count 1024 --out samples.csv
"""

from __future__ import annotations

import argparse
import random

HELD_BACK_SEED = 8675309
SAMPLE_BITS = 7


def make_samples(seed: int, count: int) -> list[int]:
    """``count`` uniform samples in 0 .. 2**SAMPLE_BITS - 1 from ``seed``."""
    rng = random.Random(seed)
    top = (1 << SAMPLE_BITS) - 1
    return [rng.randint(0, top) for _ in range(count)]


def write_csv(path: str, samples: list[int]) -> None:
    """One decimal sample per row, no header: the CLI's input format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(f"{x}\n" for x in samples))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", required=True, help="CSV path to write")
    ns = parser.parse_args()
    write_csv(ns.out, make_samples(ns.seed, ns.count))


if __name__ == "__main__":
    main()
