"""Peak resident memory of one workload iteration, in a fresh process.

    python3 perfbench/rss_child.py WORKLOAD SEED SIZE WORKDIR

WORKDIR must already hold the workload's input files.  The iteration runs
ungated, exactly as a user's single command would; the last line printed
is ``ru_maxrss`` of this process in MB.
"""

import resource
import sys

import workloads


def main() -> None:
    name, seed, size, workdir = sys.argv[1:]
    workload = workloads.WORKLOADS[name](int(seed), int(size), workdir)
    try:
        workload.iterate(gate=False)
    finally:
        workload.close()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


if __name__ == "__main__":
    main()
