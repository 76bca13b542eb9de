"""The benchmark's own smoke test, run as part of the unit tests.

``perfbench/smoke.py`` runs every workload at tiny sizes, checks that the
oracle gate fails a corrupted output and that a copy without ``src/``
refuses to run.  It exits 0 when every check passes.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_passes():
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
