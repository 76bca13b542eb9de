"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

It is not named ``test_*.py``, so the unit-test run never collects it.  It

- runs every workload in both modes on a few hundred samples and checks
  that each run is correct and reports exactly the metrics BENCHMARK.json
  declares;
- corrupts one output of a wrapped call in each workload and checks that
  the oracle gate marks the run failed;
- checks that a copy holding only BENCHMARK.json and perfbench/ exits
  non-zero without printing a result.

It exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from unittest import mock

import run
import workloads
from workloads import gdswu

SIZES = {"run-stream": 256, "simulate-wide": 96, "fault-sweep": 256}


def quiet_run(name: str, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(name, seed=3, seconds=0.2, trace=trace, size=SIZES[name], setup_repeats=1)


def check_clean_runs() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for name in workloads.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = quiet_run(name, trace)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert set(result["metrics"]) == {m["name"] for m in declared[group]}, (name, trace)
            json.dumps(result, allow_nan=False)
            print(f"ok   {name} trace={int(trace)}: {result['attempted']} runs correct")


def _corrupt_first_call(owner, attr, corrupt):
    """Patch ``owner.attr`` so that only its first call's result is corrupted."""
    original = getattr(owner, attr)
    calls = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(None)
        return corrupt(result) if len(calls) == 1 else result

    return mock.patch.object(owner, attr, wrapper)


def _bump_last(outputs: list[int]) -> list[int]:
    return outputs[:-1] + [outputs[-1] + 1]


def _bump_report(result):
    outputs, reports = result
    next(r for r in reversed(reports) if r.emitted_output is not None).emitted_output += 1
    return result


def check_gate_catches_errors() -> None:
    corruptions = {
        "run-stream": (gdswu.core.GammaWindowFilter, "run", _bump_last),
        "simulate-wide": (gdswu.cli, "run_pipeline", _bump_report),
        # The last output lies past every fault window, so one wrong value
        # there moves that spec's recovery index.
        "fault-sweep": (gdswu.core.GammaWindowFilter, "run", _bump_last),
    }
    for name, (owner, attr, corrupt) in corruptions.items():
        with _corrupt_first_call(owner, attr, corrupt):
            result = quiet_run(name, trace=False)
        assert not result["correct"] and result["failed"] == 1, (name, result)
        print(f"ok   {name}: one corrupted output marks 1 of {result['attempted']} runs failed")


def check_refuses_without_package() -> None:
    bare = tempfile.mkdtemp(prefix=".perfbench_tmp_bare_", dir=run.ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "run-stream", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and '"correct"' not in done.stdout, done
    print(f"ok   without src/ the benchmark exits {done.returncode}: {done.stderr.strip()}")


if __name__ == "__main__":
    check_clean_runs()
    check_gate_catches_errors()
    check_refuses_without_package()
    print("smoke test passed")
