"""``tools/bench_pairs.py --summarize`` against the recorded benchmark pairs.

The tool's summary of a ``BENCH_<n>.json`` is recomputed from the file's
runs alone, so it must give back the medians, the pairs won and the claim
verdict that the file records: the hand-run ``BENCH_23.json`` to
``BENCH_25.json``, and ``BENCH_26.json``, the tool's own output.
``BENCH_23.json`` took its quartiles by another method, so only the later
files' quartiles are compared.  No benchmark runs here.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(name):
    done = subprocess.run(
        [sys.executable, os.path.join("tools", "bench_pairs.py"), "--summarize", name],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("number", [23, 24, 25, 26])
def test_the_summary_recomputes_the_recorded_medians(number):
    name = f"BENCH_{number}.json"
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        recorded = json.load(fh)["workloads"]
    summary = summarize(name)["workloads"]
    assert list(summary) == list(recorded)
    for workload, metrics in recorded.items():
        for metric, want in metrics.items():
            got = summary[workload][metric]
            if not isinstance(want, dict):
                assert got == want, (workload, metric)
                continue
            keys = ("median", "n") if number == 23 else ("q1", "median", "q3", "n")
            for side in ("parent", "change"):
                for key in keys:
                    assert got[side][key] == pytest.approx(want[side][key], rel=1e-12)
            assert (got["change_wins"], got["pairs"]) == (want["change_wins"], want["pairs"])
            assert got["median_ratio"] == pytest.approx(want["median_ratio"], rel=1e-12)
            assert got["per_pair"] == want["per_pair"]


def test_the_recorded_claim_is_met_again():
    got = summarize("BENCH_25.json")
    assert got["claim"].startswith(
        "simulate-wide samples_per_ref improves: median 65996.8 -> 81666.4 (1.237x), "
        "change better in 10 of 10 pairs;")
    assert got["claim"].endswith("above the parent's third quartile 66497. Met.")
    assert got["notes"][0].startswith("simulate-wide (claimed): ")
