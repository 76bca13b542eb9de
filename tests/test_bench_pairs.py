"""``tools/bench_pairs.py --summarize`` against the recorded benchmark pairs.

The tool's summary of a ``BENCH_<n>.json`` is recomputed from the file's
runs alone, so it must give back the medians, the pairs won and the claim
verdict that the file records: the hand-run ``BENCH_23.json`` to
``BENCH_25.json``, and ``BENCH_26.json`` and ``BENCH_27.json``, the
tool's own output.  The paired figures, which the tool added after
``BENCH_26.json``, are checked against that file's pairs.
``BENCH_23.json`` took its quartiles by another method, so only the later
files' quartiles are compared.  No benchmark runs here.
"""

import json
import math
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


@pytest.mark.parametrize("number", [23, 24, 25, 26, 27])
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


def test_the_paired_figures_of_each_metric():
    # the median of the per-pair ratios and the exact two-sided sign test,
    # recomputed from BENCH_26.json's pairs; ties count for neither side
    summary = summarize("BENCH_26.json")
    for workload, metrics in summary["workloads"].items():
        for metric, got in metrics.items():
            if not isinstance(got, dict):
                continue
            rows = got["per_pair"]
            ratios = sorted(row["change"] / row["parent"] for row in rows)
            assert got["paired_ratio"] == pytest.approx((ratios[4] + ratios[5]) / 2, rel=1e-12)
            won, tied = got["change_wins"], sum(row["change"] == row["parent"] for row in rows)
            n, low = len(rows) - tied, min(won, len(rows) - tied - won)
            p = min(1.0, 2 * sum(math.comb(n, k) for k in range(low + 1)) / 2**n)
            assert got["sign_test_p"] == pytest.approx(p, rel=1e-12), (workload, metric)
    fault = summary["workloads"]["fault-sweep"]
    assert fault["samples_per_ref"]["sign_test_p"] == 2 / 2**10  # all 10 pairs won
    assert summary["workloads"]["run-stream"]["setup_s"]["sign_test_p"] == 772 / 2**10  # 4 of 10
    assert "(ratio 1.0353, paired ratio 1.0346, change better in 10 of 10, sign test p 0.00195)" \
        in summary["notes"][2]
