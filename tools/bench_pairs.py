"""Run the benchmark in alternating pairs of two revisions and summarize them.

Usage::

    python3 tools/bench_pairs.py BASE CHANGE [--claim WORKLOAD:METRIC] [-o FILE]
    python3 tools/bench_pairs.py --summarize FILE [--claim WORKLOAD:METRIC]

BASE and CHANGE are git revisions of this repository.  For every run the
revision's committed files are exported with ``git archive`` into a fresh
temporary directory, so neither side sees the other's files, the working
tree or a bytecode cache, and ``perfbench/run.py --workload W --seed p
--seconds S --trace 0`` runs there under ``PYTHONDONTWRITEBYTECODE=1``,
S being ``BENCHMARK.json``'s ``run_seconds``.  Each workload gets ten
pairs; pair p runs on seed p, the parent first on odd p and the change
first on even p, so drift in the host's load falls on both sides alike.  The
claimed workload runs first, then the others of ``BENCHMARK.json``.

The output file holds a description, the claim, the notes, the summary
per workload and every run.  Per end-to-end metric of ``BENCHMARK.json``
the summary gives each side's median and inclusive quartiles
(``statistics.quantiles(method='inclusive')``), the ratio of the medians,
change over parent, and the pairs the change won in the metric's better
direction.  A claim is met when the change wins at least nine of ten
pairs, its median is better than the parent's by more than the parent's
quartile distance, and it lies beyond the parent's third quartile (below
the first, for a metric where lower is better).

``--summarize FILE`` recomputes the summary and the notes from the runs
of a file of this layout; the claim is read from the leading words of
its ``claim`` text unless ``--claim`` names one.  It prints the notes, one
per line, then the summary as one JSON object on the last line.  Standard
library only; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = 10


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def _run_one(revision: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of ``revision``'s committed files, in a fresh copy."""
    archive = _git("archive", revision)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tmp, filter="data")
            else:
                tar.extractall(tmp)
        argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return {"exit": done.returncode, "wall_s": round(wall, 1), "result": result}


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """The summary per workload, in the order the runs first name them."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        scored = [run for run in runs
                  if run["workload"] == workload and run["result"] is not None]
        entry = {}
        for metric, direction in better.items():
            values = {side: {} for side in SIDES}
            for run in scored:
                if metric in run["result"]["metrics"]:
                    values[run["side"]][run["pair"]] = run["result"]["metrics"][metric]["value"]
            if not all(values.values()):
                continue
            pairs = sorted(set(values["parent"]) & set(values["change"]))
            per_pair = [{"pair": p, "parent": values["parent"][p], "change": values["change"][p]}
                        for p in pairs]
            wins = sum((row["change"] > row["parent"]) if direction == "higher"
                       else (row["change"] < row["parent"]) for row in per_pair)
            stats = {side: _quartiles(list(values[side].values())) for side in SIDES}
            entry[metric] = {
                **stats,
                "change_wins": wins,
                "pairs": len(pairs),
                "median_ratio": stats["change"]["median"] / stats["parent"]["median"],
                "per_pair": per_pair,
            }
        entry["runs_correct"] = sum(bool(run["result"]["correct"]) for run in scored)
        entry["failed"] = sum(run["result"]["failed"] for run in scored)
        entry["attempted"] = sum(run["result"]["attempted"] for run in scored)
        summary[workload] = entry
    return summary


def claim_test(stats: dict, direction: str) -> str:
    """Why a claim on a metric with these stats is met or not met."""
    parent, change = stats["parent"], stats["change"]
    spread = parent["q3"] - parent["q1"]
    gap = change["median"] - parent["median"]
    if direction == "higher":
        edge, beyond, word = parent["q3"], change["median"] > parent["q3"], "above"
    else:
        gap, edge, beyond, word = -gap, parent["q1"], change["median"] < parent["q1"], "below"
    met = stats["change_wins"] * 10 >= 9 * stats["pairs"] and gap > spread and beyond
    edge_name = "third" if direction == "higher" else "first"
    return (
        f"change better in {stats['change_wins']} of {stats['pairs']} pairs; "
        f"the change's median is {gap:.6g} better than the parent's, against the parent's "
        f"quartile distance {spread:.6g}, and {'' if beyond else 'not '}{word} the parent's "
        f"{edge_name} quartile {edge:.6g}. {'Met' if met else 'Not met'}."
    )


def _figure(stats: dict) -> str:
    return f"{stats['median']:.6g} [{stats['q1']:.6g}-{stats['q3']:.6g}]"


def notes(summary: dict, better: dict[str, str], bounds: dict[str, float],
          claim: tuple[str, str] | None) -> tuple[str | None, list[str]]:
    """The claim text and the notes of a summary."""
    claim_text, lines = None, []
    if claim is not None:
        workload, metric = claim
        stats = summary[workload][metric]
        claim_text = (
            f"{workload} {metric} improves: median {stats['parent']['median']:.6g} -> "
            f"{stats['change']['median']:.6g} ({stats['median_ratio']:.4g}x), "
            + claim_test(stats, better[metric])
        )
    worse = []
    for workload, entry in summary.items():
        figures = []
        for metric in better:
            if metric not in entry:
                continue
            stats = entry[metric]
            figures.append(
                f"{metric} {_figure(stats['parent'])} -> {_figure(stats['change'])} "
                f"(ratio {stats['median_ratio']:.4f}, change better in "
                f"{stats['change_wins']} of {stats['pairs']})"
            )
            ratio = stats["median_ratio"]
            loss = ratio - 1 if better[metric] == "lower" else 1 - ratio
            if loss > bounds[metric]:
                worse.append(f"{workload} {metric} ({loss:+.1%} against a bound of "
                             f"{bounds[metric]:.0%})")
        tag = "claimed" if claim is not None and claim[0] == workload else "not claimed"
        lines.append(f"{workload} ({tag}): " + "; ".join(figures) + ".")
    if worse:
        lines.append("Worse in the median by more than its BENCHMARK.json bound: "
                     + ", ".join(worse) + ".")
    else:
        lines.append("Every end-to-end metric is within its BENCHMARK.json bound on every "
                     "workload, in the median.")
    runs = sum(entry["runs_correct"] for entry in summary.values())
    attempted = sum(entry["attempted"] for entry in summary.values())
    failed = sum(entry["failed"] for entry in summary.values())
    lines.append(f"{runs} correct runs, {failed} failed iterations ({attempted:,} attempted).")
    return claim_text, lines


def _parse_claim(text: str | None) -> tuple[str, str] | None:
    if not text:
        return None
    workload, _, metric = text.partition(":")
    return workload, metric


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", help="git revision of the parent side")
    parser.add_argument("change", nargs="?", help="git revision of the change side")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("-o", "--output", help="the file to write (default: standard output)")
    parser.add_argument("--summarize", metavar="FILE", help="recompute the notes of FILE")
    args = parser.parse_args(argv)

    bench = _benchmark()
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    claim = _parse_claim(args.claim)
    names = [w["name"] for w in bench["workloads"]]
    if claim is not None and (claim[0] not in names or claim[1] not in better):
        parser.error(f"--claim names no workload and end-to-end metric of BENCHMARK.json: "
                     f"{args.claim}")

    if args.summarize:
        with open(args.summarize, encoding="utf-8") as fh:
            recorded = json.load(fh)
        if claim is None and recorded.get("claim"):
            claim = tuple(recorded["claim"].split()[:2])
        summary = summarize(recorded["runs"], better)
        claim_text, lines = notes(summary, better, bounds, claim)
        for line in ([claim_text] if claim_text else []) + lines:
            print(line)
        print(json.dumps({"claim": claim_text, "notes": lines, "workloads": summary}))
        return 0

    if not (args.base and args.change):
        parser.error("give BASE and CHANGE, or --summarize FILE")
    revisions = {side: _git("rev-parse", "--short", rev).decode().strip()
                 for side, rev in zip(SIDES, (args.base, args.change))}
    seconds = bench["run_seconds"]
    if claim is not None:
        names = [claim[0]] + [name for name in names if name != claim[0]]
    runs = []
    for workload in names:
        for pair in range(1, PAIRS + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                run = _run_one(revisions[side], workload, pair, seconds)
                runs.append({"workload": workload, "pair": pair, "side": side, **run})
                print(f"{workload} pair {pair} {side}: exit {run['exit']}, {run['wall_s']} s",
                      file=sys.stderr, flush=True)
    summary = summarize(runs, better)
    claim_text, lines = notes(summary, better, bounds, claim)
    description = (
        f"perfbench/run.py --seconds {seconds:g} --trace 0 output, parent commit "
        f"{revisions['parent']} against change {revisions['change']}. {PAIRS} alternating "
        "pairs per workload, pair p on seed p, the parent first on odd p; "
        "PYTHONDONTWRITEBYTECODE=1; each run from a fresh git archive of its side's commit; "
        f"{os.cpu_count()} CPUs, Python {platform.python_version()}. Quartiles are "
        "statistics.quantiles(method='inclusive')."
    )
    record = {"description": description, "claim": claim_text, "notes": lines,
              "workloads": summary, "runs": runs}
    text = json.dumps(record, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(run["exit"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
