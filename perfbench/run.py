"""Benchmark of the gdswu package: one workload per run, oracle-gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

With ``--trace 0`` a run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics, taken
from a traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print the same figures for a reader, plus the exact model
statistics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 120

try:
    import workloads
    import reference
    import tracing
    from workloads import gdswu
except ImportError as exc:
    sys.exit(f"error: cannot import the package under test: {exc}")


def _child_env() -> dict:
    path = os.pathsep.join(p for p in (workloads.SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _timed_child(argv: list[str]) -> float:
    """Wall seconds from starting a child to reaping it.

    ``Popen.wait`` with a timeout polls at up to 50 ms intervals, which would
    quantize the figure, so the wait blocks and a timer thread enforces the
    timeout instead."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env())
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def measure_peak_rss(name: str, seed: int, size: int, workdir: str) -> float:
    """Peak resident set (MB) of a fresh process that runs one iteration."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "rss_child.py"), name, str(seed), str(size), workdir],
        cwd=ROOT, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S,
        capture_output=True, text=True,
    )
    return float(done.stdout.split()[-1])


def _environment() -> str:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return (f"python={platform.python_version()} numpy={numpy} "
            f"nproc={len(os.sched_getaffinity(0))}")


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} median={q2:.6g} q3={q3:.6g}"


class Runner:
    """One benchmark run of one workload: counts attempts and failures."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.last_stats: dict = {}

    def attempt(self, trace: str | None = None):
        """One gated iteration; ``None`` when it failed."""
        self.attempted += 1
        scope = self.tracer.tracing(trace) if trace else nullcontext()
        try:
            with scope:
                it = self.workload.iterate()
        # cli.main raises SystemExit when argparse rejects its arguments.
        except (Exception, SystemExit) as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        errors = self.workload.base_errors + it.errors
        if errors:
            self.failures.append("; ".join(errors))
            return None
        self.last_stats = it.stats
        return it


def run(name: str, seed: int, seconds: float, trace: bool, size: int | None = None,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and return the result object the last line prints."""
    cls = workloads.WORKLOADS[name]
    size = size or cls.default_size
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    print(f"workload={name} seed={seed} seconds={seconds} trace={int(trace)} size={size} "
          "closed loop, 1 caller")
    print(f"env {_environment()}")
    workdir = tempfile.mkdtemp(prefix=".perfbench_tmp_", dir=ROOT)
    try:
        workload = cls(seed, size, workdir)
        try:
            workload.write_inputs()
            tracer = tracing.Tracer() if trace else None
            with tracer.tracing("prepare") if trace else nullcontext():
                workload.prepare()
            runner = Runner(workload, tracer)
            runner.attempt()  # warm-up: gated, not timed
            if trace:
                values = _traced_loop(runner, seconds)
            else:
                setup_argv = [sys.executable, "-c", workload.setup_code()]
                values = _scored_loop(runner, seconds, setup_argv, setup_repeats)
                values["peak_rss_mb"] = measure_peak_rss(name, seed, size, workdir)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")

    failed = len(runner.failures)
    for failure in runner.failures[:5]:
        print(f"FAILED: {failure}")
    print(f"failed_frac {failed / runner.attempted:.6g} ({failed} of {runner.attempted} runs)")
    _print_model_stats(runner.last_stats)
    metrics = {}
    for metric in declared:
        # A failed run may lack a value for some metric and reports 0 there;
        # a correct run must have computed every declared metric.
        value = values.get(metric["name"], 0.0) if failed else values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics}


def _scored_loop(runner: Runner, seconds: float, setup_argv: list[str],
                 setup_repeats: int) -> dict:
    """Timed iterations for ``seconds``, with the set-up probes spread evenly
    over the same window.

    A setup probe is a fresh interpreter that imports gdswu and builds the
    workload's configuration.  The host's speed drifts over tens of seconds,
    so probes taken in one burst would sample a single moment of it.
    """
    _timed_child(setup_argv)  # fills the bytecode cache; not counted
    rates, refs, setup = [], [], []
    start = time.perf_counter()
    while True:
        it = runner.attempt()
        ref_s = reference.seconds()
        if it is not None:
            rates.append(it.samples / it.elapsed)
            refs.append(ref_s)
        elapsed = time.perf_counter() - start
        if len(setup) < setup_repeats and elapsed >= len(setup) * seconds / setup_repeats:
            setup.append(_timed_child(setup_argv))
        if elapsed >= seconds:
            break
    while len(setup) < setup_repeats:
        setup.append(_timed_child(setup_argv))
    normalized = [rate * ref_s for rate, ref_s in zip(rates, refs)]
    print(f"samples_per_s (host time, not scored) per iteration: {_quartiles(rates)}")
    print(f"reference kernel s after each iteration: {_quartiles(refs)}")
    print(f"samples_per_ref per iteration: {_quartiles(normalized)}")
    print(f"setup_s per fresh interpreter, start-up included: {_quartiles(setup)}")
    return {"samples_per_ref": statistics.median(normalized) if normalized else 0.0,
            "setup_s": statistics.median(setup)}


def _traced_loop(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced iterations; report medians of the traced."""
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        it = runner.attempt()
        if it is not None:
            plain.append(it.elapsed)
        trace = f"iteration-{runner.attempted}"
        it = runner.attempt(trace)
        if it is not None:
            traced.append(it.elapsed)
            layers.append(tracing.iteration_metrics(runner.tracer, trace, it.rows_written))
        if time.perf_counter() >= deadline:
            break
    values = {key: statistics.median(m[key] for m in layers) for key in layers[0]} if layers else {}
    values.update(tracing.oracle_metrics(runner.tracer, "prepare"))
    untraced_s = statistics.median(plain) if plain else 0.0
    traced_s = statistics.median(traced) if traced else 0.0
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    print(f"entry-point wall time untraced {_quartiles(plain)}; traced {_quartiles(traced)}")
    peaks: list[float] = []
    with tracing.pipeline_alloc_peaks(peaks):
        runner.attempt()
    values["systolic.reports.peak_alloc_mb"] = max(peaks, default=0.0)
    return values


def _print_model_stats(stats: dict) -> None:
    """Exact model statistics; the model is unvalidated against hardware."""
    for arch, s in stats.items():
        if not isinstance(s, dict):
            continue
        utilisation = [round(busy / s["sim_cycles"], 6) for busy in s["sim_stage_busy"]]
        quoted = gdswu.cli.HW_CLAIMED_OPS_PER_CYCLE
        print(f"model {arch}: sim_cycles={s['sim_cycles']} sim_latency={s['sim_latency']} "
              f"sim_ops_per_cycle={s['sim_ops_per_cycle']:g} "
              f"ops_delta={s['sim_ops_per_cycle'] - quoted:+g} (against the quoted {quoted}) "
              f"sim_stage_utilisation={utilisation}")
    faults = {k: v for k, v in stats.items() if k.startswith("fault.")}
    if faults:
        print("model " + " ".join(f"{k}={v}" for k, v in faults.items()))
    if stats:
        print("model note: the model is unvalidated; the repository holds no hardware "
              "reference results, so no error figure is given")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them in both modes")
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument("--seconds", type=float, default=30, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    ns = parser.parse_args(argv)
    if ns.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            for trace in ("0", "1"):
                done = subprocess.run([sys.executable, os.path.abspath(__file__),
                                       "--workload", name, "--seed", str(ns.seed),
                                       "--seconds", str(ns.seconds), "--trace", trace])
                status = status or done.returncode
        return status
    result = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
