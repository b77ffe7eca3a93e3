"""Benchmark of trigwdvv's verifiers, run end to end through ``cli.run``.

Usage:
    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmark/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

One client in one process runs the workload's verification again and again,
each run after the previous one has finished (a closed loop), each on its own
seed made from ``--seed``.  The number of runs is fixed by ``--seconds`` and
the workload, so that it takes about that long on the reference machine.
``all`` runs every workload this way, one at a time, each in its own
interpreter.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count the checks of the distinct seeds run, so they depend on
``--seed`` and ``--seconds`` alone, and ``failed / attempted`` is the check
failure fraction.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones of ``tracing.py``.  The lines
before it give the environment and the details.  See README.md here.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11  # timed set-up probes per run, after one untimed
# Median time for an interpreter that imports numpy to start, measured on a
# 2-vCPU Xeon at 2.1 GHz with Python 3.11 and numpy 2.4.
NUMPY_START_S = 0.13
MIN_RUNS = 5  # timed runs per loop even when --seconds is short
CONTROL_SAMPLES = 5
CONTROL_TRIES = 3
PROBE_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# checks


def verdicts(report: dict) -> dict[str, bool]:
    """Each check's verdict, recomputed from the report and failing closed.

    The report's own ``pass`` flag is not trusted: a check passes only when
    its max and mean are finite and the max is below the run's tolerance.
    """
    tol = report["run"]["tolerance"]
    return {
        c["name"]: math.isfinite(c["max_residual"])
        and math.isfinite(c["mean_residual"])
        and c["max_residual"] < tol
        for c in report["checks"]
    }


def run_report(cli, spec) -> tuple[dict | None, str, str | None]:
    """(report, its bytes or the error text, error class name) of one ``cli.run``."""
    try:
        report = cli.run(spec)
    except Exception as exc:  # a failed run is counted, not fatal
        return None, f"raised {type(exc).__name__}: {exc}", type(exc).__name__
    doc = report.to_json_dict()
    return doc, cli.dumps_17g(doc), None


class Tally:
    """Checks attempted and failed over the distinct seeds run, with what went wrong.

    The checks of each seed are counted once, so the counts depend on the
    seeds alone and not on how many runs fit in the time; a repeat of a seed
    must give the same report bytes.  A run that raised counts as one failed
    check.  Failures named in ``known_failures`` (check names or error class
    names) are counted but do not make the outputs incorrect.
    """

    def __init__(self, known_failures: frozenset[str]) -> None:
        self.known_failures = known_failures
        self.attempted = 0
        self.failed = 0
        self.unexpected: set[str] = set()
        self.flag_mismatch: set[str] = set()
        self.texts: dict[int, str] = {}
        self.nondeterministic = False

    def add(self, seed: int, report: dict | None, text: str, error: str | None) -> None:
        if seed in self.texts:
            self.nondeterministic |= text != self.texts[seed]
            return
        self.texts[seed] = text
        if report is None:
            self.attempted += 1
            self.failed += 1
            if error not in self.known_failures:
                self.unexpected.add(f"raised {error}")
            return
        verdict = verdicts(report)
        for check, ok in verdict.items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                if check not in self.known_failures:
                    self.unexpected.add(check)
        for c in report["checks"]:
            if c["pass"] != verdict[c["name"]]:
                self.flag_mismatch.add(c["name"])


def negative_control(cli, workload, seeds) -> tuple[bool, str]:
    """Run the workload with r + 1, off the theorem: some check must fail.

    A known failure is neither a detection nor a pass: the control then
    moves on to the next seed, up to CONTROL_TRIES seeds.
    """
    samples = min(workload.samples, CONTROL_SAMPLES)
    outcome = "not run"
    for seed in itertools.islice(seeds, CONTROL_TRIES):
        report, text, error = run_report(cli, workload.spec(cli, seed, r_shift=1.0, samples=samples))
        if report is None:
            outcome = text
            if error in workload.known_failures:
                continue
            return False, outcome
        failing = [name for name, ok in verdicts(report).items() if not ok]
        detected = any(name not in workload.known_failures for name in failing)
        return detected, f"failing checks {failing}"
    return False, outcome


# ---------------------------------------------------------------------------
# timing


_REF_MATRIX = np.arange(100.0).reshape(10, 10) / 7.0 + np.eye(10)


def reference_kernel() -> float:
    """Fixed single-threaded work in the verifiers' mix: Python loops and small LAPACK calls."""
    acc = 0.0
    for i in range(1500):
        acc += np.linalg.svd(_REF_MATRIX, compute_uv=False)[0]
        row = tuple(float(v) for v in _REF_MATRIX[i % 10])
        acc += len({row: i, (i,): row}) + sum(x * x for x in row)
    return acc


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class Reference:
    """Times runs, each also relative to the reference kernel timed around it.

    Other tenants of a shared machine slow every computation for seconds at
    a time; a run and the kernel next to it slow together, so their ratio
    holds still where the run's wall time does not.
    """

    def __init__(self) -> None:
        _, self.last = _timed(reference_kernel)
        self.kernel_s = [self.last]

    def measure(self, fn):
        """(fn(), wall seconds, seconds / mean kernel seconds before and after)."""
        result, elapsed = _timed(fn)
        _, after = _timed(reference_kernel)
        relative = elapsed / ((self.last + after) / 2.0)
        self.last = after
        self.kernel_s.append(after)
        return result, elapsed, relative


def start_until_ready(argv: list[str]) -> float:
    """Seconds from starting ``argv`` until it prints ``ready``; waits for it to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


def measure_setup(workload_name: str) -> tuple[float, list[float], list[float]]:
    """Set-up time, scaled to the reference start-up speed; raw probe and baseline times.

    Each set-up probe is paired with a baseline interpreter that only imports
    numpy.  Start-up speed drifts by a third between quarter hours on a shared
    machine, and the two drift together, so set-up is their median ratio
    times NUMPY_START_S.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload_name]
    baseline = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
    start_until_ready(probe)  # untimed: also fills the bytecode cache
    probes, baselines = [], []
    for _ in range(SETUP_PROBES):
        baselines.append(start_until_ready(baseline))
        probes.append(start_until_ready(probe))
    ratio = statistics.median(p / b for p, b in zip(probes, baselines))
    return ratio * NUMPY_START_S, probes, baselines


def tail_percentile(times: list[float]) -> str:
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    ordered = sorted(times)
    for p in (99, 95, 90, 75):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return f"p{p} {ordered[rank - 1]:.4f} s"
    return "no percentile above the median has 10 samples beyond it"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, asked through its own API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "trigwdvv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one workload


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, workload, seed: int, seconds: float, tally: Tally, problems: list):
    """Warm runs on distinct seeds, as many as fill ``seconds`` on the reference machine.

    The count is fixed rather than timed, so that the checks attempted and
    failed do not change with the machine's speed.  Then the set-up probes.
    """
    times, relative = [], []
    ref = Reference()
    for i in range(max(MIN_RUNS, round(seconds * workload.runs_per_second))):
        run_seed = workloads.sub_seed(seed, i)
        spec = workload.spec(cli, run_seed)
        (report, text, error), elapsed, rel = ref.measure(lambda: run_report(cli, spec))
        tally.add(run_seed, report, text, error)
        times.append(elapsed)
        relative.append(rel)
    setup_s, probes, baselines = measure_setup(workload.name)
    metrics = {
        "run_rel": metric(statistics.median(relative), "x"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    print(f"run_s        {statistics.median(times):.4f} s  median of {len(times)} warm runs on distinct "
          f"seeds; {tail_percentile(times)}")
    print(f"run_rel      {metrics['run_rel']['value']:.4f} x  median of run time / reference kernel "
          f"time around it (kernel median {statistics.median(ref.kernel_s):.4f} s)")
    print(f"setup_s      {setup_s:.4f} s  median over {len(probes)} fresh interpreters of set-up time / "
          f"numpy-only start time, times {NUMPY_START_S} s; raw medians {statistics.median(probes):.4f} s "
          f"and {statistics.median(baselines):.4f} s")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    return metrics


def per_layer(cli, workload, seed: int, seconds: float, tally: Tally, problems: list):
    """Untraced and traced runs of one seed in turn, the tracer installed for each traced run.

    Layer self times are given, like ``run_rel``, in units of the reference
    kernel's time around the traced run (``<layer>.self_rel``).
    """
    run_seed = workloads.sub_seed(seed, 0)
    spec = workload.spec(cli, run_seed)
    plain, plain_rel, traced, traced_rel, per_run, discarded = [], [], [], [], [], []
    ref = Reference()
    start = time.perf_counter()
    while len(traced) < MIN_RUNS or time.perf_counter() - start < seconds:
        (report, text, error), elapsed, rel = ref.measure(lambda: run_report(cli, spec))
        plain.append(elapsed)
        plain_rel.append(rel)
        tally.add(run_seed, report, text, error)
        tracer = Tracer()
        with tracer:
            (report, text, error), elapsed, rel = ref.measure(lambda: run_report(cli, spec))
            per_run.append((layer_metrics(*tracer.take()), rel / elapsed))
        if tracer.patched:
            problems.append("the tracer left patched attributes behind")
        traced.append(elapsed)
        traced_rel.append(rel)
        tally.add(run_seed, report, text, error)
        discarded.append(None if report is None else report["discarded_points"])
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m, _ in per_run]
    if any(c != counts[0] for c in counts) or len(set(discarded)) != 1:
        problems.append("traced runs with the same seed gave different counts")
    metrics, self_s = {}, {}
    for key, value in per_run[0][0].items():
        if key.endswith("_s"):
            self_s[key] = statistics.median(m[key] for m, _ in per_run)
            rel = statistics.median(m[key] * per_kernel for m, per_kernel in per_run)
            metrics[key.removesuffix("_s") + "_rel"] = metric(rel, "x")
        else:
            metrics[key] = metric(value, "ratio" if key.endswith("_ratio") else "count")
    metrics["cli.discarded_points"] = metric(discarded[0] or 0, "count")
    overhead = statistics.median(traced_rel) - statistics.median(plain_rel)
    metrics["tracing.overhead_rel"] = metric(overhead, "x")
    print(f"traced run_s {statistics.median(traced):.4f} s, untraced {statistics.median(plain):.4f} s, "
          f"over {len(traced)} runs each; traced run_rel {statistics.median(traced_rel):.4f} x, "
          f"untraced {statistics.median(plain_rel):.4f} x")
    print("self seconds per traced run: " + ", ".join(f"{k} {v:.4g}" for k, v in self_s.items()))
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from trigwdvv import cli

    workload = workloads.WORKLOADS[name]
    print(f"workload {name}: {workload.why}")
    print("env " + json.dumps(environment(seed), sort_keys=True))
    tally = Tally(workload.known_failures)
    problems: list[str] = []
    first = workloads.sub_seed(seed, 0)
    (cold, cold_text, cold_error), cold_s = _timed(lambda: run_report(cli, workload.spec(cli, first)))
    tally.add(first, cold, cold_text, cold_error)
    print(f"cold first run {cold_s:.4f} s (information only)")

    measure = per_layer if trace else end_to_end
    metrics = measure(cli, workload, seed, seconds, tally, problems)

    control_seeds = (workloads.sub_seed(seed, i) for i in itertools.count())
    detected, outcome = negative_control(cli, workload, control_seeds)
    print(f"negative control (r + 1): {'detected' if detected else 'NOT DETECTED'}; {outcome}")
    if not detected:
        problems.append("the negative control was not detected")
    if tally.nondeterministic:
        problems.append("two runs with the same seed gave different reports")
    if tally.unexpected:
        problems.append(f"failures that should not happen: {sorted(tally.unexpected)}")
    if tally.flag_mismatch:
        print(f"report pass flag disagrees with the recomputed verdict for {sorted(tally.flag_mismatch)}")
    known = f" (known failures: {sorted(workload.known_failures)})" if workload.known_failures else ""
    print(f"check_fail_frac {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4g} "
          f"over {len(tally.texts)} distinct seeds{known}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    return {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another; then a summary table."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            return 1
        rows.append((name, json.loads(lines[-1])))
    print()
    for name, result in rows:
        cells = [f"{key}={m['value']:.6g} {m['unit']}" for key, m in result["metrics"].items()]
        frac = result["failed"] / result["attempted"]
        print(f"{name:18s} correct={result['correct']} check_fail_frac={frac:.4g} " + " ".join(cells))
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trigwdvv" / "__init__.py").is_file():
        print(f"error: the trigwdvv sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
