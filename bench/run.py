#!/usr/bin/env python3
"""Benchmark of the specgames package: three desk workloads, one caller each.

    python3 bench/run.py --workload ensemble --seed 7 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 35

A run imports the package from ``src/`` of the checkout it sits in, builds
the workload's inputs from ``--seed``, and repeats passes over the
workload's calls while another pass still fits in ``--seconds``.  The load
is one closed loop in one process and one thread: a call starts only after
the previous one and its output check have finished, and BLAS is pinned to
one thread.

With ``--trace 0`` it reports the end-to-end metrics, with times
calibrated against the kernel of ``calibration.py``.  With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics
of ``tracing.PER_LAYER``; the traced-minus-untraced pass time is
``bench.trace_overhead_s``.  ``--workload all`` runs every workload, each
in its own fresh process, untraced and then traced, and prints every
metric by name with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, samples behind every percentile, check problems) is written
to ``bench/out/``.  The run exits non-zero without a result when the
package cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pinned before numpy is first imported, here and in every child process.
BLAS_THREADS = "1"
BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
os.environ.update({var: BLAS_THREADS for var in BLAS_VARIABLES})

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("ensemble", "frontier", "cli")
SETUP_SAMPLES = 7  # set-ups per untraced run, six of them in fresh processes; the median is reported
PERCENTILE = 90  # the highest tail percentile reported
BEYOND = 10  # samples a tail percentile needs beyond it
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def setup(workload, seed, trace):
    """Import the package and build the workload's inputs; returns (workload, tracer, seconds)."""
    start = time.perf_counter()
    if not (SRC / "specgames" / "__init__.py").is_file():
        raise SetupError(f"no specgames package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import specgames
        import workloads
    except ImportError as exc:
        raise SetupError(f"cannot import the package: {exc}") from exc
    if Path(specgames.__file__).resolve().parent != SRC / "specgames":
        raise SetupError(f"specgames was imported from {specgames.__file__}, not {SRC}")
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin("setup")
    try:
        wl = workloads.WORKLOADS[workload](seed)
    except FileNotFoundError as exc:
        raise SetupError(str(exc)) from exc
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.end()
    return wl, tracer, time.perf_counter() - start


def setup_speed():
    """The kernel's time right after a set-up: the median of three samples after a warm-up."""
    import calibration

    speed = calibration.Speed()
    calibration.kernel()
    for _ in range(3):
        speed.sample()
    return statistics.median(speed.seconds)


def probe_setup(workload, seed):
    """Set-up time of one fresh process and the kernel time after it, measured inside that process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    seconds, kernel_s = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(kernel_s)


def run_pass(wl, index, tracer=None, speed=None):
    """One pass over the workload's calls; only the calls themselves are timed.

    With ``speed``, the calibration kernel is sampled between calls, at
    most every ``calibration.INTERVAL_S``, and once after the last call.
    """
    stats = {"time_s": 0.0, "ops": 0, "failed": 0, "times": [], "problems": [], "tallies": {}}
    if tracer is not None:
        tracer.begin(f"pass{index}")
    for call in wl.calls(index):
        if speed is not None and speed.due():
            speed.sample()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result = call.run()
            error = None
        except Exception:  # a raising operation is a failed operation
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
        elapsed = end - start
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            try:
                failed, problems, counts = call.check(result)
            except Exception:
                failed, problems, counts = call.ops, [traceback.format_exc(limit=3)], {}
        else:
            failed, problems, counts = call.ops, [error], {}
        result = None
        if tracer is not None:
            tracer.add(counts)
        for key, value in counts.items():
            stats["tallies"][key] = stats["tallies"].get(key, 0) + value
        stats["time_s"] += elapsed
        stats["ops"] += call.ops
        stats["failed"] += failed
        stats["problems"] += [f"{call.label}: {p}" for p in problems]
        stats["times"].append((call, start, end))
    if speed is not None:
        speed.sample()
    if tracer is not None:
        tracer.end()
    return stats


def percentile(values, q):
    """Linear-interpolated percentile and the number of samples above it."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, sum(v > value for v in ordered)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed):
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARIABLES},
    }


def tail_percentile(n):
    """The highest percentile, at most PERCENTILE and at least the median, with BEYOND of n samples above it."""
    if n <= BEYOND + 1:
        return 50.0
    return min(PERCENTILE, max(50.0, 100.0 * (n - 1 - BEYOND) / (n - 1)))


def summarize(calls, times):
    """ops_per_s, op_p50_ms and op_p90_ms from one time per call, with the tail percentile used."""
    latencies = [1e3 * t / call.ops for call, t in zip(calls, times)]
    q = tail_percentile(len(latencies))
    tail, beyond = percentile(latencies, q)
    return {
        "ops_per_s": sum(call.ops for call in calls) / sum(times),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": tail,
        "tail_percentile": q,
        "beyond_tail": beyond,
    }


def measure(args):
    """One run: set-up, then passes until one more would overrun ``--seconds``.

    Every pass runs the same calls.  Untraced, the calibration kernel is
    sampled between calls and a call's time is the median of its
    calibrated runs (see ``calibration.py``); set-up probes in fresh
    processes are spread over the run and calibrated by the kernel timed
    right after them.  Traced, each untraced pass is followed by a traced
    one.
    """
    begin = time.perf_counter()
    wl, tracer, own_setup = setup(args.workload, args.seed, args.trace)
    import calibration  # after the set-up, which imports numpy

    speed = None if args.trace else calibration.Speed()
    setup_samples = [] if args.trace else [(own_setup, setup_speed())]
    probes, probed = (0 if args.trace else SETUP_SAMPLES - 1), []
    plain, traced = [], []
    try:
        while True:
            start = time.perf_counter()
            if len(probed) < probes and start - begin >= args.seconds * len(probed) / probes:
                probed.append(probe_setup(args.workload, args.seed))
            plain.append(run_pass(wl, len(plain), speed=speed))
            if tracer is not None:
                traced.append(run_pass(wl, len(traced), tracer))
            now = time.perf_counter()
            if (now - begin) + (now - start) > args.seconds:  # one more like the last would overrun
                break
        while len(probed) < probes:
            probed.append(probe_setup(args.workload, args.seed))
    finally:
        wl.close()
    setup_samples += probed

    every = plain + traced
    attempted = sum(p["ops"] for p in every)
    failed = sum(p["failed"] for p in every)
    problems = list(dict.fromkeys(msg for p in every for msg in p["problems"]))
    record = {
        "workload": args.workload,
        "trace": int(args.trace),
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "passes": [{k: p[k] for k in ("time_s", "ops", "failed")} for p in plain],
        "failed_ops": failed / attempted,
        "problems": problems[:20],
        "tallies": [p["tallies"] for p in plain],
    }
    if tracer is None:
        runs = {}  # call -> (measured, calibrated) time of each of its runs
        for p in plain:
            for call, t0, t1 in p["times"]:
                runs.setdefault(call, []).append((t1 - t0, speed.calibrate(t0, t1)))
        calls = [call for call in runs if call.ops]
        estimates = {
            kind: summarize(calls, [statistics.median(r[i] for r in runs[c]) for c in calls])
            for i, kind in enumerate(("measured", "calibrated"))
        }
        setup_cal = [s * calibration.REFERENCE_S / k for s, k in setup_samples]
        values = {
            "setup_s": statistics.median(setup_cal),
            **estimates["calibrated"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        record["samples"] = {
            "setup_s": len(setup_samples),
            "passes": len(plain),
            "op_p50_ms": len(calls),
            "op_p90_ms": {"samples": len(calls), "percentile": values["tail_percentile"],
                          "beyond": values["beyond_tail"]},
            "kernel": len(speed.seconds),
        }
        estimates["measured"]["setup_s"] = statistics.median(s for s, _ in setup_samples)
        estimates["calibrated"]["setup_s"] = values["setup_s"]
        record["estimates"] = estimates
        record["setup_samples"] = setup_samples
        record["kernel_s"] = {"median": statistics.median(speed.seconds),
                              "min": min(speed.seconds), "max": max(speed.seconds)}
        record["call_times_s"] = [runs[c] for c in calls]
    else:
        import tracing

        overhead = statistics.median(t["time_s"] - p["time_s"] for p, t in zip(plain, traced))
        metrics = tracing.layer_metrics(tracer, tracer.sections[0], tracer.sections[1:], overhead)
        record["traced_passes"] = [{k: p[k] for k in ("time_s", "ops", "failed")} for p in traced]
        record["missing_bindings"] = tracer.missing
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        record["spans"] = str(spans.relative_to(ROOT))
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for msg in problems[:5]:
        print(f"check failed: {msg.strip()}", file=sys.stderr)
    print(f"{args.workload}: {attempted} operations, {failed} failed "
          f"(failed_ops {failed / attempted:.3g}); record {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def run_all(args):
    """Every workload in its own fresh process, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = {}
    for trace in (0, 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SetupError(f"{workload} (trace {trace}) exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            results[f"{workload}-trace{trace}"] = result
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"all-seed{args.seed}.json"
    path.write_text(json.dumps({"environment": environment(args.seed), "seconds": args.seconds,
                                "results": results}, indent=1) + "\n", encoding="utf-8")
    print(f"all workloads: record {path.relative_to(ROOT)}")
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            wl, _, seconds = setup(args.workload, args.seed, trace=False)
            wl.close()
            print(repr(seconds), repr(setup_speed()))
            return 0
        result = run_all(args) if args.workload == "all" else measure(args)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
