#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 bench/check.py manifest
        BENCHMARK.json names exactly the metrics and workloads run.py and
        tracing.py produce, within the manifest's limits.
    python3 bench/check.py counts --seed 7
        Two traced runs per workload with the same seed report identical
        exact counts (water-fill calls, IW sweeps, rounds, bytes, ...).
    python3 bench/check.py spread --seeds 10 --sets 2 --out bench/out/spread.json
        Runs every workload on --seeds seeds per set and reports, for each
        end-to-end metric, the quartile spread as a share of the median and,
        for a second set, how far its median moved from the first's.  Both
        are held to the metric's bound in BENCHMARK.json.
    python3 bench/check.py baseline --spread bench/out/spread.json --traced bench/out/all-seed7.json
        Writes baseline.json: the quartiles of every end-to-end metric from
        a spread run, the per-layer values of a `run.py --workload all`
        record, and the map from each layer metric to the end-to-end
        metric it should move.
    python3 bench/check.py references --seeds 0-9
        Records the ensemble means of the current package for those seeds
        in references.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_manifest():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def check_manifest():
    import run
    import tracing

    m = load_manifest()
    problems = []
    if set(m) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"top-level keys {sorted(m)}")
    if [w["name"] for w in m["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads differ from run.WORKLOADS")
    if [(e["name"], e["unit"]) for e in m["end_to_end"]] != list(run.END_TO_END):
        problems.append("end_to_end differs from run.END_TO_END")
    if [(p["name"], p["unit"], p["better"]) for p in m["per_layer"]] != [
        (name, unit, better) for name, unit, better, *_ in tracing.PER_LAYER
    ]:
        problems.append("per_layer differs from tracing.PER_LAYER")
    for w in m["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}")
    for e in m["end_to_end"]:
        if set(e) != {"name", "unit", "better", "bound"} or not 0 < e["bound"] <= 0.25:
            problems.append(f"end_to_end {e['name']}")
    for p in m["per_layer"]:
        if set(p) != {"name", "unit", "better"}:
            problems.append(f"per_layer {p['name']}")
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in m[key]]
    problems += [f"bad name {n}" for n in names if not NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    units = [x["unit"] for key in ("end_to_end", "per_layer") for x in m[key]]
    problems += [f"bad unit {u}" for u in units if not UNIT.match(u)]
    setup = [e for e in m["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(e["bound"] for e in m["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if MANIFEST.stat().st_size > 64 * 1024:
        problems.append("manifest over 64 KiB")
    return problems


def bench_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: bad result {proc.stdout[-800:]} {proc.stderr[-800:]}")
    return result


def check_counts(seed, seconds):
    import tracing

    problems = []
    for workload in load_manifest_workloads():
        runs = [bench_run(workload, seed, seconds, 1)["metrics"] for _ in range(2)]
        for name in tracing.EXACT_COUNTS:
            a, b = (r[name]["value"] for r in runs)
            if a != b:
                problems.append(f"{workload} {name}: {a} then {b}")
        print(f"{workload}: {len(tracing.EXACT_COUNTS)} counts compared", flush=True)
    return problems


def load_manifest_workloads():
    return [w["name"] for w in load_manifest()["workloads"]]


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, med


def check_spread(args):
    m = load_manifest()
    seconds = args.seconds or m["run_seconds"]
    workloads = args.workloads or load_manifest_workloads()
    summary = {"seconds": seconds, "sets": []}
    problems = []
    for s in range(args.sets):
        seeds = list(range(args.first_seed + s * args.seeds, args.first_seed + (s + 1) * args.seeds))
        values = {}
        for workload in workloads:
            for seed in seeds:
                result = bench_run(workload, seed, seconds, 0)
                for name, metric in result["metrics"].items():
                    values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
                print(f"set {s + 1} {workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary["sets"].append({"seeds": seeds, "values": values})
    for e in m["end_to_end"]:
        name, bound = e["name"], e["bound"]
        for workload in workloads:
            line = [f"{workload:9s} {name:12s} bound {bound:.2f}"]
            medians = []
            for s, data in enumerate(summary["sets"]):
                spread, med = quartile_spread(data["values"][workload][name])
                medians.append(med)
                # a spread within a third of the bound leaves room for the run-to-run noise
                line.append(f"set{s + 1} median {med:.5g} spread {spread:.3f}"
                            + (" (over bound/3)" if spread > bound / 3 else ""))
                if name != "setup_s" and spread > bound:
                    problems.append(f"{workload} {name} set {s + 1} spread {spread:.3f} > bound")
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if e["better"] == "higher":
                    worse = -worse
                line.append(f"second worse by {worse:+.3f}")
                if worse > bound:
                    problems.append(f"{workload} {name} second median worse by {worse:.3f}")
            print("  ".join(line))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return problems


def record_references(seed_range):
    lo, _, hi = seed_range.partition("-")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    refs = json.loads(workloads.REFERENCES.read_text()) if workloads.REFERENCES.is_file() else {}
    for seed in range(int(lo), int(hi or lo) + 1):
        ens = workloads.Ensemble(seed)
        for call in ens.calls(0):
            call.check(call.run())
        refs.setdefault("ensemble", {})[str(seed)] = ens.means
        print(f"seed {seed}: ensemble means {ens.means}", flush=True)
        workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return []


def write_baseline(spread_path, traced_path):
    import tracing

    m = load_manifest()
    spread = json.loads(Path(spread_path).read_text())
    traced = json.loads(Path(traced_path).read_text())
    end_to_end = {}
    for workload in spread["sets"][0]["values"]:
        for e in m["end_to_end"]:
            sets = []
            for data in spread["sets"]:
                q1, med, q3 = statistics.quantiles(data["values"][workload][e["name"]], n=4)
                sets.append({"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med})
            end_to_end.setdefault(workload, {})[e["name"]] = {
                "unit": e["unit"], "bound": e["bound"], "sets": sets}
    per_layer = {
        key.removesuffix("-trace1"): result["metrics"]
        for key, result in traced["results"].items() if key.endswith("-trace1")
    }
    baseline = {
        "environment": traced["environment"],
        "run_seconds": spread["seconds"],
        "seeds": [seed for data in spread["sets"] for seed in data["seeds"]],
        "end_to_end": end_to_end,
        "per_layer_seed": traced["environment"]["seed"],
        "per_layer": per_layer,
        "layer_map": {name: {"moves": moves, "on": on, "computed": computed}
                      for name, _, _, moves, on, computed in tracing.PER_LAYER},
    }
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("manifest", "counts", "spread", "baseline", "references"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seeds", default="10", help="seed count, or a range lo-hi for references")
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    parser.add_argument("--spread", default=str(BENCH / "out" / "spread.json"))
    parser.add_argument("--traced", default=str(BENCH / "out" / "all-seed7.json"))
    args = parser.parse_args()
    if args.mode == "manifest":
        problems = check_manifest()
    elif args.mode == "counts":
        problems = check_manifest() + check_counts(args.seed, args.seconds or 5)
    elif args.mode == "spread":
        args.seeds = int(args.seeds)
        problems = check_spread(args)
    elif args.mode == "baseline":
        problems = write_baseline(args.spread, args.traced)
    else:
        problems = record_references(args.seeds)
    for p in problems:
        print(f"FAIL {p}")
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
