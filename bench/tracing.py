"""Span recording for the traced benchmark run, and the per-layer metrics.

The traced run replaces the function bindings that each consumer module
imported (``power_games.water_fill`` is the binding the IW loop calls,
``cli.load_scenario`` the one the command line calls) with recorders and
restores them afterwards; no package file changes.  A binding that no
longer exists is reported as missing rather than failing the run.

Spans are kept in memory as name, start, end and parent, and written out
when the run ends.  A span's self time is its duration minus the time its
direct children cover, so time spent in untraced helpers is charged to the
nearest traced caller.  Counts are taken from return values; the ones
derived from shapes rather than from the package's own results are marked
"computed" in ``PER_LAYER``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import time
import types

# (consumer module, bound name, span name).  The layers are the package
# modules; the oracle span covers the weighted-sum sweeps and the
# dominance margin, which share one exhaustive joint-grid kernel.
BINDINGS = [
    ("power_games", "water_fill", "spectrum.water_fill"),
    ("cli", "water_fill", "spectrum.water_fill"),
    ("experiments", "generate_multipath_channels", "spectrum.generate_multipath_channels"),
    ("scenario", "generate_multipath_channels", "spectrum.generate_multipath_channels"),
    ("power_games", "iterative_water_filling", "power_games.iterative_water_filling"),
    ("experiments", "iterative_water_filling", "power_games.iterative_water_filling"),
    ("cli", "iterative_water_filling", "power_games.iterative_water_filling"),
    ("power_games", "follower_response_rates", "power_games.follower_response_rates"),
    ("power_games", "stackelberg_leader_search", "power_games.stackelberg_leader_search"),
    ("experiments", "stackelberg_leader_search", "power_games.stackelberg_leader_search"),
    ("cli", "stackelberg_leader_search", "power_games.stackelberg_leader_search"),
    ("power_games", "_pareto_argmax", "power_games.oracle"),
    ("power_games", "grid_dominance_margin", "power_games.oracle"),
    ("experiments", "channel_ensemble_study", "experiments.channel_ensemble_study"),
    ("cli", "channel_ensemble_study", "experiments.channel_ensemble_study"),
    ("experiments", "region_comparison", "experiments.region_comparison"),
    ("cli", "region_comparison", "experiments.region_comparison"),
    ("matrix_games", "discretize_power_game", "matrix_games.discretize_power_game"),
    ("scenario", "discretize_power_game", "matrix_games.discretize_power_game"),
    ("matrix_games", "optimize_ce", "matrix_games.optimize_ce"),
    ("cli", "optimize_ce", "matrix_games.optimize_ce"),
    ("matrix_games", "is_correlated_equilibrium", "matrix_games.is_correlated_equilibrium"),
    ("cli", "is_correlated_equilibrium", "matrix_games.is_correlated_equilibrium"),
    ("simplex", "solve_lp", "simplex.solve_lp"),
    ("learning", "run_repeated_game", "learning.run_repeated_game"),
    ("cli", "run_repeated_game", "learning.run_repeated_game"),
    ("learning", "empirical_joint_distribution", "learning.empirical_joint_distribution"),
    ("cli", "empirical_joint_distribution", "learning.empirical_joint_distribution"),
    ("cli", "load_scenario", "scenario.load_scenario"),
    ("cli", "main", "cli.main"),
]
ACCESSOR_CLASS = ("scenario", "ScenarioDocument", "scenario.accessors")
LAYERS = ("spectrum", "power_games", "experiments", "matrix_games", "simplex", "learning", "scenario", "cli")
# The learning runs of the cli sweep: contention.json and the owned 8x8 game.
ROUND_LABELS = ("regret_matching-2x2", "regret_matching-8x8")


def _joint_evals(args):
    # budget splits with total at most `levels` over K bins, for each user
    splits = math.comb(args["levels"] + args["grid"].bin_count, args["grid"].bin_count)
    return {"power_games.oracle.joint_evals": splits * splits}


def _rounds(args, trace):
    kinds = "+".join(dict.fromkeys(state.kind for state in args["learners"]))
    shape = "x".join(str(c) for c in trace.action_counts)
    nbytes = trace.actions.nbytes + trace.utilities.nbytes + sum(r.nbytes for r in trace.regrets)
    return {
        "learning.run_repeated_game.rounds": trace.rounds,
        f"round_time.{kinds}-{shape}": trace.rounds,
        "learning.trace_bytes": nbytes,
    }


# span name -> (needs bound arguments, counter(args, result) -> {count: value})
COUNTERS = {
    "spectrum.water_fill": (False, lambda a, r: {"spectrum.water_fill.calls": 1}),
    "power_games.iterative_water_filling": (False, lambda a, r: {
        "power_games.iterative_water_filling.calls": 1,
        "power_games.iterative_water_filling.sweeps": r.iterations,
    }),
    "power_games.follower_response_rates": (False, lambda a, r: {
        "power_games.follower_response_rates.calls": 1}),
    "power_games.stackelberg_leader_search": (False, lambda a, r: {
        "power_games.stackelberg_leader_search.candidates": r.candidates_evaluated}),
    "power_games.oracle": (True, lambda a, r: _joint_evals(a)),
    "experiments.channel_ensemble_study": (False, lambda a, r: {
        "experiments.channel_ensemble_study.skipped": r.skipped}),
    "matrix_games.discretize_power_game": (False, lambda a, r: {
        "matrix_games.discretize_power_game.profiles": math.prod(r.action_counts)}),
    "simplex.solve_lp": (False, lambda a, r: {"simplex.solve_lp.calls": 1}),
    "learning.run_repeated_game": (True, _rounds),
    "scenario.load_scenario": (False, lambda a, r: {"scenario.load_scenario.calls": 1}),
}

# Per-layer metrics: name, unit, better, the end-to-end metrics it should
# move, the workloads it should move them on, and whether it is computed
# from shapes rather than returned by the package.
PER_LAYER = [
    ("spectrum.water_fill.calls", "count", "lower", "ops_per_s", "ensemble (most), frontier", False),
    ("spectrum.water_fill.self_s", "s", "lower", "ops_per_s", "ensemble (most), frontier", False),
    ("spectrum.water_fill.us_per_call", "us", "lower", "ops_per_s", "ensemble (most), frontier", False),
    ("spectrum.generate_multipath_channels.self_s", "s", "lower", "ops_per_s, setup_s", "ensemble, frontier (small)", False),
    ("power_games.iterative_water_filling.calls", "count", "lower", "ops_per_s", "ensemble", False),
    ("power_games.iterative_water_filling.sweeps", "count", "lower", "ops_per_s", "ensemble", False),
    ("power_games.iterative_water_filling.self_s", "s", "lower", "ops_per_s", "ensemble", False),
    ("power_games.follower_response_rates.calls", "count", "lower", "ops_per_s", "frontier (grid), ensemble (descent)", False),
    ("power_games.follower_response_rates.self_s", "s", "lower", "ops_per_s", "frontier (grid), ensemble (descent)", False),
    ("power_games.stackelberg_leader_search.candidates", "count", "lower", "ops_per_s", "ensemble, frontier", False),
    ("power_games.stackelberg_leader_search.self_s", "s", "lower", "ops_per_s", "ensemble, frontier", False),
    ("power_games.oracle.joint_evals", "count", "lower", "ops_per_s, op_p90_ms", "frontier, cli", True),
    ("power_games.oracle.self_s", "s", "lower", "ops_per_s, op_p90_ms", "frontier, cli", False),
    ("experiments.channel_ensemble_study.self_s", "s", "lower", "ops_per_s", "ensemble", False),
    ("experiments.channel_ensemble_study.skipped", "count", "lower", "ops_per_s", "ensemble", False),
    ("experiments.region_comparison.self_s", "s", "lower", "ops_per_s", "frontier", False),
    ("matrix_games.discretize_power_game.profiles", "count", "lower", "op_p50_ms", "cli", False),
    ("matrix_games.discretize_power_game.self_s", "s", "lower", "op_p50_ms", "cli", False),
    ("matrix_games.optimize_ce.self_s", "s", "lower", "op_p50_ms", "cli", False),
    ("matrix_games.is_correlated_equilibrium.self_s", "s", "lower", "op_p50_ms", "cli", False),
    ("simplex.solve_lp.calls", "count", "lower", "op_p50_ms (small)", "cli", False),
    ("simplex.solve_lp.self_s", "s", "lower", "op_p50_ms (small)", "cli", False),
    ("learning.run_repeated_game.rounds", "count", "higher", "ops_per_s, op_p90_ms", "cli", False),
    *[
        (f"learning.run_repeated_game.us_per_round.{label}", "us", "lower", "ops_per_s, op_p90_ms", "cli", False)
        for label in ROUND_LABELS
    ],
    ("learning.trace_bytes", "B", "lower", "peak_rss_mb", "cli", True),
    ("learning.empirical_joint_distribution.self_s", "s", "lower", "ops_per_s", "cli", False),
    ("scenario.load_scenario.calls", "count", "lower", "op_p50_ms, setup_s", "cli", False),
    ("scenario.load_scenario.self_s", "s", "lower", "op_p50_ms, setup_s", "cli", False),
    ("scenario.accessors.self_s", "s", "lower", "op_p50_ms, setup_s", "cli", False),
    ("cli.main.self_s", "s", "lower", "op_p50_ms, op_p90_ms", "cli", False),
    ("cli.out_bytes", "B", "lower", "op_p50_ms, op_p90_ms", "cli", True),
    *[(f"{layer}.self_s", "s", "lower", "ops_per_s", "where the layer runs", False) for layer in LAYERS],
    ("bench.trace_overhead_s", "s", "lower", "none", "every workload", False),
]

# Counts that must repeat exactly from one run to the next with the same seed.
EXACT_COUNTS = [name for name, unit, *_ in PER_LAYER if unit in ("count", "B")]


class Tracer:
    """In-memory span recorder that owns the patched bindings.

    The recorders are built once, against the functions bound when the
    tracer is created; ``install`` and ``uninstall`` only swap them in and
    out.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.events = []  # (span index or -1, count name, value)
        self.sections = []  # (label, first span, end span, first event, end event)
        self.missing = []
        self._stack = []
        self._open = None
        self._patches = []  # (owner, attribute, original, recorder)
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(f"specgames.{module_name}")
            if hasattr(module, attr):
                self._patch(module, attr, span)
            else:
                self.missing.append(f"{module_name}.{attr}")
        module_name, cls_name, span = ACCESSOR_CLASS
        cls = getattr(importlib.import_module(f"specgames.{module_name}"), cls_name, None)
        if cls is None:
            self.missing.append(f"{module_name}.{cls_name}")
            return
        for attr, value in list(vars(cls).items()):
            if isinstance(value, types.FunctionType) and not attr.startswith("_"):
                self._patch(cls, attr, span)

    def _patch(self, owner, attr, span):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self._recorder(span, original)))

    def _recorder(self, span, fn):
        needs_args, counter = COUNTERS.get(span, (False, None))
        signature = inspect.signature(fn) if needs_args else None
        names, starts, ends, parents, stack, events = (
            self.names, self.starts, self.ends, self.parents, self._stack, self.events)
        clock = time.perf_counter

        def record(*args, **kwargs):
            idx = len(starts)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                bound = None
                if needs_args:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    bound = bound.arguments
                for key, value in counter(bound, result).items():
                    events.append((idx, key, value))
            return result

        return record

    def install(self):
        for owner, attr, _, recorder in self._patches:
            setattr(owner, attr, recorder)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- sections and counts -------------------------------------------------

    def begin(self, label):
        self._open = (label, len(self.starts), len(self.events))

    def end(self):
        label, span0, event0 = self._open
        self.sections.append((label, span0, len(self.starts), event0, len(self.events)))
        self._open = None

    def add(self, counts):
        for key, value in counts.items():
            self.events.append((-1, key, value))

    def section_totals(self, section):
        """Self time per span name, summed counts and per-label round time in one section."""
        _, s0, s1, e0, e1 = section
        child = [0.0] * (s1 - s0)
        for i in range(s0, s1):
            parent = self.parents[i]
            if parent >= s0:
                child[parent - s0] += self.ends[i] - self.starts[i]
        self_s = {}
        for i in range(s0, s1):
            name = self.names[i]
            self_s[name] = self_s.get(name, 0.0) + self.ends[i] - self.starts[i] - child[i - s0]
        counts, round_time = {}, {}
        for idx, key, value in self.events[e0:e1]:
            counts[key] = counts.get(key, 0) + value
            if key.startswith("round_time."):
                round_time[key] = round_time.get(key, 0.0) + self.ends[idx] - self.starts[idx]
        return self_s, counts, round_time

    def dump(self, path):
        """Write every span and section as JSON."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        doc = {
            "names": table,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [index[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "sections": [list(s) for s in self.sections],
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer, setup_section, pass_sections, overhead_s):
    """Per-layer values for one traced set-up plus one traced pass.

    Counts come from the set-up and the first traced pass, which a seed
    fixes exactly; times are the set-up's plus the median over traced
    passes.  Times per call and per round are ratios over every traced
    section.
    """
    setup = tracer.section_totals(setup_section)
    passes = [tracer.section_totals(s) for s in pass_sections]
    sections = [setup] + passes

    def per_unit(time_index, time_key, count_key):
        units = sum(s[1].get(count_key, 0) for s in sections)
        return 1e6 * sum(s[time_index].get(time_key, 0.0) for s in sections) / units if units else 0.0

    def self_time(name):
        per_pass = [p[0].get(name, 0.0) for p in passes]
        return setup[0].get(name, 0.0) + statistics.median(per_pass)

    def count(name):
        return setup[1].get(name, 0) + passes[0][1].get(name, 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name in set(setup[0]).union(*(p[0] for p in passes)):
        layer_self[name.split(".")[0]] += self_time(name)

    values = {}
    for name, unit, *_ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name == "bench.trace_overhead_s":
            values[name] = overhead_s
        elif ".us_per_round." in name:
            values[name] = per_unit(2, "round_time." + field, "round_time." + field)
        elif field == "us_per_call":
            values[name] = per_unit(0, base, base + ".calls")
        elif field == "self_s" and base in layer_self:
            values[name] = layer_self[base]
        elif field == "self_s":
            values[name] = self_time(base)
        else:
            values[name] = count(name)
    return {name: (values[name], unit) for name, unit, *_ in PER_LAYER}
