"""Command-line front end: scenario files in, CSV/JSON records out.

Every subcommand reads one scenario document (--config), takes all of its
randomness from a single --seed, and writes its records under --out with
stable headers, so identical invocations produce byte-identical files.
Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure.
Non-convergence of the iterative dynamics is reported as data, not as a
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import types
from pathlib import Path

import numpy as np

from .errors import DegenerateGameError, ScenarioError, SpectrumGameError
from .experiments import channel_ensemble_study, region_comparison, value_of_knowledge
from .learning import empirical_joint_distribution, run_repeated_game, value_of_learning
from .matrix_games import (
    is_correlated_equilibrium,
    mixed_nash_2x2,
    optimize_ce,
    pure_nash,
    stackelberg_finite,
    strictly_dominant_action,
)
from .power_games import iterative_water_filling, pareto_sweep, stackelberg_leader_search
from .scenario import load_scenario
from .spectrum import PowerAllocation, achievable_rate, water_fill

PROFILE_TOKENS = {
    "priv": "private",
    "private": "private",
    "heter": "heterogeneous_leader",
    "heterogeneous_leader": "heterogeneous_leader",
    "comp": "complete",
    "complete": "complete",
}


def _fmt(value) -> str:
    return repr(float(value))


_SCALARS = frozenset((int, float, str))
_BLOCK = 256  # records encoded and written at a time
# The C encoder runs only without `indent`.  These separators give a flat
# record the body that `json.dump(..., indent=2)` writes; `_emit` encodes
# each record alone and sets it in its own brackets.
_JSON = json.JSONEncoder(separators=(",\n    ", ": "), sort_keys=True)


def _blocks(header, rows):
    """The rows in blocks of `_BLOCK`, each checked to hold only int, float and str."""
    for start in range(0, len(rows), _BLOCK):
        block = rows[start:start + _BLOCK]
        for name, column in zip(header, zip(*block)):
            types = set(map(type, column))
            if not types <= _SCALARS:
                bad = ", ".join(sorted(t.__name__ for t in types - _SCALARS))
                raise TypeError(f"column {name!r} holds {bad}, not int, float or str")
        yield block


def _record_texts(text_of, header, rows, codes):
    """The record texts of a table (see `_emit`), `_BLOCK` records to a string.

    A factored table formats each distinct record once, as
    `text_of((0, *record))`.  That text and `text_of((1, *record))` differ
    only in the digit of t, so row t's text is the first with that digit
    replaced by `str(t)`.
    """
    if codes is None:
        for block in _blocks(header, rows):
            yield "".join(map(text_of, block))
        return
    pre, post = [], []
    for block in _blocks(header[1:], rows):
        for record in block:
            zero, one = text_of((0, *record)), text_of((1, *record))
            at = next(i for i, (a, b) in enumerate(zip(zero, one)) if a != b)
            pre.append(zero[:at])
            post.append(zero[at + 1:])
    for start in range(0, len(codes), _BLOCK):
        yield "".join([f"{pre[c]}{t}{post[c]}" for t, c in enumerate(codes[start:start + _BLOCK], start)])


def _emit(out_dir: Path, base: str, fmt: str, header, rows, codes=None) -> Path:
    """Write one record table as CSV or JSON with deterministic formatting.

    `header` names at least one column and `rows` is a sequence of records
    whose values are plain int, float or str; any other type raises
    `TypeError`.  Every record is encoded alone, by one formatter per
    format: a CSV line, or a JSON object led by ",\n  {\n    ".  The texts
    are written `_BLOCK` records at a time, so the table is never held as
    one string, and `_emit` adds only the CSV header or the JSON brackets.

    With `codes`, the table is factored: `rows` holds the distinct records
    of the columns after the first, and row t of the table is
    `(t, *rows[codes[t]])`.  Each distinct record is formatted once, by the
    same formatter, and row t's text is its record's text around `str(t)`,
    so the bytes equal those of the unfactored table.

    An existing file is overwritten in place and then cut at the end of
    what was written, also when a writer raises part-way, so it ends up
    with the bytes the same call leaves in a fresh directory.  Opening
    with `O_TRUNC` instead would free the old file's blocks first, which
    costs more than the rewrite on ext4.
    """
    if fmt == "csv":
        # `writerow` returns what `write` returns: with `str` as the write, the line
        text_of = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow
    else:
        def text_of(row):
            return ",\n  {\n    " + _JSON.encode(dict(zip(header, row)))[1:-1] + "\n  }"
    texts = _record_texts(text_of, header, rows, codes)
    path = out_dir / f"{base}.{fmt}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8", newline="") as fh:
            try:
                if fmt == "csv":
                    fh.write(text_of(header))
                    fh.writelines(texts)
                elif (first := next(texts, None)) is None:
                    fh.write("[]\n")
                else:
                    fh.write("[" + first[1:])  # no comma before the first record
                    fh.writelines(texts)
                    fh.write("\n]\n")
            finally:
                fh.flush()
                # a FIFO or a device reports size 0, so it is never cut and
                # never asked for `tell()`, which a FIFO cannot answer
                size = os.fstat(fh.fileno()).st_size
                if size and size > fh.tell():
                    fh.truncate()
    except OSError as exc:
        raise ScenarioError("--out", f"cannot write {exc.filename}: {exc.strerror}") from exc
    return path


# Each `_cmd_*` takes the document and the parsed flags and returns its
# tables, each `(record, header, rows[, codes])` as `_emit` takes them, and
# its stdout lines.  `main` writes the tables in order, then prints the lines.

def _allocation_table(psd):
    """The per-bin table `bin, psd_1..psd_N` of a joint allocation psd[n, k]."""
    header = ("bin",) + tuple(f"psd_{n + 1}" for n in range(len(psd)))
    return "allocation", header, [(k, *column) for k, column in enumerate(np.transpose(psd).tolist())]


def _region_table(samples):
    """The region table `method, param1, param2, R_1, R_2` of rate-region samples."""
    rows = [(s.method, s.params[0], s.params[1], float(s.rates[0]), float(s.rates[1])) for s in samples]
    return "region", ("method", "param1", "param2", "R_1", "R_2"), rows


def _distribution_table(game, dist):
    flat = dist.probs.reshape(-1)
    rows = [(game.label(profile), float(flat[i])) for i, profile in enumerate(game.profiles())]
    return "distribution", ("profile", "prob"), rows


def _cmd_waterfill(doc, args):
    scen = doc.power_scenario()
    user = args.user - 1
    if not 0 <= user < scen.user_count:
        raise ScenarioError("--user", f"user must be in 1..{scen.user_count}")
    row = water_fill(
        scen.channels.gain2[user, user],
        scen.noise.psd[user],
        scen.budgets.budget[user],
        scen.grid,
    )
    psd = np.zeros((scen.user_count, scen.grid.bin_count))
    psd[user] = row  # the other users stay silent
    rate = achievable_rate(user, PowerAllocation(psd), scen.channels, scen.noise, scen.grid)
    rows = [(k, float(row[k])) for k in range(scen.grid.bin_count)]
    return [("allocation", ("bin", "psd"), rows)], [f"user {args.user} single-user rate {_fmt(rate)}"]


def _cmd_iw(doc, args):
    scen = doc.power_scenario()
    res = iterative_water_filling(scen.channels, scen.noise, scen.budgets, scen.grid)
    return [_allocation_table(res.allocation.psd)], [
        f"converged={res.converged} iterations={res.iterations} residual={_fmt(res.residual)}",
        f"rates: {', '.join(map(_fmt, res.rates))}",
    ]


def _cmd_stackelberg(doc, args):
    scen = doc.power_scenario()
    doc._require_two_users("stackelberg")
    if args.leader not in (1, 2):
        raise ScenarioError("--leader", "leader must be in 1..2")
    if args.levels < 2:
        raise ScenarioError("--levels", "must be at least 2")
    res = stackelberg_leader_search(
        args.leader - 1, scen.channels, scen.noise, scen.budgets, scen.grid, levels=args.levels
    )
    psd = np.zeros((2, scen.grid.bin_count))
    psd[res.leader] = res.leader_allocation
    psd[1 - res.leader] = res.follower_allocation
    return [_allocation_table(psd)], [
        f"leader={args.leader} rates=({_fmt(res.rates[0])}, {_fmt(res.rates[1])}) "
        f"candidates={res.candidates_evaluated}"
    ]


def _cmd_pareto(doc, args):
    scen = doc.power_scenario()
    doc._require_two_users("pareto")
    _, weights, levels = doc.sweep()
    samples = pareto_sweep(weights, scen.channels, scen.noise, scen.budgets, scen.grid, levels=levels)
    return [_region_table(samples)], [
        f"weights={s.params} rates=({_fmt(s.rates[0])}, {_fmt(s.rates[1])})" for s in samples
    ]


def _cmd_region(doc, args):
    scen = doc.power_scenario()
    doc._require_two_users("region")
    budget_pairs, weights, levels = doc.sweep()
    if levels < 2:
        raise ScenarioError("sweeps.levels", "region's leader search needs at least 2 levels")
    table = region_comparison(scen, budget_pairs, weights, levels=levels)
    return [_region_table(table)], [f"{len(table)} region samples written"]


def _cmd_matrix_solve(doc, args):
    doc._require_two_users("matrix solve")
    game = doc.finite_game()
    rows, lines = [], []
    nash_profiles = pure_nash(game)
    nash_text = ", ".join(f"({game.label(p).replace('/', ', ')})" for p in nash_profiles)
    lines.append(f"pure NE: {nash_text if nash_profiles else 'none'}")
    for p in nash_profiles:
        values = game.payoff_vector(p)
        rows.append(("pure_nash", game.label(p), float(values[0]), float(values[1])))
    for player in range(game.player_count):
        action = strictly_dominant_action(game, player)
        label = "none" if action is None else game.action_labels[player][action]
        lines.append(f"dominant action player {player + 1}: {label}")
        rows.append((f"dominant_{player + 1}", label, "", ""))
    try:
        s1, s2, utilities = mixed_nash_2x2(game)
        lines.append(
            f"mixed NE: p1={_fmt(s1.probs[0])} p2={_fmt(s2.probs[0])} "
            f"value=({_fmt(utilities[0])}, {_fmt(utilities[1])})"
        )
        rows.append(("mixed_nash", f"{_fmt(s1.probs[0])}/{_fmt(s2.probs[0])}",
                     float(utilities[0]), float(utilities[1])))
    except (DegenerateGameError, ValueError):
        lines.append("mixed NE: none (degenerate)")
        rows.append(("mixed_nash", "none", "", ""))
    for leader in range(2):
        profile, utilities = stackelberg_finite(game, leader)
        lines.append(
            f"stackelberg leader {leader + 1}: ({game.label(profile).replace('/', ', ')}) "
            f"value=({_fmt(utilities[0])}, {_fmt(utilities[1])})"
        )
        rows.append((f"stackelberg_{leader + 1}", game.label(profile),
                     float(utilities[0]), float(utilities[1])))
    return [("solution", ("record", "detail", "value_1", "value_2"), rows)], lines


def _cmd_ce_check(doc, args):
    if not 0 <= args.tol < math.inf:
        raise ScenarioError("--tol", "must be finite and nonnegative")
    game = doc.finite_game()
    dist = doc.ce_distribution(game)
    ok, violation = is_correlated_equilibrium(game, dist, tol=args.tol)
    values = [float(v) for v in dist.expected_utilities(game)]
    header = ("record", "detail") + tuple(f"value_{p + 1}" for p in range(game.player_count))
    rows = [("ce_check", "pass" if ok else "fail", float(violation)) + ("",) * (len(values) - 1),
            ("ce_values", "", *values)]
    return [("solution", header, rows)], [
        f"correlated equilibrium: {ok} (max violation {_fmt(violation)})",
        f"expected utilities: ({', '.join(_fmt(v) for v in values)})",
    ]


def _cmd_ce_optimize(doc, args):
    game = doc.finite_game()
    dist, value = optimize_ce(game, doc.ce_weights())
    return [_distribution_table(game, dist)], [f"optimal CE value {_fmt(value)}"]


def _cmd_ce(doc, args):
    return (_cmd_ce_check if args.mode == "check" else _cmd_ce_optimize)(doc, args)


def _trace_table(trace):
    """The trace table `t, action_1..N, u_1..N` as `_emit`'s factored table.

    A round's record after `t` is its joint action and that profile's
    payoffs, so the table is the header, one record per profile played (in
    profile order) and each round's index into those records.
    """
    game = trace.game
    n = game.player_count
    header = ("t",) + tuple(f"action_{p + 1}" for p in range(n)) + tuple(f"u_{p + 1}" for p in range(n))
    played, codes = np.unique(np.ravel_multi_index(trace.actions.T, game.action_counts), return_inverse=True)
    profiles = np.unravel_index(played, game.action_counts)
    records = [(*a, *u) for a, u in zip(np.transpose(profiles).tolist(), game.payoffs[profiles].tolist())]
    return "trace", header, records, codes.tolist()


def _cmd_learn(doc, args):
    """Run the repeated game; return its per-round trace and empirical joint distribution.

    The trace table is factored (`_trace_table`): `_emit` formats each
    profile's record once however many rounds play it, with the bytes of
    one record per round.
    """
    if args.rounds is not None and args.rounds < 1:
        raise ScenarioError("--rounds", "must be at least 1")
    game = doc.finite_game()
    learners = doc.learners(game)
    rounds = args.rounds if args.rounds is not None else doc.rounds()
    trace = run_repeated_game(game, learners, rounds, args.seed)
    tables = [_trace_table(trace), _distribution_table(game, empirical_joint_distribution(trace))]
    averages = value_of_learning(trace, (0, trace.rounds))
    return tables, ["time-average utilities: " + ", ".join(map(_fmt, averages))]


def _cmd_vok(doc, args):
    levels = None
    if args.profile is not None:
        tokens = [t.strip() for t in args.profile.split(",")]
        try:
            levels = [PROFILE_TOKENS[t] for t in tokens]
        except KeyError as exc:
            raise ScenarioError("--profile", f"unknown knowledge token {exc.args[0]!r}")
    scenario, profile, start = doc.vok_inputs(levels)
    utilities = value_of_knowledge(scenario, profile, start_profile=start)
    rows = [(n + 1, profile.levels[n], float(u)) for n, u in enumerate(utilities)]
    return [("solution", ("user", "knowledge", "utility"), rows)], [
        "utilities: (" + ", ".join(map(_fmt, utilities)) + ")"
    ]


def _cmd_ensemble(doc, args):
    report = channel_ensemble_study(seed=args.seed, **doc.ensemble_inputs(args.realizations))
    rows = [
        (i, float(report.ratios[i, 0]), float(report.ratios[i, 1]))
        for i in range(report.realizations)
    ]
    rows.append(("mean", float(report.means[0]), float(report.means[1])))
    return [("ensemble", ("realization", "ratio_1", "ratio_2"), rows)], [
        f"realizations={report.realizations} skipped={report.skipped} "
        f"mean ratios=({_fmt(report.means[0])}, {_fmt(report.means[1])})"
    ]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario document (JSON)")
    common.add_argument("--seed", type=int, default=None, help="master seed; overrides the config")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(prog="specgames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run)  # what `main` calls
        return p

    p = command("waterfill", _cmd_waterfill, "single-user water-filling")
    p.add_argument("--user", type=int, default=1, help="1-based user index")
    command("iw", _cmd_iw, "iterative water-filling equilibrium")
    p = command("stackelberg", _cmd_stackelberg, "leader-commitment search")
    p.add_argument("--leader", type=int, default=1, help="1-based leader index")
    p.add_argument("--levels", type=int, default=10)
    command("pareto", _cmd_pareto, "weighted rate-sum oracle points")
    command("region", _cmd_region, "joined rate-region table")
    p = command("matrix", _cmd_matrix_solve, "finite-game analysis")
    p.add_argument("mode", choices=("solve",))
    p = command("ce", _cmd_ce, "correlated equilibrium tools")
    p.add_argument("mode", choices=("check", "optimize"))
    p.add_argument("--tol", type=float, default=1e-9)
    p = command("learn", _cmd_learn, "repeated-game learning run")
    p.add_argument("--rounds", type=int, default=None)
    p = command("vok", _cmd_vok, "value of a knowledge profile")
    p.add_argument("--profile", default=None, help="comma list: priv|heter|comp per user")
    p = command("ensemble", _cmd_ensemble, "random-channel leadership study")
    p.add_argument("--realizations", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the validation exit code
        return 0 if exc.code in (0, None) else 1
    try:
        try:
            doc = load_scenario(args.config)
        except OSError as exc:
            raise ScenarioError("--config", f"cannot read {args.config}: {exc.strerror}") from exc
        if args.seed is None:
            args.seed = doc.seed()
        if args.seed < 0:
            raise ScenarioError("--seed", "seed must be nonnegative")
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioError("--out", f"cannot write {exc.filename}: {exc.strerror}") from exc
        tables, lines = args.run(doc, args)
        for record, *table in tables:
            _emit(out_dir, doc.output_base(record), args.format, *table)
        for line in lines:
            print(line)
        return 0
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SpectrumGameError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
