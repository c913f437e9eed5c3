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
import sys
import types
from pathlib import Path

import numpy as np

from .errors import DegenerateGameError, ScenarioError, SpectrumGameError
from .experiments import channel_ensemble_study, region_comparison, value_of_knowledge
from .learning import empirical_joint_distribution, run_repeated_game, value_of_learning
from .matrix_games import (
    is_correlated_equilibrium,
    JointDistribution,
    mixed_nash_2x2,
    optimize_ce,
    pure_nash,
    stackelberg_finite,
    strictly_dominant_action,
)
from .power_games import iterative_water_filling, pareto_sweep, stackelberg_leader_search
from .scenario import load_scenario
from .spectrum import _rate_raw, water_fill

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
# record the body that `json.dump(..., indent=2)` writes; `_write_json`
# rewrites the joins and brackets between records.
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


def _coded_blocks(text_of, header, rows, codes):
    """The row texts of a factored table (see `_emit`), `_BLOCK` rows to a string.

    Each distinct record is formatted once, as `text_of((0, *record))`.
    That text and `text_of((1, *record))` differ only in the digit of t, so
    row t's text is the first with that digit replaced by `str(t)`.
    """
    pre, post = [], []
    for block in _blocks(header[1:], rows):
        for record in block:
            zero, one = text_of((0, *record)), text_of((1, *record))
            at = next(i for i, (a, b) in enumerate(zip(zero, one)) if a != b)
            pre.append(zero[:at])
            post.append(zero[at + 1:])
    for start in range(0, len(codes), _BLOCK):
        yield "".join([f"{pre[c]}{t}{post[c]}" for t, c in enumerate(codes[start:start + _BLOCK], start)])


def _write_csv(fh, header, rows, codes=None):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    if codes is None:
        for block in _blocks(header, rows):
            writer.writerows(block)
        return
    # `writerow` returns what `write` returns: with `str` as the write, the line
    line = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow
    for text in _coded_blocks(line, header, rows, codes):
        fh.write(text)


def _json_blocks(header, rows):
    """The records as text blocks, each record led by ",\n  {\n    "."""
    for block in _blocks(header, rows):
        text = _JSON.encode([dict(zip(header, row)) for row in block])
        # an encoded string escapes its newlines, so "},\n    {" can only
        # be the join between two records
        yield ",\n  {\n    " + text[2:-2].replace("},\n    {", "\n  },\n  {\n    ") + "\n  }"


def _write_json(fh, header, rows, codes=None):
    if codes is None:
        texts = _json_blocks(header, rows)
    else:
        texts = _coded_blocks(
            lambda row: ",\n  {\n    " + _JSON.encode(dict(zip(header, row)))[1:-1] + "\n  }", header, rows, codes
        )
    first = next(texts, None)
    if first is None:
        fh.write("[]\n")
        return
    fh.write("[" + first[1:])  # no comma before the first record
    for text in texts:
        fh.write(text)
    fh.write("\n]\n")


def _emit(out_dir: Path, base: str, fmt: str, header, rows, codes=None) -> Path:
    """Write one record table as CSV or JSON with deterministic formatting.

    `header` names at least one column and `rows` is a sequence of records
    whose values are plain int, float or str; any other type raises
    `TypeError`.  Records are encoded and written in blocks, so the table
    is never held as one string.

    With `codes`, the table is factored: `rows` holds the distinct records
    of the columns after the first, and row t of the table is
    `(t, *rows[codes[t]])`.  Each distinct record is formatted once, by the
    same writers, and row t's text is its record's text around `str(t)`,
    so the bytes equal those of the unfactored table.
    """
    path = out_dir / f"{base}.{fmt}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            (_write_csv if fmt == "csv" else _write_json)(fh, header, rows, codes)
    except OSError as exc:
        raise ScenarioError("--out", f"cannot write {exc.filename}: {exc.strerror}") from exc
    return path


def _require_two_users(doc, command, path=None):
    """Reject a document that does not have exactly two users, before any output."""
    users = doc.user_count()
    if users != 2:
        path = path or ("budgets" if doc.kind == "power_game" else "actions")
        raise ScenarioError(path, f"{command} needs exactly two users, not {users}")


def _region_rows(samples):
    return [
        (s.method, s.params[0], s.params[1], float(s.rates[0]), float(s.rates[1]))
        for s in samples
    ]


def _distribution_rows(game, dist: JointDistribution):
    flat = dist.probs.reshape(-1)
    return [
        (game.label(profile), float(flat[i]))
        for i, profile in enumerate(game.profiles())
    ]


def _cmd_waterfill(doc, args, out_dir):
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
    rate = _rate_raw(user, psd, scen.channels.gain2, scen.noise.psd, scen.grid.bin_width)
    rows = [(k, float(row[k])) for k in range(scen.grid.bin_count)]
    _emit(out_dir, doc.output_base("allocation"), args.format, ("bin", "psd"), rows)
    print(f"user {args.user} single-user rate {_fmt(rate)}")
    return 0


def _cmd_iw(doc, args, out_dir):
    scen = doc.power_scenario()
    res = iterative_water_filling(scen.channels, scen.noise, scen.budgets, scen.grid)
    header = ("bin",) + tuple(f"psd_{n + 1}" for n in range(scen.user_count))
    rows = [
        (k,) + tuple(float(res.allocation.psd[n, k]) for n in range(scen.user_count))
        for k in range(scen.grid.bin_count)
    ]
    _emit(out_dir, doc.output_base("allocation"), args.format, header, rows)
    rates = ", ".join(map(_fmt, res.rates))
    print(f"converged={res.converged} iterations={res.iterations} residual={_fmt(res.residual)}")
    print(f"rates: {rates}")
    return 0


def _cmd_stackelberg(doc, args, out_dir):
    scen = doc.power_scenario()
    _require_two_users(doc, "stackelberg")
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
    header = ("bin", "psd_1", "psd_2")
    rows = [(k, float(psd[0, k]), float(psd[1, k])) for k in range(scen.grid.bin_count)]
    _emit(out_dir, doc.output_base("allocation"), args.format, header, rows)
    print(
        f"leader={args.leader} rates=({_fmt(res.rates[0])}, {_fmt(res.rates[1])}) "
        f"candidates={res.candidates_evaluated}"
    )
    return 0


def _cmd_pareto(doc, args, out_dir):
    scen = doc.power_scenario()
    _require_two_users(doc, "pareto")
    sweeps = doc.sweeps()
    weights = sweeps.get("weights", [[1.0, 1.0]])
    levels = sweeps.get("levels", 10)
    samples = pareto_sweep(weights, scen.channels, scen.noise, scen.budgets, scen.grid, levels=levels)
    _emit(
        out_dir, doc.output_base("region"), args.format,
        ("method", "param1", "param2", "R_1", "R_2"), _region_rows(samples),
    )
    for s in samples:
        print(f"weights={s.params} rates=({_fmt(s.rates[0])}, {_fmt(s.rates[1])})")
    return 0


def _cmd_region(doc, args, out_dir):
    scen = doc.power_scenario()
    _require_two_users(doc, "region")
    sweeps = doc.sweeps()
    budget_pairs = sweeps.get("budget_pairs", [list(scen.budgets.budget)])
    weights = sweeps.get("weights", [[1.0, 1.0]])
    levels = sweeps.get("levels", 10)
    if levels < 2:
        raise ScenarioError("sweeps.levels", "region's leader search needs at least 2 levels")
    table = region_comparison(scen, budget_pairs, weights, levels=levels)
    _emit(
        out_dir, doc.output_base("region"), args.format,
        ("method", "param1", "param2", "R_1", "R_2"), _region_rows(table),
    )
    print(f"{len(table)} region samples written")
    return 0


def _cmd_matrix_solve(doc, args, out_dir):
    _require_two_users(doc, "matrix solve")
    game = doc.finite_game()
    rows = []
    nash_profiles = pure_nash(game)
    nash_text = ", ".join(f"({game.label(p).replace('/', ', ')})" for p in nash_profiles)
    print(f"pure NE: {nash_text if nash_profiles else 'none'}")
    for p in nash_profiles:
        values = game.payoff_vector(p)
        rows.append(("pure_nash", game.label(p), float(values[0]), float(values[1])))
    for player in range(game.player_count):
        action = strictly_dominant_action(game, player)
        label = "none" if action is None else game.action_labels[player][action]
        print(f"dominant action player {player + 1}: {label}")
        rows.append((f"dominant_{player + 1}", label, "", ""))
    try:
        s1, s2, utilities = mixed_nash_2x2(game)
        print(
            f"mixed NE: p1={_fmt(s1.probs[0])} p2={_fmt(s2.probs[0])} "
            f"value=({_fmt(utilities[0])}, {_fmt(utilities[1])})"
        )
        rows.append(("mixed_nash", f"{_fmt(s1.probs[0])}/{_fmt(s2.probs[0])}",
                     float(utilities[0]), float(utilities[1])))
    except (DegenerateGameError, ValueError):
        print("mixed NE: none (degenerate)")
        rows.append(("mixed_nash", "none", "", ""))
    for leader in range(2):
        profile, utilities = stackelberg_finite(game, leader)
        print(
            f"stackelberg leader {leader + 1}: ({game.label(profile).replace('/', ', ')}) "
            f"value=({_fmt(utilities[0])}, {_fmt(utilities[1])})"
        )
        rows.append((f"stackelberg_{leader + 1}", game.label(profile),
                     float(utilities[0]), float(utilities[1])))
    _emit(out_dir, doc.output_base("solution"), args.format,
          ("record", "detail", "value_1", "value_2"), rows)
    return 0


def _cmd_ce_check(doc, args, out_dir):
    if not 0 <= args.tol < math.inf:
        raise ScenarioError("--tol", "must be finite and nonnegative")
    game = doc.finite_game()
    section = doc.ce_section()
    if "distribution" not in section:
        raise ScenarioError("ce.distribution", "ce check needs a distribution in the config")
    flat = np.asarray(section["distribution"], dtype=float)
    if flat.size != int(np.prod(game.action_counts)):
        raise ScenarioError("ce.distribution", f"expected {int(np.prod(game.action_counts))} entries")
    try:
        dist = JointDistribution.from_flat(flat, game.action_counts)
    except ValueError as exc:
        raise ScenarioError("ce.distribution", str(exc))
    ok, violation = is_correlated_equilibrium(game, dist, tol=args.tol)
    values = [float(v) for v in dist.expected_utilities(game)]
    header = ("record", "detail") + tuple(f"value_{p + 1}" for p in range(game.player_count))
    _emit(out_dir, doc.output_base("solution"), args.format, header,
          [("ce_check", "pass" if ok else "fail", float(violation)) + ("",) * (len(values) - 1),
           ("ce_values", "", *values)])
    print(f"correlated equilibrium: {ok} (max violation {_fmt(violation)})")
    print(f"expected utilities: ({', '.join(_fmt(v) for v in values)})")
    return 0


def _cmd_ce_optimize(doc, args, out_dir):
    game = doc.finite_game()
    weights = doc.ce_section().get("weights")
    dist, value = optimize_ce(game, weights)
    _emit(out_dir, doc.output_base("distribution"), args.format,
          ("profile", "prob"), _distribution_rows(game, dist))
    print(f"optimal CE value {_fmt(value)}")
    return 0


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
    return header, records, codes.tolist()


def _cmd_learn(doc, args, out_dir):
    """Run the repeated game; write its per-round trace and empirical joint distribution.

    The trace goes to `_emit` factored (`_trace_table`): each profile's
    record is formatted once however many rounds play it, with the bytes
    of one record per round.
    """
    if args.rounds is not None and args.rounds < 1:
        raise ScenarioError("--rounds", "must be at least 1")
    game = doc.finite_game()
    learners = doc.learners(game)
    rounds = args.rounds if args.rounds is not None else doc.rounds()
    trace = run_repeated_game(game, learners, rounds, args.seed)
    _emit(out_dir, doc.output_base("trace"), args.format, *_trace_table(trace))
    dist = empirical_joint_distribution(trace)
    _emit(out_dir, doc.output_base("distribution"), args.format,
          ("profile", "prob"), _distribution_rows(game, dist))
    averages = value_of_learning(trace, (0, trace.rounds))
    print("time-average utilities: " + ", ".join(map(_fmt, averages)))
    return 0


def _cmd_vok(doc, args, out_dir):
    if args.profile is not None:
        tokens = [t.strip() for t in args.profile.split(",")]
        try:
            levels = [PROFILE_TOKENS[t] for t in tokens]
        except KeyError as exc:
            raise ScenarioError("--profile", f"unknown knowledge token {exc.args[0]!r}")
        profile = doc.knowledge_profile(levels)
    else:
        profile = doc.knowledge_profile()
    start = doc.start_profile()
    if doc.kind == "matrix_game" or "actions" in doc.raw:
        if profile.leader is not None:
            path = "knowledge" if args.profile is None else "--profile"
            _require_two_users(doc, "vok with a leader", path)
        scenario = doc.finite_game()
        for n, (a, count) in enumerate(zip(start or (), scenario.action_counts)):
            if a >= count:
                raise ScenarioError(f"start_profile[{n}]", f"must be below the player's action count {count}")
    else:
        scenario = doc.power_scenario()
        _require_two_users(doc, "vok on a power game")
    utilities = value_of_knowledge(scenario, profile, start_profile=start)
    rows = [(n + 1, profile.levels[n], float(u)) for n, u in enumerate(utilities)]
    _emit(out_dir, doc.output_base("solution"), args.format, ("user", "knowledge", "utility"), rows)
    print("utilities: (" + ", ".join(map(_fmt, utilities)) + ")")
    return 0


def _cmd_ensemble(doc, args, out_dir):
    scen = doc.power_scenario()
    _require_two_users(doc, "ensemble")
    section = doc.ensemble_section()
    if args.realizations is not None and args.realizations < 1:
        raise ScenarioError("--realizations", "must be at least 1")
    realizations = args.realizations if args.realizations is not None else section.get("realizations")
    if realizations is None:
        raise ScenarioError("ensemble.realizations", "ensemble needs a realization count")
    channels = doc.raw["channels"]
    if "gains" in channels:
        raise ScenarioError("channels.gains", "the ensemble draws its own channels; give seed and taps")
    if isinstance(doc.raw["noise"], list):
        raise ScenarioError("noise", "the ensemble needs one scalar noise level")
    report = channel_ensemble_study(
        int(realizations), args.seed, scen.grid, scen.budgets,
        tap_count=section.get("taps", channels["taps"]),
        noise_level=float(scen.noise.psd[0, 0]),
        direct_power=float(channels.get("direct_power", 1.0)),
        cross_power=float(channels.get("cross_power", 0.5)),
    )
    rows = [
        (i, float(report.ratios[i, 0]), float(report.ratios[i, 1]))
        for i in range(report.realizations)
    ]
    rows.append(("mean", float(report.means[0]), float(report.means[1])))
    _emit(out_dir, doc.output_base("ensemble"), args.format,
          ("realization", "ratio_1", "ratio_2"), rows)
    print(
        f"realizations={report.realizations} skipped={report.skipped} "
        f"mean ratios=({_fmt(report.means[0])}, {_fmt(report.means[1])})"
    )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario document (JSON)")
    common.add_argument("--seed", type=int, default=None, help="master seed; overrides the config")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(prog="specgames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("waterfill", parents=[common], help="single-user water-filling")
    p.add_argument("--user", type=int, default=1, help="1-based user index")
    sub.add_parser("iw", parents=[common], help="iterative water-filling equilibrium")
    p = sub.add_parser("stackelberg", parents=[common], help="leader-commitment search")
    p.add_argument("--leader", type=int, default=1, help="1-based leader index")
    p.add_argument("--levels", type=int, default=10)
    sub.add_parser("pareto", parents=[common], help="weighted rate-sum oracle points")
    sub.add_parser("region", parents=[common], help="joined rate-region table")
    p = sub.add_parser("matrix", parents=[common], help="finite-game analysis")
    p.add_argument("mode", choices=("solve",))
    p = sub.add_parser("ce", parents=[common], help="correlated equilibrium tools")
    p.add_argument("mode", choices=("check", "optimize"))
    p.add_argument("--tol", type=float, default=1e-9)
    p = sub.add_parser("learn", parents=[common], help="repeated-game learning run")
    p.add_argument("--rounds", type=int, default=None)
    p = sub.add_parser("vok", parents=[common], help="value of a knowledge profile")
    p.add_argument("--profile", default=None, help="comma list: priv|heter|comp per user")
    p = sub.add_parser("ensemble", parents=[common], help="random-channel leadership study")
    p.add_argument("--realizations", type=int, default=None)
    return parser


_DISPATCH = {
    "waterfill": _cmd_waterfill,
    "iw": _cmd_iw,
    "stackelberg": _cmd_stackelberg,
    "pareto": _cmd_pareto,
    "region": _cmd_region,
    "learn": _cmd_learn,
    "vok": _cmd_vok,
    "ensemble": _cmd_ensemble,
}


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
            args.seed = doc.seed(default=0)
        if args.seed < 0:
            raise ScenarioError("--seed", "seed must be nonnegative")
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioError("--out", f"cannot write {exc.filename}: {exc.strerror}") from exc
        if args.command == "matrix":
            return _cmd_matrix_solve(doc, args, out_dir)
        if args.command == "ce":
            if args.mode == "check":
                return _cmd_ce_check(doc, args, out_dir)
            return _cmd_ce_optimize(doc, args, out_dir)
        return _DISPATCH[args.command](doc, args, out_dir)
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
