"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in its constructor
(the set-up that ``setup_s`` times) and then offers, for each pass index, a
list of calls.  A call is one timed entry into the package plus an output
check that runs outside the timed region.  The package only ever sees the
inputs derived from the seed, never the seed itself.

Every pass runs the same calls on the same inputs, so that each call can be
timed several times over a run and its outputs must repeat exactly.

Checks reuse the acceptance suite's tolerances and prefer invariants to
pinned bytes; the only pinned values are the ensemble means recorded in
``references.json`` for the seeds listed there.
"""

from __future__ import annotations

import io
import itertools
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from specgames import cli, experiments, power_games, spectrum

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

# Tolerances of the acceptance suite (criteria 6, 7 and 8).
RATIO_TOL = 1e-9
MEAN_TOL = 1e-6
FIXED_POINT_TOL = 1e-6
RATE_TOL = 1e-9
MARGIN_TOL = 1e-9


def derived_seed(seed: int, tag: str) -> int:
    """A 32-bit input seed for one purpose, drawn from the benchmark seed."""
    key = [int(b) for b in tag.encode()]
    return int(np.random.SeedSequence([int(seed), *key]).generate_state(1)[0])


def load_references(workload: str, seed: int):
    if not REFERENCES.is_file():
        return None
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class Call:
    """One timed entry into the package and the check of its result.

    ``ops`` is the number of workload operations the call performs.
    ``check(result)`` returns (failed operations, problems, counts), where
    counts are exact quantities that the run record tallies and the traced
    run records.
    """

    label = ""
    ops = 1

    def run(self):
        raise NotImplementedError

    def check(self, result):
        raise NotImplementedError


# -- ensemble ----------------------------------------------------------------

# The values of scenarios/ensemble_default.json, one draw per call so that
# each draw is timed by itself.
ENSEMBLE_DRAWS = 700  # per pass
ENSEMBLE_BINS = 8
ENSEMBLE_TAPS = 4
ENSEMBLE_BUDGETS = (100.0, 100.0)
LEADER = 0


class EnsembleCall(Call):
    """One collected draw: ``channel_ensemble_study`` with one realization."""

    ops = 1

    def __init__(self, study, index, study_seed):
        self.label = f"draw{index}"
        self.study = study
        self.index = index
        self.study_seed = study_seed
        self.first = None

    def run(self):
        s = self.study
        return experiments.channel_ensemble_study(
            1, self.study_seed, s.grid, s.budgets, tap_count=ENSEMBLE_TAPS, leader=LEADER,
        )

    def check(self, report):
        problems = []
        ratios = np.asarray(report.ratios)
        if report.realizations != 1 or ratios.shape != (1, 2):
            return 1, [f"expected one draw, got shape {ratios.shape}"], {}
        if ratios[0, LEADER] < 1.0 - RATIO_TOL:
            problems.append(f"leader ratio {ratios[0, LEADER]!r} below 1 - {RATIO_TOL}")
        if self.first is None:
            self.first = ratios[0].copy()
            problems += self.study.collect(self.index, self.first)
        elif not np.array_equal(ratios[0], self.first):
            problems.append(f"ratios {ratios[0]} differ from the first run {self.first}")
        return (1 if problems else 0), problems, {
            "experiments.channel_ensemble_study.skipped": int(report.skipped)}


class Ensemble:
    """The paper's leadership-versus-Nash study at K=8, one draw per call.

    Every pass runs the same draws; once each has run, their mean ratios
    are checked against ``references.json``.
    """

    name = "ensemble"

    def __init__(self, seed):
        self.grid = spectrum.FrequencyGrid(ENSEMBLE_BINS, float(ENSEMBLE_BINS))
        self.budgets = spectrum.PowerBudget(np.array(ENSEMBLE_BUDGETS))
        self.reference = load_references(self.name, seed)
        self._calls = [
            EnsembleCall(self, j, derived_seed(seed, f"ensemble.{j}")) for j in range(ENSEMBLE_DRAWS)
        ]
        self.ratios = np.full((ENSEMBLE_DRAWS, 2), np.nan)
        self.means = None

    def collect(self, j, ratios):
        self.ratios[j] = ratios
        if np.isnan(self.ratios).any():
            return []
        self.means = [float(m) for m in self.ratios.mean(axis=0)]
        if self.reference is not None and max(
            abs(a - b) for a, b in zip(self.means, self.reference)
        ) > MEAN_TOL:
            return [f"means {self.means} differ from the reference {self.reference}"]
        return []

    def calls(self, index):
        return self._calls

    def close(self):
        pass


# -- frontier ----------------------------------------------------------------

FRONTIER_DRAWS = 16  # per pass
FRONTIER_BINS = 4
FRONTIER_TAPS = 4
FRONTIER_BUDGETS = (100.0, 100.0)
FRONTIER_BUDGET_PAIRS = [(100.0, 100.0), (150.0, 50.0), (50.0, 150.0)]
FRONTIER_WEIGHTS = [(1.0, 0.0), (0.75, 0.25), (0.5, 0.5), (0.25, 0.75), (0.0, 1.0)]
FRONTIER_LEVELS = 10


def dominance_margin(scenario, target, levels):
    """Dominance margin by direct enumeration: max over grid pairs of min_n (R_n - target_n).

    Each user's candidates are the splits of at most ``levels`` budget
    units over the bins; rates treat interference as noise.  Written apart
    from the package's oracle so that it can check it.
    """
    bins, df = scenario.grid.bin_count, scenario.grid.bin_width
    splits = np.array(
        [c for c in itertools.product(range(levels + 1), repeat=bins) if sum(c) <= levels], dtype=float
    )
    g, sigma, budget = scenario.channels.gain2, scenario.noise.psd, scenario.budgets.budget
    rows1 = splits * (budget[0] / (levels * df))
    rows2 = (splits * (budget[1] / (levels * df)))[None, :, :]
    best = -np.inf
    for chunk in np.array_split(rows1, 128):  # small temporaries keep the check out of peak memory
        p1 = chunk[:, None, :]
        r1 = np.log2(1.0 + p1 * g[0, 0] / (sigma[0] + rows2 * g[1, 0])).sum(axis=-1) * df
        r2 = np.log2(1.0 + rows2 * g[1, 1] / (sigma[1] + p1 * g[0, 1])).sum(axis=-1) * df
        best = max(best, float(np.minimum(r1 - target[0], r2 - target[1]).max()))
    return best


class FrontierCall(Call):
    ops = 1

    def __init__(self, index, scenario):
        self.label = f"draw{index}"
        self.scenario = scenario
        self.first = None

    def run(self):
        s = self.scenario
        table = experiments.region_comparison(
            s, FRONTIER_BUDGET_PAIRS, FRONTIER_WEIGHTS, leader=LEADER, levels=FRONTIER_LEVELS
        )
        margin = power_games.grid_dominance_margin(
            table[0].rates, s.channels, s.noise, s.budgets, s.grid, levels=FRONTIER_LEVELS
        )
        return table, margin

    def check(self, result):
        table, margin = result
        s = self.scenario
        problems = []
        by_method = {(t.method, tuple(t.params)): t for t in table}
        nash_row = by_method.get(("iw", FRONTIER_BUDGETS))
        led_row = by_method.get(("stackelberg", FRONTIER_BUDGETS))
        pareto = [t for t in table if t.method == "pareto"]
        if nash_row is None or led_row is None or len(pareto) != len(FRONTIER_WEIGHTS):
            return 1, [f"table lacks rows: {sorted(by_method)}"], {}
        nash = power_games.iterative_water_filling(s.channels, s.noise, s.budgets, s.grid)
        psd = nash.allocation.psd
        gap = 0.0
        for n in range(2):
            floor = spectrum.effective_noise(n, nash.allocation, s.channels, s.noise)
            reply = spectrum.water_fill(s.channels.gain2[n, n], floor, s.budgets.budget[n], s.grid)
            gap = max(gap, float(np.abs(reply - psd[n]).max()))
        if not nash.converged or gap > FIXED_POINT_TOL:
            problems.append(f"Nash point is not a certified fixed point (gap {gap:.3e})")
        if np.abs(np.asarray(nash_row.rates) - nash.rates).max() > RATE_TOL:
            problems.append("table Nash rates differ from iterative water-filling")
        if led_row.rates[LEADER] < nash_row.rates[LEADER] - RATE_TOL:
            problems.append("leader rate below its Nash rate")
        # Whether the margin is nonnegative (criterion 8) depends on the draw
        # and is tallied, not checked: correct code gives small negative
        # margins on some K=4 draws.  Its value is checked against a direct
        # enumeration of the same grid.
        direct = dominance_margin(s, nash_row.rates, FRONTIER_LEVELS)
        if abs(margin - direct) > MARGIN_TOL:
            problems.append(f"dominance margin {margin!r} differs from direct enumeration {direct!r}")
        outputs = [float(margin)] + [float(r) for t in table for r in t.rates]
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            problems.append("table or margin differs from the first run of this draw")
        return (1 if problems else 0), problems, {"frontier.negative_margins": int(margin < -MARGIN_TOL)}


class Frontier:
    """Rate-region tables with the exhaustive grid oracle on K=4 draws."""

    name = "frontier"

    def __init__(self, seed):
        grid = spectrum.FrequencyGrid(FRONTIER_BINS, float(FRONTIER_BINS))
        noise = spectrum.NoiseProfile.flat(1.0, 2, FRONTIER_BINS)
        budgets = spectrum.PowerBudget(np.array(FRONTIER_BUDGETS))
        entropy = derived_seed(seed, "frontier")
        self._pool = []
        attempt = 0
        # Draws whose Nash point does not converge are skipped, as in the
        # acceptance suite, so that every operation has a checkable result.
        while len(self._pool) < FRONTIER_DRAWS:
            stream = np.random.SeedSequence(entropy=entropy, spawn_key=(attempt,))
            attempt += 1
            ch = spectrum.generate_multipath_channels(stream, grid, FRONTIER_TAPS)
            if not power_games.iterative_water_filling(ch, noise, budgets, grid).converged:
                continue
            scen = spectrum.PowerScenario(grid=grid, channels=ch, noise=noise, budgets=budgets)
            self._pool.append(FrontierCall(len(self._pool), scen))

    def calls(self, index):
        return self._pool

    def close(self):
        pass


CE_LEVELS = 7  # 8x8 = 64 profiles, exactly the LP cap


# -- cli ---------------------------------------------------------------------

# The criterion-11 invocations at its seed 7, plus learn at contention.json's
# own rounds.  The benchmark seed reaches this workload through the learning
# seed of the owned document.  Its channel draw is fixed at seed 7, like the
# shipped scenarios': the package's CE LP fails on some draws (about 3 in
# 100 seed-drawn ones stop at the pivot cap or report the CE polytope
# infeasible), a package defect that this benchmark does not hide but
# records in its README.
SHIPPED_SEED = 7
SHIPPED_CASES = [
    ("fig6.json", ("waterfill",)),
    ("fig6.json", ("iw",)),
    ("fig6.json", ("stackelberg",)),
    ("fig6.json", ("pareto",)),
    ("fig6.json", ("region",)),
    ("fig6.json", ("matrix", "solve")),
    ("fig6.json", ("vok", "--profile", "heter,priv")),
    ("contention.json", ("ce", "check")),
    ("contention.json", ("ce", "optimize")),
    ("contention.json", ("learn", "--rounds", "300")),
    ("contention.json", ("learn",)),
    ("ensemble_default.json", ("ensemble", "--realizations", "4")),
]
OWN_CASES = [("simplex_grid.json", ("learn",)), ("simplex_grid.json", ("ce", "optimize"))]
OWN_ROUNDS = 2000
FORMATS = ("csv", "json")


def simplex_grid_document() -> dict:
    """A power game with simplex_grid actions at K=2, levels 7 (an 8x8 game)."""
    return {
        "version": 1,
        "kind": "power_game",
        "grid": {"bins": 2, "band": 2.0},
        "channels": {"seed": SHIPPED_SEED, "taps": 4},
        "noise": 1.0,
        "budgets": [10.0, 10.0],
        "actions": {"type": "simplex_grid", "levels": CE_LEVELS},
        "learners": [{"kind": "regret_matching"}, {"kind": "regret_matching"}],
        "rounds": OWN_ROUNDS,
        "ce": {"weights": [1.0, 1.0]},
    }


class CliCall(Call):
    ops = 1

    def __init__(self, argv, out_dir):
        self.label = " ".join(argv)
        self.argv = list(argv)
        self.out_dir = out_dir
        self.previous = None

    def run(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(self.argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, result):
        code, stdout, stderr = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {stderr.strip()[-200:]}")
        files = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir()) if p.is_file()}
        if not files:
            problems.append("no output files")
        if "Traceback" in stdout or "Traceback" in stderr or any(b"Traceback" in b for b in files.values()):
            problems.append("output contains a Python traceback")
        if self.previous is not None and files != self.previous:
            problems.append("output files differ from the previous sweep")
        self.previous = files
        counts = {"cli.out_bytes": sum(len(b) for b in files.values())}
        return (1 if problems else 0), problems, counts


class Cli:
    """In-process command-line sweeps over the shipped and one owned scenario."""

    name = "cli"

    def __init__(self, seed):
        scenarios = ROOT / "scenarios"
        OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        own = self.tmp / "simplex_grid.json"
        own.write_text(json.dumps(simplex_grid_document(), indent=2), encoding="utf-8")
        own_seed = derived_seed(seed, "cli")
        self._calls = []
        for config, argv in SHIPPED_CASES + OWN_CASES:
            path, run_seed = (own, own_seed) if config == own.name else (scenarios / config, SHIPPED_SEED)
            if not path.is_file():
                raise FileNotFoundError(f"scenario {path} is missing")
            for fmt in FORMATS:
                out_dir = self.tmp / f"{len(self._calls):02d}-{fmt}"
                out_dir.mkdir()
                full = [*argv, "--config", str(path), "--seed", str(run_seed),
                        "--out", str(out_dir), "--format", fmt]
                self._calls.append(CliCall(full, out_dir))

    def calls(self, index):
        return self._calls

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Ensemble, Frontier, Cli)}
