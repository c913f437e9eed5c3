"""Scenario documents: the JSON configuration format of the command line.

A document describes either a finite matrix game or a continuous power
game, plus optional learner assignments, knowledge levels, sweep
definitions and output names.  Validation is strict: unknown keys are
rejected and every diagnostic carries the path of the offending field.
Parsing is lossless, so a loaded document serializes back to the exact
dictionary it came from.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .experiments import KNOWLEDGE_LEVELS, KnowledgeProfile
from .learning import LEARNER_KINDS, make_learner
from .matrix_games import NormalFormGame, concentrate_spread_game, discretize_power_game
from .spectrum import (
    ChannelSet,
    FrequencyGrid,
    NoiseProfile,
    PowerBudget,
    PowerScenario,
    generate_multipath_channels,
)

__all__ = ["ScenarioDocument", "load_scenario", "parse_scenario"]

SCHEMA_VERSION = 1

DEFAULT_OUTPUTS = {
    "allocation": "allocation",
    "region": "region",
    "trace": "trace",
    "distribution": "distribution",
    "ensemble": "ensemble",
    "solution": "solution",
}

_COMMON_KEYS = {
    "version", "kind", "learners", "knowledge", "start_profile",
    "rounds", "seed", "ce", "outputs",
}
_POWER_KEYS = _COMMON_KEYS | {"grid", "channels", "noise", "budgets", "actions", "sweeps", "ensemble"}
_MATRIX_KEYS = _COMMON_KEYS | {"actions", "payoffs"}
# learner entry key -> make_learner keyword
_LEARNER_OPTIONS = {"action": "fixed_action", "start": "start_action"}
# Water-filling keeps about 16 - log10(floor / budget) digits of a budget; past this
# peak SNR one user's interference can leave another too few (budgets [1e20, 10] fail).
MAX_PEAK_SNR = 1e12


def _fail(path, message):
    raise ScenarioError(path, message)


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    return value


def _expect_keys(obj, path, required, optional=frozenset()):
    for key in obj:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in obj:
            _fail(f"{path}.{key}" if path else key, "missing required key")


def _expect_int(value, path, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, "expected an integer")
    if minimum is not None and value < minimum:
        _fail(path, f"must be at least {minimum}")
    return value


def _expect_number(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if positive and value <= 0:
        _fail(path, "must be positive")
    return float(value)


def _expect_list(value, path, length=None):
    if not isinstance(value, list):
        _fail(path, "expected a list")
    if length is not None and len(value) != length:
        _fail(path, f"expected exactly {length} entries")
    return value


@dataclass(frozen=True, eq=False)
class ScenarioDocument:
    """A validated scenario; accessors build the domain objects on demand."""

    raw: dict

    @property
    def kind(self) -> str:
        return self.raw["kind"]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)

    def seed(self, default: int = 0) -> int:
        return int(self.raw.get("seed", default))

    def rounds(self, default: int | None = None) -> int:
        value = self.raw.get("rounds", default)
        if value is None:
            _fail("rounds", "this command needs a round count (config key or --rounds)")
        return int(value)

    def user_count(self) -> int:
        if self.kind == "power_game":
            return len(self.raw["budgets"])
        return len(self.raw["actions"])

    def output_base(self, record: str) -> str:
        outputs = self.raw.get("outputs", {})
        return outputs.get(record, DEFAULT_OUTPUTS[record])

    # -- power-game accessors -------------------------------------------------

    def grid(self) -> FrequencyGrid:
        if self.kind != "power_game":
            _fail("kind", "this command needs a power_game scenario")
        g = self.raw["grid"]
        try:
            return FrequencyGrid(bin_count=g["bins"], total_band=float(g["band"]))
        except ValueError as exc:  # a subnormal band loses its width to rounding
            _fail("grid.band", str(exc))

    def power_scenario(self) -> PowerScenario:
        grid = self.grid()
        users = self.user_count()
        spec = self.raw["channels"]
        if "gains" in spec:
            channels = ChannelSet(np.asarray(spec["gains"], dtype=float))
        else:
            channels = generate_multipath_channels(
                spec["seed"],
                grid,
                spec["taps"],
                user_count=users,
                direct_power=float(spec.get("direct_power", 1.0)),
                cross_power=float(spec.get("cross_power", 0.5)),
            )
        noise_psd = np.asarray(self.raw["noise"], dtype=float)  # a scalar is flat over users and bins
        noise = NoiseProfile(np.broadcast_to(noise_psd, (users, grid.bin_count)))
        budgets = PowerBudget(np.asarray(self.raw["budgets"], dtype=float))
        try:
            scen = PowerScenario(grid=grid, channels=channels, noise=noise, budgets=budgets)
        except ValueError as exc:
            _fail("channels", str(exc))
        with np.errstate(over="ignore", invalid="ignore"):  # a whole budget in one bin
            snr = budgets.budget[:, None] / grid.bin_width * np.diagonal(channels.gain2).T / noise.psd
        n, k = np.unravel_index(np.argmax(snr), snr.shape)
        if not snr[n, k] <= MAX_PEAK_SNR:
            _fail(f"budgets[{n}]", f"peak SNR {snr[n, k]:.3g} in bin {k + 1} is over {MAX_PEAK_SNR:.0e}")
        return scen

    # -- finite-game accessors ------------------------------------------------

    def finite_game(self) -> NormalFormGame:
        if self.kind == "matrix_game":
            labels = tuple(tuple(a) for a in self.raw["actions"])
            return NormalFormGame(np.asarray(self.raw["payoffs"], dtype=float), action_labels=labels)
        actions = self.raw.get("actions")
        if actions is None:
            _fail("actions", "a power_game needs an actions section for finite-game commands")
        scen = self.power_scenario()
        if actions["type"] == "concentrate_spread":
            try:
                return concentrate_spread_game(scen)
            except ValueError as exc:
                _fail("actions.type", str(exc))
        return discretize_power_game(scen, levels=actions.get("levels", 10))

    def learners(self, game: NormalFormGame) -> list:
        spec = self.raw.get("learners")
        if spec is None:
            _fail("learners", "this command needs learner assignments")
        if len(spec) != game.player_count:
            _fail("learners", f"expected one learner per player ({game.player_count})")
        out = []
        for p, entry in enumerate(spec):
            count = game.action_counts[p]
            for opt in ("action", "start"):
                if entry.get(opt, 0) >= count:
                    _fail(f"learners[{p}].{opt}", f"must be below the player's action count {count}")
            options = {_LEARNER_OPTIONS[key]: value for key, value in entry.items() if key in _LEARNER_OPTIONS}
            out.append(make_learner(entry["kind"], game, p, **options))
        return out

    def knowledge_profile(self, override=None) -> KnowledgeProfile:
        levels = override if override is not None else self.raw.get("knowledge")
        if levels is None:
            _fail("knowledge", "this command needs knowledge levels (config key or --profile)")
        path = "knowledge" if override is None else "--profile"
        if len(levels) != self.user_count():
            _fail(path, f"expected one knowledge level per user ({self.user_count()})")
        try:
            return KnowledgeProfile(tuple(levels))
        except ValueError as exc:
            _fail(path, str(exc))

    def start_profile(self):
        value = self.raw.get("start_profile")
        return tuple(int(a) for a in value) if value is not None else None

    def sweeps(self) -> dict:
        return self.raw.get("sweeps", {})

    def ce_section(self) -> dict:
        return self.raw.get("ce", {})

    def ensemble_section(self) -> dict:
        return self.raw.get("ensemble", {})


def _validate_power(doc: dict):
    _expect_keys(doc, "", {"version", "kind", "grid", "channels", "noise", "budgets"}, _POWER_KEYS)
    grid = _expect_mapping(doc["grid"], "grid")
    _expect_keys(grid, "grid", {"bins", "band"})
    _expect_int(grid["bins"], "grid.bins", minimum=1)
    _expect_number(grid["band"], "grid.band", positive=True)

    budgets = _expect_list(doc["budgets"], "budgets")
    if not budgets:
        _fail("budgets", "need at least one user")
    for i, b in enumerate(budgets):
        _expect_number(b, f"budgets[{i}]", positive=True)
    users = len(budgets)
    bins = grid["bins"]

    channels = _expect_mapping(doc["channels"], "channels")
    if "gains" in channels:
        _expect_keys(channels, "channels", {"gains"})
        gains = _expect_list(channels["gains"], "channels.gains", length=users)
        for i, row in enumerate(gains):
            row = _expect_list(row, f"channels.gains[{i}]", length=users)
            for j, cell in enumerate(row):
                cell = _expect_list(cell, f"channels.gains[{i}][{j}]", length=bins)
                for k, v in enumerate(cell):
                    if _expect_number(v, f"channels.gains[{i}][{j}][{k}]") < 0:
                        _fail(f"channels.gains[{i}][{j}][{k}]", "must be nonnegative")
    else:
        _expect_keys(channels, "channels", {"seed", "taps"}, {"direct_power", "cross_power"})
        _expect_int(channels["seed"], "channels.seed", minimum=0)
        _expect_int(channels["taps"], "channels.taps", minimum=1)
        for key in ("direct_power", "cross_power"):
            if key in channels and _expect_number(channels[key], f"channels.{key}") < 0:
                _fail(f"channels.{key}", "must be nonnegative")

    noise = doc["noise"]
    if isinstance(noise, (int, float)) and not isinstance(noise, bool):
        _expect_number(noise, "noise", positive=True)
    else:
        rows = _expect_list(noise, "noise", length=users)
        for i, row in enumerate(rows):
            row = _expect_list(row, f"noise[{i}]", length=bins)
            for k, v in enumerate(row):
                _expect_number(v, f"noise[{i}][{k}]", positive=True)

    if "actions" in doc:
        actions = _expect_mapping(doc["actions"], "actions")
        _expect_keys(actions, "actions", {"type"}, {"levels"})
        if actions["type"] not in ("concentrate_spread", "simplex_grid"):
            _fail("actions.type", "must be 'concentrate_spread' or 'simplex_grid'")
        if "levels" in actions:
            if actions["type"] != "simplex_grid":
                _fail("actions.levels", "only a simplex_grid action set takes levels")
            _expect_int(actions["levels"], "actions.levels", minimum=1)

    if "sweeps" in doc:
        sweeps = _expect_mapping(doc["sweeps"], "sweeps")
        _expect_keys(sweeps, "sweeps", set(), {"budget_pairs", "weights", "levels"})
        for key in ("budget_pairs", "weights"):
            if key in sweeps:
                for i, pair in enumerate(_expect_list(sweeps[key], f"sweeps.{key}")):
                    pair = _expect_list(pair, f"sweeps.{key}[{i}]", length=users)
                    values = [
                        _expect_number(v, f"sweeps.{key}[{i}][{j}]", positive=key == "budget_pairs")
                        for j, v in enumerate(pair)
                    ]
                    if key == "weights" and (min(values) < 0 or sum(values) <= 0):
                        _fail(f"sweeps.weights[{i}]", "weights must be nonnegative with positive sum")
        if "levels" in sweeps:
            _expect_int(sweeps["levels"], "sweeps.levels", minimum=1)

    if "ensemble" in doc:
        ens = _expect_mapping(doc["ensemble"], "ensemble")
        _expect_keys(ens, "ensemble", {"realizations"}, {"taps"})
        _expect_int(ens["realizations"], "ensemble.realizations", minimum=1)
        if "taps" in ens:
            _expect_int(ens["taps"], "ensemble.taps", minimum=1)


def _validate_matrix(doc: dict):
    _expect_keys(doc, "", {"version", "kind", "actions", "payoffs"}, _MATRIX_KEYS)
    actions = _expect_list(doc["actions"], "actions")
    if len(actions) < 2:
        _fail("actions", "need at least two players")
    counts = []
    for p, names in enumerate(actions):
        names = _expect_list(names, f"actions[{p}]")
        if not names:
            _fail(f"actions[{p}]", "need at least one action")
        for a, name in enumerate(names):
            if not isinstance(name, str):
                _fail(f"actions[{p}][{a}]", "action names must be strings")
        counts.append(len(names))
    try:
        payoffs = np.asarray(doc["payoffs"], dtype=float)
    except (TypeError, ValueError):
        _fail("payoffs", "ragged or non-numeric payoff table")
    if payoffs.shape != tuple(counts) + (len(counts),):
        _fail("payoffs", f"expected shape {tuple(counts) + (len(counts),)}, got {payoffs.shape}")
    if not np.all(np.isfinite(payoffs)):
        _fail("payoffs", "payoffs must be finite")


def _validate_common(doc: dict):
    users = len(doc["budgets"]) if doc["kind"] == "power_game" else len(doc["actions"])
    if "learners" in doc:
        learners = _expect_list(doc["learners"], "learners", length=users)
        for p, entry in enumerate(learners):
            entry = _expect_mapping(entry, f"learners[{p}]")
            _expect_keys(entry, f"learners[{p}]", {"kind"}, {"action", "start"})
            if entry["kind"] not in LEARNER_KINDS:
                _fail(f"learners[{p}].kind", f"must be one of {LEARNER_KINDS}")
            for opt, kind in (("action", "fixed"), ("start", "best_response_myopic")):
                if opt in entry:
                    if entry["kind"] != kind:
                        _fail(f"learners[{p}].{opt}", f"only a {kind} learner takes {opt}")
                    _expect_int(entry[opt], f"learners[{p}].{opt}", minimum=0)
            if entry["kind"] == "fixed" and "action" not in entry:
                _fail(f"learners[{p}].action", "a fixed learner needs an action")
    if "knowledge" in doc:
        levels = _expect_list(doc["knowledge"], "knowledge", length=users)
        for i, level in enumerate(levels):
            if level not in KNOWLEDGE_LEVELS:
                _fail(f"knowledge[{i}]", f"must be one of {KNOWLEDGE_LEVELS}")
    if "start_profile" in doc:
        for i, a in enumerate(_expect_list(doc["start_profile"], "start_profile", length=users)):
            _expect_int(a, f"start_profile[{i}]", minimum=0)
    if "rounds" in doc:
        _expect_int(doc["rounds"], "rounds", minimum=1)
    if "seed" in doc:
        _expect_int(doc["seed"], "seed", minimum=0)
    if "ce" in doc:
        ce = _expect_mapping(doc["ce"], "ce")
        _expect_keys(ce, "ce", set(), {"weights", "distribution"})
        if "weights" in ce:
            for i, w in enumerate(_expect_list(ce["weights"], "ce.weights", length=users)):
                _expect_number(w, f"ce.weights[{i}]")
        if "distribution" in ce:
            for i, v in enumerate(_expect_list(ce["distribution"], "ce.distribution")):
                _expect_number(v, f"ce.distribution[{i}]")
    if "outputs" in doc:
        outputs = _expect_mapping(doc["outputs"], "outputs")
        _expect_keys(outputs, "outputs", set(), set(DEFAULT_OUTPUTS))
        for key, value in outputs.items():
            if not isinstance(value, str) or not value:
                _fail(f"outputs.{key}", "output names must be nonempty strings")


def _validate(doc) -> None:
    _expect_mapping(doc, "")
    if "version" not in doc:
        _fail("version", "missing required key")
    if doc["version"] != SCHEMA_VERSION:
        _fail("version", f"unsupported version {doc['version']!r}; expected {SCHEMA_VERSION}")
    if doc.get("kind") == "power_game":
        _validate_power(doc)
    elif doc.get("kind") == "matrix_game":
        _validate_matrix(doc)
    else:
        _fail("kind", "must be 'power_game' or 'matrix_game'")
    _validate_common(doc)


def parse_scenario(doc: dict) -> ScenarioDocument:
    """Validate a raw dictionary and wrap a deep copy of it as a ScenarioDocument."""
    _validate(doc)
    return ScenarioDocument(raw=copy.deepcopy(doc))


def load_scenario(path) -> ScenarioDocument:
    """Load and validate a scenario document from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                str(path), f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    _validate(doc)
    return ScenarioDocument(raw=doc)  # nothing else holds the freshly parsed dict
