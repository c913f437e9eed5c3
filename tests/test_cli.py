import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgames import cli
from specgames.cli import _BLOCK, _build_parser, _emit, _trace_table, main
from specgames.errors import ScenarioError
from specgames.experiments import KNOWLEDGE_LEVELS
from specgames.learning import LearningTrace
from specgames.matrix_games import NormalFormGame
from specgames.scenario import load_scenario

from test_acceptance import CLI_CASES
from test_experiments import unsettled_scenario
from test_simplex import FIG6_GAINS, simplex_grid_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_waterfill(tmp_path, scenario_dir, capsys):
    code, out, _ = run(capsys, "waterfill", "--config", str(scenario_dir / "fig6.json"),
                       "--out", str(tmp_path))
    assert code == 0
    assert "single-user rate" in out
    lines = read(tmp_path / "allocation.csv").decode().splitlines()
    assert lines[0] == "bin,psd"
    assert len(lines) == 3


def test_iw_and_rates(tmp_path, scenario_dir, capsys):
    code, out, _ = run(capsys, "iw", "--config", str(scenario_dir / "fig6.json"),
                       "--out", str(tmp_path))
    assert code == 0
    assert "converged=True" in out
    header = read(tmp_path / "allocation.csv").decode().splitlines()[0]
    assert header == "bin,psd_1,psd_2"


def test_stackelberg(tmp_path, scenario_dir, capsys):
    code, out, _ = run(capsys, "stackelberg", "--config", str(scenario_dir / "fig6.json"),
                       "--out", str(tmp_path), "--leader", "1")
    assert code == 0
    assert "leader=1" in out


def test_matrix_solve_contention(tmp_path, scenario_dir, capsys):
    code, out, _ = run(capsys, "matrix", "solve", "--config",
                       str(scenario_dir / "contention.json"), "--out", str(tmp_path))
    assert code == 0
    assert "(Aggress, Backoff), (Backoff, Aggress)" in out
    assert "0.3333333333333333" in out
    assert "4.66666666666666" in out


def test_matrix_solve_two_channel(tmp_path, scenario_dir, capsys):
    code, out, _ = run(capsys, "matrix", "solve", "--config",
                       str(scenario_dir / "fig6.json"), "--out", str(tmp_path))
    assert code == 0
    assert "pure NE: (Spread, Spread)" in out
    assert "dominant action player 1: Spread" in out
    assert "mixed NE: none (degenerate)" in out
    assert "stackelberg leader 1: (Concentrate, Concentrate)" in out


def test_ce_check_and_optimize(tmp_path, scenario_dir, capsys):
    code, out, _ = run(capsys, "ce", "check", "--config",
                       str(scenario_dir / "contention.json"), "--out", str(tmp_path))
    assert code == 0
    assert "correlated equilibrium: True" in out
    code, out, _ = run(capsys, "ce", "optimize", "--config",
                       str(scenario_dir / "contention.json"), "--out", str(tmp_path))
    assert code == 0
    assert "10.5" in out
    lines = read(tmp_path / "distribution.csv").decode().splitlines()
    assert lines[0] == "profile,prob"
    probs = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert probs["Backoff/Backoff"] == pytest.approx(0.5, abs=1e-9)


def test_learn_trace_files(tmp_path, scenario_dir, capsys):
    code, out, _ = run(capsys, "learn", "--config", str(scenario_dir / "contention.json"),
                       "--out", str(tmp_path), "--rounds", "200", "--seed", "5")
    assert code == 0
    lines = read(tmp_path / "trace.csv").decode().splitlines()
    assert lines[0] == "t,action_1,action_2,u_1,u_2"
    assert len(lines) == 201
    dist = read(tmp_path / "distribution.csv").decode().splitlines()
    assert sum(float(r.split(",")[1]) for r in dist[1:]) == pytest.approx(1.0, abs=1e-9)


def test_vok_profiles(tmp_path, scenario_dir, capsys):
    code, out, _ = run(capsys, "vok", "--config", str(scenario_dir / "fig6.json"),
                       "--out", str(tmp_path), "--profile", "heter,priv")
    assert code == 0
    values = [float(v) for v in out.strip().strip("utilities: ()").split(", ")]
    assert values == pytest.approx([3.46, 3.46], abs=0.01)
    code, out, _ = run(capsys, "vok", "--config", str(scenario_dir / "fig6.json"),
                       "--out", str(tmp_path))
    assert code == 0  # falls back to the config's knowledge levels
    values = [float(v) for v in out.strip().strip("utilities: ()").split(", ")]
    assert values == pytest.approx([2.83, 2.42], abs=0.01)


def test_ensemble_summary_row(tmp_path, scenario_dir, capsys):
    code, out, _ = run(capsys, "ensemble", "--config",
                       str(scenario_dir / "ensemble_default.json"),
                       "--out", str(tmp_path), "--realizations", "5", "--seed", "9")
    assert code == 0
    lines = read(tmp_path / "ensemble.csv").decode().splitlines()
    assert lines[0] == "realization,ratio_1,ratio_2"
    assert len(lines) == 7  # 5 realizations + mean row
    assert lines[-1].startswith("mean,")


def test_json_format(tmp_path, scenario_dir, capsys):
    code, _, _ = run(capsys, "iw", "--config", str(scenario_dir / "fig6.json"),
                     "--out", str(tmp_path), "--format", "json")
    assert code == 0
    rows = json.loads(read(tmp_path / "allocation.json"))
    assert rows[0]["bin"] == 0 and "psd_1" in rows[0]


def test_missing_config_is_validation_error(tmp_path, capsys):
    code, _, err = run(capsys, "iw", "--config", str(tmp_path / "nope.json"))
    assert code == 1
    assert "config error" in err


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "kind": "power_game"', encoding="utf-8")
    code, _, err = run(capsys, "iw", "--config", str(bad))
    assert code == 1
    assert "line" in err


RAW_DOCUMENTS = {
    "utf-16": (lambda text: text.encode("utf-16"), "'utf-8' codec can't decode byte 0xff"),
    "deep-array": (lambda text: b"[" * 100_000, "maximum recursion depth exceeded"),
    "repeated-top-key": (lambda text: text.replace('"noise": 1.0', '"noise": 1.0, "noise": 2.0').encode(),
                         "repeated key 'noise'"),
    "repeated-nested-key": (lambda text: text.replace('"bins": 2', '"bins": 2, "bins": 3').encode(),
                            "repeated key 'bins'"),
    "utf-8-bom": (lambda text: b"\xef\xbb\xbf" + text.encode(), "Unexpected UTF-8 BOM"),
    "long-integer": (lambda text: text.replace('"seed": 7', '"seed": ' + "1" * 5000).encode(),
                     "integer string conversion"),
}


@pytest.mark.parametrize("case", list(RAW_DOCUMENTS))
def test_unreadable_document_bytes_are_a_config_error(tmp_path, scenario_dir, capsys, case):
    make, reason = RAW_DOCUMENTS[case]
    text = (scenario_dir / "fig6.json").read_text(encoding="utf-8")
    assert text.count('"noise": 1.0') == text.count('"bins": 2') == text.count('"seed": 7') == 1
    cfg = tmp_path / "raw.json"
    cfg.write_bytes(make(text))
    with pytest.raises(ScenarioError, match=re.escape(reason)):
        load_scenario(cfg)
    code, out, err = run(capsys, "iw", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: {cfg}: ") and err.count("\n") == 1, err
    assert reason in err


def test_cli_reads_the_document_only_through_its_accessors():
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert re.findall(r"\.(?:raw|kind)\b", source) == []


def test_unknown_field_exit_code(tmp_path, scenario_dir, capsys):
    doc = json.loads((scenario_dir / "fig6.json").read_text())
    doc["typo_field"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "iw", "--config", str(bad))
    assert code == 1
    assert "typo_field" in err


def test_numerical_failure_exit_code(tmp_path, capsys):
    doc = {
        "version": 1,
        "kind": "power_game",
        "grid": {"bins": 2, "band": 2.0},
        "channels": {"gains": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]]},
        "noise": 1.0,
        "budgets": [10.0, 10.0],
    }
    cfg = tmp_path / "dead.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "waterfill", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert "numerical failure" in err


def test_unconverged_region_nash_point_is_a_numerical_failure(tmp_path, capsys):
    # the region table used to carry this pair's unconverged IW state as its Nash row
    doc = {
        "version": 1,
        "kind": "power_game",
        "grid": {"bins": 8, "band": 8.0},
        "channels": {"gains": unsettled_scenario().channels.gain2.tolist()},
        "noise": 1.0,
        "budgets": [100.0, 100.0],
        "sweeps": {"budget_pairs": [[100.0, 100.0]], "weights": [], "levels": 10},
    }
    cfg = tmp_path / "unsettled.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "region", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == "numerical failure: iterative water-filling did not converge at budget pair (100.0, 100.0)\n"
    assert out == "" and list((tmp_path / "out").iterdir()) == []


def test_usage_error_exit_code(capsys):
    assert main(["iw"]) == 1  # --config is required
    assert main(["frobnicate", "--config", "x"]) == 1


def test_negative_seed_rejected(scenario_dir, capsys):
    code, _, err = run(capsys, "iw", "--config", str(scenario_dir / "fig6.json"),
                       "--seed", "-3")
    assert code == 1
    assert "seed" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize(
    "flag, target",
    [("--out", "taken"), ("--out", "taken/sub"), ("--out", "busy"), ("--config", ".")],
    ids=["out-is-a-file", "out-under-a-file", "out-file-is-a-directory", "config-is-a-directory"],
)
def test_bad_paths_are_field_errors(tmp_path, scenario_dir, capsys, flag, target):
    (tmp_path / "taken").write_text("x", encoding="utf-8")
    (tmp_path / "busy" / "allocation.csv").mkdir(parents=True)
    argv = ["iw", "--config", str(scenario_dir / "fig6.json"), "--out", str(tmp_path / "out")]
    argv += [flag, str(tmp_path / target)]  # argparse keeps the last of a repeated flag
    code, out, err = run(capsys, *argv)
    assert code == 1, err
    assert err.startswith(f"config error: {flag}: ")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("config, argv", [
    ("contention.json", ("matrix", "solve")),
    ("contention.json", ("learn", "--rounds", "50")),
    ("fig6.json", ("stackelberg",)),
])
@pytest.mark.parametrize("target", ["taken", "taken/sub"])
def test_unusable_out_is_refused_before_any_work(tmp_path, scenario_dir, capsys, config, argv, target):
    (tmp_path / "taken").write_text("x", encoding="utf-8")
    code, out, err = run(capsys, *argv, "--config", str(scenario_dir / config),
                         "--out", str(tmp_path / target))
    assert code == 1, err
    assert err.startswith("config error: --out: ")
    assert out == ""


def test_oversize_leader_grid_is_a_numerical_failure(tmp_path, scenario_dir, capsys):
    # two bins at 2,827 levels are 4,000,206 leader candidates, over the cap
    code, out, err = run(capsys, "stackelberg", "--levels", "2827", "--config",
                         str(scenario_dir / "fig6.json"), "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("numerical failure: oracle scale exceeded: 4000206 leader grid candidates")
    assert out == "" and list(tmp_path.iterdir()) == []


def test_oversize_joint_grid_is_a_numerical_failure(tmp_path, scenario_dir, capsys):
    # the grid at 10**7 levels would need a 364 TiB split table; the cap refuses it first
    doc = json.loads((scenario_dir / "fig6.json").read_text(encoding="utf-8"))
    doc["sweeps"]["levels"] = 10**7
    config = tmp_path / "big.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "pareto", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("numerical failure: oracle scale exceeded: ")
    assert err.endswith(" joint evaluations over cap 4000000\n") and err.count("\n") == 1
    assert out == "" and list((tmp_path / "out").iterdir()) == []


def test_overflowing_weights_are_a_numerical_failure(tmp_path, scenario_dir, capsys):
    # at weights (1e308, 1e308) the weighted rate sum of fig6 overflows
    doc = json.loads((scenario_dir / "fig6.json").read_text(encoding="utf-8"))
    doc["sweeps"]["weights"] = [[1e308, 1e308]]
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "pareto", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == "numerical failure: weighted rate sum for weights (1e+308, 1e+308) is not finite\n"
    assert out == "" and list((tmp_path / "out").iterdir()) == []


def test_overflowing_ce_weights_are_a_numerical_failure(tmp_path, scenario_dir, capsys):
    # at weights (1e308, 1e308) contention's weighted utilities overflow,
    # which used to send NaN costs into the simplex until its pivot cap
    doc = json.loads((scenario_dir / "contention.json").read_text(encoding="utf-8"))
    doc["ce"]["weights"] = [1e308, 1e308]
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "ce", "optimize", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == "numerical failure: CE objective for weights (1e+308, 1e+308) is not finite\n"
    assert out == "" and list((tmp_path / "out").iterdir()) == []


def test_waterfill_failure_shows_no_numpy_repr(tmp_path, scenario_dir, capsys):
    # bins 5e299 wide leave the fill of a budget of 10 nothing to spend
    doc = json.loads((scenario_dir / "fig6.json").read_text(encoding="utf-8"))
    doc["grid"]["band"] = 1e300
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "waterfill", "--config", str(config), "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == "numerical failure: water-filling failed: spent 0.0 of 10.0\n"


@pytest.mark.parametrize("command", ["pareto", "region", "stackelberg"])
def test_overflowing_power_step_is_a_numerical_failure(tmp_path, capsys, command):
    # bins 8.5e307 wide: levels * df overflows, which used to zero every power
    # level, so pareto wrote rates (0.0, 0.0)
    doc = {
        "version": 1,
        "kind": "power_game",
        "grid": {"bins": 2, "band": 1.7e308},
        "channels": {"gains": [[[3.0, 3.0], [1.0, 1.0]], [[1.0, 1.0], [3.0, 3.0]]]},
        "noise": 1.0,
        "budgets": [1.7e308, 1e300],
        "sweeps": {"weights": [[1.0, 0.0]], "levels": 10},
    }
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == "numerical failure: power step 1.7e+308 / (10 * 8.5e+307) is not positive and finite\n"
    assert out == "" and list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("config, argv", [
    ("contention.json", ("learn", "--rounds", "10000000000000")),
    ("ensemble_default.json", ("ensemble", "--realizations", "10000000000000")),
])
def test_unallocatable_run_is_a_one_line_failure(tmp_path, scenario_dir, capsys, config, argv):
    # numpy refuses the 146 TiB record at once, before allocating anything
    code, out, err = run(capsys, *argv, "--config", str(scenario_dir / config), "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("out of memory: Unable to allocate ") and err.count("\n") == 1
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config, edits, argv", [
    ("contention.json", {}, ("learn", "--rounds", str(10**20))),
    ("contention.json", {}, ("learn", "--rounds", str(2**62))),
    ("ensemble_default.json", {}, ("ensemble", "--realizations", str(10**20))),
    ("ensemble_default.json", {"grid": {"bins": 10**20, "band": 8.0}}, ("iw",)),
    ("ensemble_default.json", {"grid": {"bins": 10**20, "band": 8.0}}, ("ensemble",)),
    ("ensemble_default.json", {"ensemble": {"realizations": 1, "taps": 10**20}}, ("ensemble",)),
])
def test_unindexable_run_is_a_one_line_failure(tmp_path, scenario_dir, capsys, config, edits, argv):
    # past numpy's index range numpy refuses the shape with ValueError, not MemoryError
    doc = json.loads((scenario_dir / config).read_text())
    doc.update(edits)
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("out of memory: cannot make an array of shape ") and err.count("\n") == 1
    assert out == "" and list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("name", ["../escaped", "{tmp}/escaped"])
def test_output_names_stay_in_the_out_directory(tmp_path, scenario_dir, capsys, name):
    # names that would write beside --out or at an absolute path are refused before anything is written
    doc = json.loads((scenario_dir / "fig6.json").read_text())
    doc["outputs"] = {"allocation": name.format(tmp=tmp_path)}
    cfg = tmp_path / "named.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "iw", "--config", str(cfg), "--out", str(tmp_path / "out" / "run"))
    assert (code, out) == (1, "")
    assert err.startswith("config error: outputs.allocation: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.rglob("*")] == ["named.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ("waterfill",),
        ("iw",),
        ("stackelberg", "--levels", "4"),
        ("pareto",),
        ("region",),
        ("vok", "--profile", "heter,priv"),
    ],
)
def test_seeded_outputs_are_byte_identical_power(tmp_path, scenario_dir, capsys, argv):
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _, _ = run(capsys, *argv, "--config", str(scenario_dir / "fig6.json"),
                         "--seed", "7", "--out", str(out_dir))
        assert code == 0
        outs.append({p.name: read(p) for p in sorted(out_dir.iterdir())})
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "solve"),
        ("ce", "check"),
        ("ce", "optimize"),
        ("learn", "--rounds", "300"),
    ],
)
def test_seeded_outputs_are_byte_identical_matrix(tmp_path, scenario_dir, capsys, argv):
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _, _ = run(capsys, *argv, "--config", str(scenario_dir / "contention.json"),
                         "--seed", "7", "--out", str(out_dir))
        assert code == 0
        outs.append({p.name: read(p) for p in sorted(out_dir.iterdir())})
    assert outs[0] == outs[1]


def test_ce_optimize_on_degenerate_simplex_grid_draw(tmp_path, capsys):
    # channel seed 88 made the Bland's-rule simplex report the CE polytope empty
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(simplex_grid_document(88)), encoding="utf-8")
    code, out, err = run(capsys, "ce", "optimize", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0, err
    assert out


def test_seeded_outputs_are_byte_identical_ensemble(tmp_path, scenario_dir, capsys):
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _, _ = run(capsys, "ensemble", "--config",
                         str(scenario_dir / "ensemble_default.json"),
                         "--seed", "7", "--out", str(out_dir), "--realizations", "4")
        assert code == 0
        outs.append({p.name: read(p) for p in sorted(out_dir.iterdir())})
    assert outs[0] == outs[1]


def test_learn_on_power_game_with_grid_actions(tmp_path, scenario_dir, capsys):
    doc = json.loads((scenario_dir / "fig6.json").read_text())
    doc["actions"] = {"type": "simplex_grid", "levels": 4}
    doc["learners"] = [{"kind": "regret_matching"}, {"kind": "regret_matching"}]
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "learn", "--config", str(cfg), "--out", str(tmp_path),
                       "--rounds", "500", "--seed", "1")
    assert code == 0
    dist = read(tmp_path / "distribution.csv").decode().splitlines()
    assert len(dist) == 1 + 5 * 5  # five splits of the budget per user


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_no_numpy_reprs_in_output(tmp_path, scenario_dir, capsys, fmt):
    cases = CLI_CASES + [("contention.json", ("matrix", "solve"))]
    for index, (config, argv) in enumerate(cases):
        out_dir = tmp_path / str(index)
        code, out, err = run(capsys, *argv, "--config", str(scenario_dir / config),
                             "--seed", "7", "--out", str(out_dir), "--format", fmt)
        assert code == 0, argv
        assert "np." not in out + err, (argv, out)
        for path in out_dir.iterdir():
            assert b"np." not in read(path), (argv, path.name)


def reference_emit(out_dir, base, fmt, header, rows):
    """The record writer as it was before blockwise encoding, kept as the byte reference."""

    def _fmt(value) -> str:
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    def _py(value):
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, (float, np.floating)):
            return float(value)
        return value

    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out_dir / f"{base}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    else:
        path = out_dir / f"{base}.json"
        records = [{key: _py(v) for key, v in zip(header, row)} for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return path


# the text between two records of a list that the C encoder writes in one
# call; each record is now encoded alone, so no encoder splits on it, and
# it stays here as a hostile value and key
JOIN = '"},\n    {"'
SCALARS = st.one_of(
    st.integers(),
    st.sampled_from([0, -1, 2 ** 70, -(2 ** 70)]),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e300, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(["", "a,b", 'say "hi"', "two\nlines", "cr\r", "nul\x00", "ünï €😀", JOIN,
                     JOIN.strip('"'), "}", "{"]),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    header=st.lists(st.one_of(st.text(min_size=1), st.sampled_from(["t", "u_1", JOIN])),
                    min_size=1, max_size=4),
    count=st.one_of(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
                    st.integers(0, 3 * _BLOCK)),
    pool=st.lists(SCALARS, min_size=1, max_size=12),
    stride=st.integers(1, 7),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_emit_matches_reference_writer(header, count, pool, stride, fmt):
    # rows cycle through a small drawn pool, so tables past the block size
    # stay cheap to generate
    width = len(header)
    rows = [tuple(pool[(r * stride + c) % len(pool)] for c in range(width)) for r in range(count)]
    with tempfile.TemporaryDirectory() as tmp:
        new = _emit(Path(tmp) / "new", "table", fmt, tuple(header), rows)
        old = reference_emit(Path(tmp) / "old", "table", fmt, tuple(header), rows)
        assert new.name == old.name
        assert read(new) == read(old)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", [True, False, np.float64(1.5), np.int64(3), np.bool_(True), None,
                                   (1, 2)], ids=repr)
@pytest.mark.parametrize("at", [0, _BLOCK + 3])
def test_emit_refuses_values_that_are_not_plain_scalars(tmp_path, fmt, value, at):
    rows = [(t, 0.5, "x") for t in range(_BLOCK + 5)]
    rows[at] = (at, value, "x")
    with pytest.raises(TypeError, match="^column 'value' holds"):
        _emit(tmp_path, "table", fmt, ("t", "value", "label"), rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_emit_over_a_longer_file_leaves_the_fresh_bytes(tmp_path, fmt):
    header = ("t", "value", "label")
    rows = [(t, 0.5, "x") for t in range(_BLOCK + 5)]
    rows[_BLOCK + 3] = (_BLOCK + 3, (1, 2), "x")
    stale = tmp_path / "used" / f"table.{fmt}"
    stale.parent.mkdir()
    stale.write_bytes(b"z" * 100_000)
    for out_dir in (tmp_path / "fresh", tmp_path / "used"):
        with pytest.raises(TypeError, match="^column 'value' holds"):
            _emit(out_dir, "table", fmt, header, rows)
    fresh = read(tmp_path / "fresh" / f"table.{fmt}")
    assert b"x" in fresh  # the first block was written before the second raised
    assert read(stale) == fresh


def test_emit_writes_through_a_fifo(tmp_path):
    fifo = tmp_path / "table.csv"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        _emit(tmp_path, "table", "csv", ("t", "value"), [(0, 0.5), (1, 1.5)])
        assert os.read(reader, 1024) == b"t,value\n0,0.5\n1,1.5\n"
    finally:
        os.close(reader)


def test_out_file_linked_to_dev_null_is_written_as_before(tmp_path, scenario_dir, capsys):
    argv = ["iw", "--config", str(scenario_dir / "fig6.json")]
    (tmp_path / "null").mkdir()
    (tmp_path / "null" / "allocation.csv").symlink_to(os.devnull)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "null"))
    assert (code, err) == (0, "")
    assert (tmp_path / "null" / "allocation.csv").is_char_device()
    assert run(capsys, *argv, "--out", str(tmp_path / "fresh")) == (0, out, "")


def _outputs(capsys, argv, out_dir):
    """stdout and the bytes of every file in `out_dir` after one successful call."""
    code, out, err = run(capsys, *argv, "--out", str(out_dir))
    assert code == 0, err
    return out, {p.name: read(p) for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("order", ["stale-longer", "stale-shorter", "same"])
@pytest.mark.parametrize("command", ["learn", "region"])
def test_rerun_into_a_used_out_writes_the_fresh_bytes(tmp_path, scenario_dir, capsys, command, order, fmt):
    if command == "learn":
        big = ["learn", "--config", str(scenario_dir / "contention.json"), "--rounds", "5000"]
        small = [*big[:-1], "300"]
        table = f"trace.{fmt}"
    else:
        fig6 = json.loads((scenario_dir / "fig6.json").read_text(encoding="utf-8"))
        one_point = tmp_path / "one_point.json"
        one_point.write_text(json.dumps({**fig6, "sweeps": {"weights": [[1.0, 1.0]]}}), encoding="utf-8")
        big = ["region", "--config", str(scenario_dir / "fig6.json")]
        small = ["region", "--config", str(one_point)]
        table = f"region.{fmt}"
    first, second = {"stale-longer": (big, small), "stale-shorter": (small, big), "same": (big, big)}[order]
    _, stale = _outputs(capsys, [*first, "--format", fmt], tmp_path / "used")
    rerun = _outputs(capsys, [*second, "--format", fmt], tmp_path / "used")
    assert rerun == _outputs(capsys, [*second, "--format", fmt], tmp_path / "fresh")
    if order == "same":
        assert stale == rerun[1]
    else:  # the case holds what its name says
        assert (len(stale[table]) > len(rerun[1][table])) == (order == "stale-longer")


def plain_trace_rows(trace):
    """One (t, actions, utilities) tuple per round, as the trace table was built before factoring."""
    return [(t, *a, *u) for t, (a, u) in enumerate(zip(trace.actions.tolist(), trace.utilities.tolist()))]


PAYOFFS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 2.0, -7.0, 1e16, 123456789.0]),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data(), counts=st.lists(st.integers(1, 4), min_size=2, max_size=3),
       rounds=st.one_of(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1]), st.integers(1, 3 * _BLOCK)),
       seed=st.integers(0, 2**32 - 1), fmt=st.sampled_from(["csv", "json"]))
def test_factored_trace_matches_plain_rows(data, counts, rounds, seed, fmt):
    n = len(counts)
    flat = data.draw(st.lists(PAYOFFS, min_size=math.prod(counts) * n, max_size=math.prod(counts) * n))
    game = NormalFormGame(np.array(flat).reshape(*counts, n))
    rng = np.random.default_rng(seed)
    # a few profiles over and over, as when learners settle, or every round drawn afresh
    pool = rng.integers(0, counts, size=(data.draw(st.integers(1, 6)), n))
    actions = pool[rng.integers(0, len(pool), size=rounds)] if seed % 2 else rng.integers(0, counts, size=(rounds, n))
    trace = LearningTrace(game, actions)
    _, header, records, codes = _trace_table(trace)
    assert len(records) == len(np.unique(actions, axis=0)) and len(codes) == rounds
    with tempfile.TemporaryDirectory() as tmp:
        new = _emit(Path(tmp) / "new", "trace", fmt, header, records, codes)
        old = _emit(Path(tmp) / "old", "trace", fmt, header, plain_trace_rows(trace))
        assert read(new) == read(old)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", [True, np.float64(1.5), np.int64(3), None], ids=repr)
def test_factored_emit_refuses_records_that_are_not_plain_scalars(tmp_path, fmt, value):
    # a game's payoffs are always float64, so its trace records hold float;
    # the factored table still checks each distinct record
    records = [(0, 0.5)] * (_BLOCK + 5)
    records[_BLOCK + 3] = (1, value)
    with pytest.raises(TypeError, match="^column 'u_1' holds"):
        _emit(tmp_path, "trace", fmt, ("t", "action_1", "u_1"), records, [0, _BLOCK + 3, 0])


def test_factored_emit_edge_records(tmp_path):
    # no rows, a record of no columns, and one empty string, which csv quotes
    # alone on a line but not after t
    for header, records, codes in [(("t", "x"), [(1.5,)], []), (("t",), [()], [0, 0]),
                                   (("t", "x"), [("",), ("a,b",)], [0, 1, 0])]:
        rows = [(t, *records[c]) for t, c in enumerate(codes)]
        for fmt in ("csv", "json"):
            new = _emit(tmp_path / "new", "table", fmt, header, records, codes)
            old = reference_emit(tmp_path / "old", "table", fmt, header, rows)
            assert read(new) == read(old), (header, records, codes, fmt)


def _run_sequence(capsys, root, calls):
    """Each call's exit code, stdout, stderr and output files, in one process."""
    results = []
    for index, argv in enumerate(calls):
        out_dir = root / str(index)
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        files = {p.name: read(p) for p in sorted(out_dir.iterdir())} if out_dir.exists() else {}
        results.append((code, out, err, files))
    return results


def subcommand_argvs():
    """A minimal command line for each subcommand, one per choice of its mode."""
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in sub.choices.items():
        modes = [a.choices for a in parser._actions if not a.option_strings and a.choices]
        for mode in modes[0] if modes else [None]:
            yield [name] + ([mode] if mode else [])


def test_every_subcommand_is_dispatched_from_the_parser(monkeypatch):
    runs = {}
    for argv in subcommand_argvs():
        args = _build_parser().parse_args([*argv, "--config", "doc.json"])
        assert callable(args.run), argv
        runs[" ".join(argv)] = args.run
    assert len(runs) == 11 and len(set(runs.values())) == 10  # ce check and optimize share one
    monkeypatch.setattr(cli, "_cmd_ce_check", lambda doc, args: "check")
    monkeypatch.setattr(cli, "_cmd_ce_optimize", lambda doc, args: "optimize")
    for mode in ("check", "optimize"):
        args = _build_parser().parse_args(["ce", mode, "--config", "doc.json"])
        assert args.run(None, args) == mode


def test_fixed_learner_without_action_is_refused_by_every_subcommand(tmp_path, scenario_dir, capsys):
    doc = json.loads((scenario_dir / "contention.json").read_text())
    doc["learners"][0] = {"kind": "fixed"}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    for argv in subcommand_argvs():
        code, out, err = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert (code, out) == (1, ""), argv
        assert err == "config error: learners[0].action: a fixed learner needs an action\n", argv
    assert not (tmp_path / "out").exists()


# per subcommand: a document it runs on, the record of a table it writes and
# its flags; learn's distribution table is the second of its two
WRITTEN = {
    "waterfill": ("fig6.json", "allocation", ()),
    "iw": ("fig6.json", "allocation", ()),
    "stackelberg": ("fig6.json", "allocation", ()),
    "pareto": ("fig6.json", "region", ()),
    "region": ("fig6.json", "region", ()),
    "matrix solve": ("fig6.json", "solution", ()),
    "ce check": ("contention.json", "solution", ()),
    "ce optimize": ("contention.json", "distribution", ()),
    "learn": ("contention.json", "distribution", ("--rounds", "20")),
    "vok": ("fig6.json", "solution", ()),
    "ensemble": ("ensemble_default.json", "ensemble", ("--realizations", "2")),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_table_that_cannot_be_written_leaves_stdout_empty(tmp_path, scenario_dir, capsys, fmt):
    argvs = list(subcommand_argvs())
    assert sorted(" ".join(argv) for argv in argvs) == sorted(WRITTEN)
    for argv in argvs:
        config, record, extra = WRITTEN[" ".join(argv)]
        out_dir = tmp_path / "-".join(argv)
        (out_dir / f"{record}.{fmt}").mkdir(parents=True)
        code, out, err = run(capsys, *argv, *extra, "--config", str(scenario_dir / config),
                             "--out", str(out_dir), "--format", fmt)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"config error: --out: cannot write {out_dir / record}.{fmt}: "), argv
        assert err.count("\n") == 1, argv


@pytest.mark.parametrize("fmt, table", [("csv", b"method,param1,param2,R_1,R_2\n"), ("json", b"[]\n")])
def test_pareto_without_weights_prints_nothing(tmp_path, scenario_dir, capsys, fmt, table):
    doc = json.loads((scenario_dir / "fig6.json").read_text(encoding="utf-8"))
    doc["sweeps"]["weights"] = []
    config = tmp_path / "none.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "pareto", "--config", str(config), "--out", str(tmp_path / "out"),
                         "--format", fmt)
    assert (code, out, err) == (0, "", "")
    assert read(tmp_path / "out" / f"region.{fmt}") == table


def test_cached_parser_gives_fresh_results(tmp_path, scenario_dir, capsys):
    contention = ["--config", str(scenario_dir / "contention.json"), "--seed", "7"]
    fig6 = ["--config", str(scenario_dir / "fig6.json")]
    calls = [
        ["learn", "--rounds", "20", *contention],
        ["learn", *contention],
        ["stackelberg", "--levels", "3", *fig6],
        ["stackelberg", *fig6],
        ["iw"],  # usage error: no --config
        ["--help"],
        ["iw", *fig6, "--format", "json"],
    ]
    _build_parser.cache_clear()
    reused = _run_sequence(capsys, tmp_path / "reused", calls)
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for index, argv in enumerate(calls):
        _build_parser.cache_clear()
        fresh += _run_sequence(capsys, tmp_path / "fresh" / str(index), [argv])
    assert reused == fresh
    assert [code for code, *_ in reused] == [0, 0, 0, 0, 1, 0, 0]
    assert len(reused[0][3]["trace.csv"].splitlines()) == 21
    assert len(reused[1][3]["trace.csv"].splitlines()) == 5001  # the document's rounds
    levels_3, levels_10 = (int(out.rsplit("candidates=", 1)[1]) for _, out, _, _ in reused[2:4])
    # fig6's leader splits its budget over 2 bins: comb(levels + 2, 2) grid points, plus Nash
    assert (levels_3, levels_10) == (math.comb(5, 2) + 1, math.comb(12, 2) + 1)
    assert "usage:" in reused[4][2] and "usage:" in reused[5][1]


DROP = object()  # an `_edit` value that removes the field


def _edit(doc, path, value):
    """Set (or with DROP remove) one field of a nested document, addressed by a tuple of keys."""
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DROP:
        del target[path[-1]]
    else:
        target[path[-1]] = value


THREE_PLAYER = {
    "version": 1,
    "kind": "matrix_game",
    "actions": [["a", "b"], ["c", "d"], ["e", "f"]],
    "payoffs": [
        [[[1, 2, 3], [0, 1, 2]], [[2, 2, 2], [1, 0, 1]]],
        [[[0, 0, 1], [3, 1, 0]], [[1, 1, 1], [2, 0, 2]]],
    ],
}


# sha256 of the learn outputs and stdout, captured from the writer that built
# one record per round.  The 8x8 simplex_grid game takes fig6's fixed gains:
# a seeded channel draw differs with the machine's BLAS kernels (its bytes
# change under OPENBLAS_CORETYPE=Prescott), these gains do not.
LEARN_PINS = {
    ("contention", "csv"): {
        "distribution.csv": "b69314e79c961d7f1cdb955d1c565f148de2811f90448d88ae46435560448948",
        "trace.csv": "13539be3363a6b6256861d1c3b456c07202137d2ee7fe156152a23ae5c53eca3",
        "stdout": "a15a78e7797d337b21cc12d481e1ea1eb9f71fe88a0950fcad77d8838fdcf701",
    },
    ("contention", "json"): {
        "distribution.json": "bf21551330c7bbd3e2af2eb7b4a7c188309708507607ca7cac005db92c42cb9f",
        "trace.json": "8a984dfd461d567dcc524a2e650f17b1915dae232816e013aca79856070c1760",
        "stdout": "a15a78e7797d337b21cc12d481e1ea1eb9f71fe88a0950fcad77d8838fdcf701",
    },
    ("contention-300", "csv"): {
        "distribution.csv": "f77d40c6993b5a46bfb4f6f2ae77a2fdad9a9f5e0b9f588668ac27577010f2c2",
        "trace.csv": "4c731e494bfcb5594097b1f8b0f0d8fd76133aefefd515ef7eeb226a58434d82",
        "stdout": "c7221b28be2cda852278719c949ba033028b2fe9af8596526b45d71f52254448",
    },
    ("contention-300", "json"): {
        "distribution.json": "cee343634b53ddfa845449c0fa48adcdbce06aa0099320debaab5f4bd8317c45",
        "trace.json": "4c7751200e553cb798afc287fb597c58317991eb0b19848afc0bba36fd85521a",
        "stdout": "c7221b28be2cda852278719c949ba033028b2fe9af8596526b45d71f52254448",
    },
    ("simplex_grid", "csv"): {
        "distribution.csv": "1e77d5b0d8946ed4c8921d6697bb7e1a89c0f72694fe2bf4b974150e8769a4d7",
        "trace.csv": "77637bf18914b3690f77279ed88c0a7c844bc6c2c9db3a0571fdb46e5f2abc0f",
        "stdout": "ac8891a9060da6687f24156497519d8c88e7bb61fbe7efc06dc06642dd1f81dc",
    },
    ("simplex_grid", "json"): {
        "distribution.json": "2e091c9d37f52fa7e7fdd62d1b7fe42afbba9d6793e49a48811c5c4965adc544",
        "trace.json": "0202b4946e89bcdd5f4f6f9f2e1baabea5b82dd1f18828fe8e45697e65b9a86d",
        "stdout": "ac8891a9060da6687f24156497519d8c88e7bb61fbe7efc06dc06642dd1f81dc",
    },
    ("three_player", "csv"): {
        "distribution.csv": "8e4d75c874703b47e076f08b1fadacc0658df354080e7351bb05bf707a485b80",
        "trace.csv": "96f661b50a31383aa042a9b15be17b2959af383feeb9390a43876c165f37be25",
        "stdout": "d5637309d45115d53337dfe6e13c13271022c4507b772fe54e5f05db66ea2d50",
    },
    ("three_player", "json"): {
        "distribution.json": "0df0c106ac1054fffb7db7a880e43aaa0d6c1d54da0049535cba1bd928101244",
        "trace.json": "383258d711a633e0d61c2a725b81d4ecaba1967be07fd8444b4d7dd4fc782255",
        "stdout": "d5637309d45115d53337dfe6e13c13271022c4507b772fe54e5f05db66ea2d50",
    },
}
LEARN_CASES = {
    "contention": ("contention.json", ()),
    "contention-300": ("contention.json", ("--rounds", "300")),
    "simplex_grid": ({**simplex_grid_document(7), "rounds": 2000,
                      "channels": {"gains": [[[1.0, 1.0], [0.8, 0.4]], [[0.4, 0.4], [1.0, 1.0]]]},
                      "learners": [{"kind": "regret_matching"}, {"kind": "regret_matching"}]}, ("--seed", "3")),
    "three_player": ({**THREE_PLAYER, "rounds": 1000, "learners": [
        {"kind": "regret_matching"}, {"kind": "fictitious_play"}, {"kind": "reinforcement"}]}, ("--seed", "5")),
}


def output_digests(tmp_path, scenario_dir, capsys, command, config, extra, fmt):
    """sha256 of each file a command writes, and of its stdout."""
    if isinstance(config, dict):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(config), encoding="utf-8")
    else:
        path = scenario_dir / config
    code, out, _ = run(capsys, *command, "--config", str(path), *extra, "--out", str(tmp_path / "out"),
                       "--format", fmt)
    assert code == 0
    digests = {p.name: hashlib.sha256(read(p)).hexdigest() for p in sorted((tmp_path / "out").iterdir())}
    digests["stdout"] = hashlib.sha256(out.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(LEARN_CASES))
def test_learn_output_bytes_are_pinned(tmp_path, scenario_dir, capsys, case, fmt):
    config, extra = LEARN_CASES[case]
    digests = output_digests(tmp_path, scenario_dir, capsys, ("learn",), config, extra, fmt)
    assert digests == LEARN_PINS[case, fmt]


# sha256 of the ce optimize outputs and stdout, captured from the ratio test
# that walked its tie-breaking keys one by one; the 8x8 game again takes
# fig6's fixed gains.
CE_PINS = {
    ("contention", "csv"): {
        "distribution.csv": "019ef09416bdd8efba2b8385bb5640daa8784b7a86924411afb0c6bbadfed435",
        "stdout": "ec956c04eb9061d190556acff269228bcfe4628aa9933f1eb5afccdc045a1410",
    },
    ("contention", "json"): {
        "distribution.json": "b2534ef7d800d78aa5b8bdafbd1128f140e56da00172fb31079dba69f9e64e36",
        "stdout": "ec956c04eb9061d190556acff269228bcfe4628aa9933f1eb5afccdc045a1410",
    },
    ("simplex_grid", "csv"): {
        "distribution.csv": "c4d15a7a20a42dda74625563f9c77b87057734d9a817d3971062027996a37857",
        "stdout": "1e92d6f04070a0889c8a1b74938fde81307d8d4425021313a2a69302e491cf7f",
    },
    ("simplex_grid", "json"): {
        "distribution.json": "e028c353baac15eb1332b99d53615cdd9d96d5be55cbc89f13b3928be68c0b4a",
        "stdout": "1e92d6f04070a0889c8a1b74938fde81307d8d4425021313a2a69302e491cf7f",
    },
}
CE_CASES = {
    "contention": "contention.json",
    "simplex_grid": {**simplex_grid_document(7), "channels": {"gains": FIG6_GAINS},
                     "ce": {"weights": [1.0, 1.0]}},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(CE_CASES))
def test_ce_optimize_output_bytes_are_pinned(tmp_path, scenario_dir, capsys, case, fmt):
    digests = output_digests(tmp_path, scenario_dir, capsys, ("ce", "optimize"), CE_CASES[case], (), fmt)
    assert digests == CE_PINS[case, fmt]


# sha256 of the power-game outputs and stdout at --seed 7, captured while the
# leader search still priced its returned pair for both users again.
# Criterion 11 only checks that these commands repeat; these pins hold their
# bytes across changes.  The ensemble draws its channels through a BLAS dot,
# so its bytes also depend on the machine's BLAS kernel.  ROADMAP item 2
# (machine-independent output bytes) will re-pin them as a declared change.
POWER_PINS = {
    ("waterfill", "csv"): {
        "allocation.csv": "06b9a19526e975a17f8d73dee7f6cbbb18bf200f5d663df05244abfa6be7d24d",
        "stdout": "b288a9ad0daa0be2ac55bcba53d24468adc232f4ac462e5f16a1e43ec001f8a2",
    },
    ("waterfill", "json"): {
        "allocation.json": "9c3b7342e28990bbd8447433f14a1c03484f4fb0ba29a2c01c4df7f25ff236b6",
        "stdout": "b288a9ad0daa0be2ac55bcba53d24468adc232f4ac462e5f16a1e43ec001f8a2",
    },
    ("iw", "csv"): {
        "allocation.csv": "a6ec34da37e92d35411f56f4f5352162cf593e8e77e0267941c588f639fc5934",
        "stdout": "9354ee6a2775720e9b0b0be9a390b3acd09622818e1e2dbb7ee69fbde5315811",
    },
    ("iw", "json"): {
        "allocation.json": "14979c1176e131eb870e360ba1c6e1a14739ee8af60cf2bc4d0c764431e931a5",
        "stdout": "9354ee6a2775720e9b0b0be9a390b3acd09622818e1e2dbb7ee69fbde5315811",
    },
    ("stackelberg", "csv"): {
        "allocation.csv": "b7eaeaba990e9c56ef15eaa4f169f6668a897d935127fdff9970133c5403d3dd",
        "stdout": "d77d147607828eb71ed7b0ae151eeb600f3440441d2777b4b1aaf5bd096b32f6",
    },
    ("stackelberg", "json"): {
        "allocation.json": "9a33f256318c876e26577d033337b2a34c264d4cd52ad43db80b489fcddd8790",
        "stdout": "d77d147607828eb71ed7b0ae151eeb600f3440441d2777b4b1aaf5bd096b32f6",
    },
    ("pareto", "csv"): {
        "region.csv": "c62f8257d1c0a4674a35d9866ed4791e8df0cc4c95b2e9cef8eac49217ee3cf5",
        "stdout": "23384f0e138e0a4ab10faf952a3a58c45390745105b79b486666f25ce145af7e",
    },
    ("pareto", "json"): {
        "region.json": "bb003dbdca157d5612c2176b5e6f35f685b851718f853e42a8528d6aca99e877",
        "stdout": "23384f0e138e0a4ab10faf952a3a58c45390745105b79b486666f25ce145af7e",
    },
    ("region", "csv"): {
        "region.csv": "cb5cb253b6acac0fb60d8b75e92c7b6fdc8d7f3043f8a2e1d94174f605be5405",
        "stdout": "be1f30402579f8eb12024099a57151bbead0c410e6511856b860f7c96ba9b7b8",
    },
    ("region", "json"): {
        "region.json": "89881409cd11b2b8e3c834bc697537f17683551a361c83d596b98065d7bd063d",
        "stdout": "be1f30402579f8eb12024099a57151bbead0c410e6511856b860f7c96ba9b7b8",
    },
    ("vok", "csv"): {
        "solution.csv": "8e9a1242cc89caa04a7e11ab2b8a173cac75f0ed63a0fe9bdaeebdc1e7af1c8d",
        "stdout": "dc60e2d4ea7493dc80bfedf5dbd8b39b5957610c45591e57f0c4bffd2ae5b6af",
    },
    ("vok", "json"): {
        "solution.json": "c18ecdcd2eca1922cb578305f9e3a542783439c1fc94e4089b48804675ca273b",
        "stdout": "dc60e2d4ea7493dc80bfedf5dbd8b39b5957610c45591e57f0c4bffd2ae5b6af",
    },
    ("ensemble", "csv"): {
        "ensemble.csv": "fb01e88d5406f7c8458109250cfb385b10d4a9d6df10ef7add47c273b6dd24af",
        "stdout": "68a97613616596e5bdb4f6e5be6f493d93a3b8974f0a3f4967e92e60bd71de58",
    },
    ("ensemble", "json"): {
        "ensemble.json": "b1e7cca790aef6471d9db157c8fb87a30fdcf238bdf4abee1449384671c03c41",
        "stdout": "68a97613616596e5bdb4f6e5be6f493d93a3b8974f0a3f4967e92e60bd71de58",
    },
}
POWER_CASES = {
    "waterfill": ("fig6.json", ("waterfill",), ()),
    "iw": ("fig6.json", ("iw",), ()),
    "stackelberg": ("fig6.json", ("stackelberg",), ()),
    "pareto": ("fig6.json", ("pareto",), ()),
    "region": ("fig6.json", ("region",), ()),
    "vok": ("fig6.json", ("vok",), ("--profile", "heter,priv")),
    "ensemble": ("ensemble_default.json", ("ensemble",), ("--realizations", "4")),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(POWER_CASES))
def test_power_game_output_bytes_are_pinned(tmp_path, scenario_dir, capsys, case, fmt):
    config, command, extra = POWER_CASES[case]
    digests = output_digests(tmp_path, scenario_dir, capsys, command, config, (*extra, "--seed", "7"), fmt)
    assert digests == POWER_PINS[case, fmt]


# sha256 of the matrix solve and ce check outputs and stdout, captured while
# each subcommand still wrote its own table and printed its own lines.
SOLUTION_PINS = {
    ("matrix-contention", "csv"): {
        "solution.csv": "ac4d7053933fbc819c915a2b70968336b8df39497d9db3276860951f3f64399d",
        "stdout": "0c352383c2ae4ed3b3e1e612179ac7f8b255f96e8e4aed4b6592f80b544a045b",
    },
    ("matrix-contention", "json"): {
        "solution.json": "00d45d13646fd73268a0a41a2d157b7787b4c7f37dfe15c282117bd1e55acc7f",
        "stdout": "0c352383c2ae4ed3b3e1e612179ac7f8b255f96e8e4aed4b6592f80b544a045b",
    },
    ("matrix-fig6", "csv"): {
        "solution.csv": "92d42f7399c1f75f5ac27bf15db3beed8527034547994d9080c3728f9977b5d1",
        "stdout": "c358bb25353db231c3063a888b5c7fdb2b64a298aee9b810703638870cbd1591",
    },
    ("matrix-fig6", "json"): {
        "solution.json": "084162a2838fa5fbfd49504b3466ad0ccfe25c0dc8507cb8069634a3142b4690",
        "stdout": "c358bb25353db231c3063a888b5c7fdb2b64a298aee9b810703638870cbd1591",
    },
    ("ce-check", "csv"): {
        "solution.csv": "d5027dcbd9a954f7e28409bda8f2f1407592995ab2c6b1479a84423b928fe7b2",
        "stdout": "3c2747161282f6231604b62e285c16b4e36bfc1a1281764956cab4b97520d5da",
    },
    ("ce-check", "json"): {
        "solution.json": "fcb4a8c63acda49051a0c398f184032fd6498850f8b13176eb20072e3cd2597e",
        "stdout": "3c2747161282f6231604b62e285c16b4e36bfc1a1281764956cab4b97520d5da",
    },
}
SOLUTION_CASES = {
    "matrix-contention": ("contention.json", ("matrix", "solve")),
    "matrix-fig6": ("fig6.json", ("matrix", "solve")),
    "ce-check": ("contention.json", ("ce", "check")),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(SOLUTION_CASES))
def test_solution_output_bytes_are_pinned(tmp_path, scenario_dir, capsys, case, fmt):
    config, command = SOLUTION_CASES[case]
    digests = output_digests(tmp_path, scenario_dir, capsys, command, config, (), fmt)
    assert digests == SOLUTION_PINS[case, fmt]


@pytest.mark.parametrize(
    "config, edits, argv, field",
    [
        ("contention.json", [(("learners", 0), {"kind": "fixed", "action": 5})], ("learn",),
         "learners[0].action"),
        ("contention.json", [(("learners", 1), {"kind": "best_response_myopic", "start": 2})],
         ("learn",), "learners[1].start"),
        ("contention.json", [(("learners", 0), {"kind": "fixed"})], ("learn",),
         "learners[0].action"),
        ("contention.json", [(("start_profile",), [0, 7])], ("vok",), "start_profile[1]"),
        ("fig6.json", [(("actions",), DROP), (("start_profile",), [5, 9])], ("vok",), "start_profile"),
        ("contention.json", [(("knowledge",), ["heterogeneous_leader"] * 2)], ("vok",),
         "knowledge"),
        ("contention.json", [], ("vok", "--profile", "priv"), "--profile"),
        ("fig6.json", [(("budgets", 0), float("nan"))], ("iw",), "budgets[0]"),
        ("fig6.json", [(("noise",), float("inf"))], ("iw",), "noise"),
        (THREE_PLAYER, [], ("matrix", "solve"), "actions"),
        ("ensemble_default.json", [(("noise",), [[1.0] * 8] * 2)], ("ensemble",), "noise"),
        ("fig6.json", [(("ensemble",), {"realizations": 2})], ("ensemble",), "channels.gains"),
        ("ensemble_default.json", [(("channels", "cross_power"), -0.5)], ("ensemble",),
         "channels.cross_power"),
        ("ensemble_default.json", [(("budgets",), [100.0] * 3)], ("ensemble",), "budgets"),
        ("ensemble_default.json", [(("actions",), {"type": "concentrate_spread"})],
         ("matrix", "solve"), "actions.type"),
        ("fig6.json", [(("sweeps", "weights"), [[-1.0, 2.0]])], ("pareto",), "sweeps.weights[0]"),
        ("fig6.json", [(("sweeps", "weights"), [[0.0, 0.0]])], ("pareto",), "sweeps.weights[0]"),
        ("fig6.json", [(("sweeps", "weights"), [[1.0, 0.0], [-1.0, 2.0]])], ("region",),
         "sweeps.weights[1]"),
        ("fig6.json", [(("sweeps", "weights"), [[0.0, 0.0]])], ("region",), "sweeps.weights[0]"),
        ("fig6.json", [(("sweeps", "budget_pairs"), [[0.0, 10.0]])], ("region",),
         "sweeps.budget_pairs[0][0]"),
        ("fig6.json", [(("sweeps", "levels"), 1)], ("region",), "sweeps.levels"),
        ("ensemble_default.json", [(("budgets",), [100.0] * 3)], ("stackelberg",), "budgets"),
        ("ensemble_default.json", [(("budgets",), [100.0] * 3)], ("pareto",), "budgets"),
        ("ensemble_default.json", [(("budgets",), [100.0] * 3)], ("region",), "budgets"),
        ("ensemble_default.json", [(("budgets",), [100.0] * 3), (("knowledge",), ["private"] * 3)],
         ("vok",), "budgets"),
        (THREE_PLAYER, [(("knowledge",), ["heterogeneous_leader", "private", "private"])], ("vok",),
         "knowledge"),
        (THREE_PLAYER, [], ("vok", "--profile", "priv,heter,priv"), "--profile"),
        ("contention.json", [], ("ensemble",), "kind"),
        ("fig6.json", [], ("stackelberg", "--leader", "0"), "--leader"),
        ("fig6.json", [], ("stackelberg", "--leader", "3"), "--leader"),
        ("fig6.json", [], ("stackelberg", "--levels", "1"), "--levels"),
        ("fig6.json", [], ("waterfill", "--user", "3"), "--user"),
        ("contention.json", [], ("learn", "--rounds", "0"), "--rounds"),
        ("ensemble_default.json", [], ("ensemble", "--realizations", "0"), "--realizations"),
        ("contention.json", [], ("ce", "check", "--tol", "-1"), "--tol"),
        ("fig6.json", [(("channels", "gains", 1, 0, 1), -0.4)], ("iw",), "channels.gains[1][0][1]"),
        ("fig6.json", [(("channels", "gains", 1, 1, 0), 1e300)], ("iw",), "budgets[1]"),
        ("fig6.json", [(("budgets", 0), 1e300)], ("waterfill",), "budgets[0]"),
        ("ensemble_default.json", [(("budgets", 0), 1e14)], ("stackelberg",), "budgets[0]"),
        ("ensemble_default.json", [(("budgets",), [1e300, 100.0])],
         ("ensemble", "--realizations", "3"), "budgets[0]"),
        ("ensemble_default.json", [(("grid",), {"bins": 3, "band": 1e-320})], ("iw",), "grid.band"),
        ("contention.json", [(("learners", 0), {"kind": "regret_matching", "action": 1})],
         ("learn",), "learners[0].action"),
        ("contention.json", [(("learners", 1), {"kind": "fixed", "action": 0, "start": 1})],
         ("learn",), "learners[1].start"),
        ("fig6.json", [(("actions",), {"type": "concentrate_spread", "levels": 7})],
         ("matrix", "solve"), "actions.levels"),
        ("contention.json", [(("learners", 0), {"kind": "fixed"})], ("matrix", "solve"),
         "learners[0].action"),
        ("contention.json", [(("ce", "distribution"), [0.5, 0.5])], ("ce", "check"), "ce.distribution"),
        ("contention.json", [], ("vok", "--profile", "priv,bogus"), "--profile"),
        ("fig6.json", [(("actions",), {"type": "bogus"})], ("matrix", "solve"), "actions.type"),
        ("fig6.json", [(("outputs",), {"region": ""})], ("pareto",), "outputs.region"),
        ("fig6.json", [(("outputs",), {"allocation": "../escaped"})], ("iw",), "outputs.allocation"),
        ("fig6.json", [(("outputs",), {"allocation": "/dev/null/escaped"})], ("iw",), "outputs.allocation"),
        ("fig6.json", [(("outputs",), {"allocation": "sub/name"})], ("iw",), "outputs.allocation"),
        ("fig6.json", [(("outputs",), {"allocation": "."})], ("iw",), "outputs.allocation"),
        ("fig6.json", [(("outputs",), {"allocation": ".."})], ("iw",), "outputs.allocation"),
        ("fig6.json", [(("outputs",), {"region": "nul\0name"})], ("pareto",), "outputs.region"),
        ("fig6.json", [], ("ensemble",), "ensemble.realizations"),
        ("fig6.json", [(("actions",), DROP)], ("matrix", "solve"), "actions"),
        ("ensemble_default.json", [(("ensemble", "realizations"), DROP)], ("ensemble",),
         "ensemble.realizations"),
        ("contention.json", [(("rounds",), DROP)], ("learn",), "rounds"),
        ("contention.json", [(("learners",), DROP)], ("learn",), "learners"),
        ("contention.json", [(("knowledge",), DROP)], ("vok",), "knowledge"),
    ],
)
def test_bad_document_is_a_field_error(tmp_path, scenario_dir, capsys, config, edits, argv, field):
    if isinstance(config, dict):
        doc = json.loads(json.dumps(config))
    else:
        doc = json.loads((scenario_dir / config).read_text())
    for path, value in edits:
        _edit(doc, path, value)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 1, err
    assert f"config error: {field}:" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [("matrix", "solve"), ("pareto",), ("stackelberg",)])
def test_subnormal_budget_step_is_refused_by_every_command(tmp_path, scenario_dir, capsys, argv):
    # a step of 5e-324 / 10 rounds to zero: no command may quietly silence user 1
    doc = json.loads((scenario_dir / "fig6.json").read_text())
    doc.update(budgets=[5e-324, 10.0], actions={"type": "simplex_grid"})
    cfg = tmp_path / "subnormal.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2, out
    assert err == "numerical failure: power step 5e-324 / (10 * 1.0) is not positive and finite\n"


@pytest.mark.parametrize("levels", [10**6, 10**30])
def test_matrix_solve_refuses_an_oversized_simplex_grid(tmp_path, scenario_dir, capsys, levels):
    doc = json.loads((scenario_dir / "fig6.json").read_text())
    doc["actions"] = {"type": "simplex_grid", "levels": levels}
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "matrix", "solve", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == (f"numerical failure: oracle scale exceeded: {(levels + 1) ** 2} joint profiles "
                   f"over cap 4000000\n")


def test_ensemble_honours_document_channels_and_noise(tmp_path, scenario_dir, capsys):
    doc = json.loads((scenario_dir / "ensemble_default.json").read_text())
    doc["channels"]["cross_power"] = 0
    doc["noise"] = 50
    cfg = tmp_path / "decoupled.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, _, _ = run(capsys, "ensemble", "--config", str(cfg), "--out", str(tmp_path),
                     "--realizations", "6", "--format", "json")
    assert code == 0
    rows = json.loads(read(tmp_path / "ensemble.json"))
    assert len(rows) == 7
    for row in rows:
        # decoupled users: the leader cannot move the follower, so leading is Nash
        assert abs(row["ratio_1"] - 1.0) <= 1e-12 and abs(row["ratio_2"] - 1.0) <= 1e-12, row


def test_ce_check_reports_every_player(tmp_path, capsys):
    doc = dict(THREE_PLAYER, ce={"distribution": [0.125] * 8})
    cfg = tmp_path / "three.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "ce", "check", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    assert "expected utilities: (1.25, 0.875, 1.5)" in out
    lines = read(tmp_path / "solution.csv").decode().splitlines()
    assert lines[0] == "record,detail,value_1,value_2,value_3"
    assert lines[2] == "ce_values,,1.25,0.875,1.5"


def _fuzz_document(draw, users, matrix):
    """A document for `users` users: a matrix game, or a power game on two bins."""
    knowledge = [draw(st.sampled_from(KNOWLEDGE_LEVELS)) for _ in range(users)]
    common = {
        "knowledge": knowledge,
        "start_profile": [0] * users,
        "learners": [{"kind": "regret_matching"}] * users,
        "rounds": 20,
        "seed": 3,
        "ce": {"distribution": [1.0 / 2 ** users] * 2 ** users},
    }
    if matrix:
        payoffs = np.arange(2 ** users * users, dtype=float).reshape((2,) * users + (users,))
        return dict(common, version=1, kind="matrix_game", actions=[["a", "b"]] * users,
                    payoffs=(payoffs % 5).tolist())
    # weight rows: three valid shapes, then a negative entry and a zero sum
    weights = st.sampled_from([
        [1.0] * users, [1.0] + [0.0] * (users - 1), [0.5] + [1.0] * (users - 1),
        [-1.0] + [2.0] * (users - 1), [0.0] * users,
    ])
    return dict(
        common, version=1, kind="power_game",
        grid={"bins": 2, "band": 2.0},
        channels={"seed": draw(st.integers(0, 5)), "taps": 2},
        noise=1.0,
        budgets=[10.0] * users,
        actions={"type": "concentrate_spread"},
        sweeps={
            "budget_pairs": [[10.0] * users],
            "weights": draw(st.lists(weights, max_size=2)),
            "levels": draw(st.sampled_from([3, 1, 2])),
        },
        ensemble={"realizations": 2, "taps": 2},
    )


FINITE_COMMANDS = ("matrix solve", "ce check", "ce optimize", "learn", "vok")
FUZZ_FLAGS = {
    "waterfill": ("--user", [1, 0, 2, 4]),
    "stackelberg": ("--leader", [1, 0, 2, 3]),
    "learn": ("--rounds", [20, 0, 1]),
    "ensemble": ("--realizations", [2, 0, 1]),
    "ce check": ("--tol", [1e-9, -1.0, 0.0]),
}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_never_escapes_with_a_traceback(data):
    command = data.draw(st.sampled_from([
        "waterfill", "iw", "stackelberg", "pareto", "region", "matrix solve",
        "ce check", "ce optimize", "learn", "vok", "ensemble",
    ]), label="command")
    users = data.draw(st.sampled_from([2, 1, 3]), label="users")
    # a matrix game only where the command can take one, so that most power
    # commands reach their solvers
    matrix = command in FINITE_COMMANDS and data.draw(st.booleans(), label="matrix")
    doc = _fuzz_document(data.draw, users, matrix)
    argv = command.split()
    if command in FUZZ_FLAGS:
        flag, values = FUZZ_FLAGS[command]
        argv += [flag, str(data.draw(st.sampled_from(values), label=flag))]
    if command == "vok":
        tokens = st.lists(st.sampled_from(["heter", "priv", "comp"]), min_size=users, max_size=users)
        argv += ["--profile", ",".join(data.draw(tokens, label="--profile"))]
    if command == "stackelberg":
        argv += ["--levels", str(data.draw(st.sampled_from([3, 1, 2]), label="--levels"))]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "doc.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


SCENARIO_COMMANDS = {
    "fig6.json": ("waterfill", "iw", "stackelberg", "pareto", "region", "matrix solve",
                  "ce check", "ce optimize", "learn", "vok"),
    "contention.json": ("matrix solve", "ce check", "ce optimize", "learn", "vok"),
    "ensemble_default.json": ("ensemble", "waterfill", "iw", "stackelberg", "pareto", "region"),
}


def _field_paths(node, prefix=()):
    """Every field of a JSON document as a key/index path, parents first."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _mutated(value, kind, retype):
    if kind == "retype":
        return retype
    if kind == "nan":
        return float("nan")
    if kind == "huge":
        return 1e300
    if kind == "tiny":
        return 5e-324
    if kind == "empty list":
        return []
    # negative: flip a positive number, otherwise -1
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return -value if number and value > 0 else -1


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_scenario_mutations_never_escape(scenario_dir, data):
    # one field of a shipped scenario dropped, retyped, or set to NaN, a
    # negative, huge or subnormal number, or an empty list; "huge" is a
    # float, so integer counts are retyped rather than made unbounded
    name = data.draw(st.sampled_from(sorted(SCENARIO_COMMANDS)), label="scenario")
    doc = json.loads((scenario_dir / name).read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(list(_field_paths(doc))), label="field")
    kind = data.draw(st.sampled_from(["drop", "retype", "nan", "negative", "huge", "tiny", "empty list"]),
                     label="mutation")
    retype = data.draw(st.sampled_from(["text", True, None, {"x": 1}]), label="retype")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _mutated(parent[path[-1]], kind, retype)
    argv = data.draw(st.sampled_from(SCENARIO_COMMANDS[name]), label="command").split()
    if argv == ["ensemble"]:
        argv += ["--realizations", "2"]  # the document's count is still validated
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "doc.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2), (path, kind, argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
