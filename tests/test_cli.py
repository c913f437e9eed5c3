import json

import pytest

from specgames.cli import main

from test_acceptance import CLI_CASES


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
