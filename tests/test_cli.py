"""End-to-end tests of the command-line interface on the small built-in
configuration: files written, formats stable, exit codes correct."""

import json
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest

from fidelityq import cli
from fidelityq.config import builtin_config
from fidelityq.errors import GuaranteeViolationError, PolicyMismatchError
from fidelityq.model import SmdpModel
from fidelityq.solver import value_iteration


def run(*argv):
    return cli.main(list(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ("solve",),
        ("check", "--episodes", "200"),
        ("sweep", "--grid", "0.3,0.5"),
        ("simulate", "--episodes", "200", "--trajectories", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_never_build_the_dense_kernel(tmp_path, monkeypatch, argv):
    """Solving, grading and simulating read the factored kernel only: no
    command gathers a dense pair row."""

    def never(model, states, columns):
        raise AssertionError("gathered dense pair rows")

    monkeypatch.setattr(SmdpModel, "pair_rows", never)
    assert run(*argv, "--config", "tiny", "--out", str(tmp_path / "out")) == 0


@pytest.fixture()
def solved_dir(tmp_path):
    out = tmp_path / "out"
    assert run("solve", "--config", "tiny", "--out", str(out)) == 0
    return out


class TestSolve:
    def test_writes_all_artifacts(self, solved_dir):
        for name in [
            "value.csv",
            "policy.csv",
            "convergence.json",
            "value_heatmap.svg",
            "policy_heatmap.svg",
        ]:
            assert (solved_dir / name).is_file(), name

    def test_value_csv_layout(self, solved_dir):
        cfg = builtin_config("tiny")
        lines = (solved_dir / "value.csv").read_text().splitlines()
        assert lines[0] == f"# config: {cfg.digest}"
        assert lines[1] == "q,cog_index,cog_level,value"
        assert len(lines) == 2 + 4 * 3
        q, cog, level, value = lines[2].split(",")
        assert (q, cog, level) == ("0", "0", "0.0")
        float(value)

    def test_convergence_report_fields(self, solved_dir):
        payload = json.loads((solved_dir / "convergence.json").read_text())
        assert payload["converged"] is True
        assert payload["residual"] <= payload["epsilon"]
        assert payload["n_states"] == 12

    def test_policy_roundtrip(self, solved_dir):
        cfg = builtin_config("tiny")
        model = cfg.build_model()
        solution = value_iteration(model)
        loaded = cli.read_policy_csv(solved_dir / "policy.csv", model)
        assert (loaded == solution.policy).all()

    def test_heatmaps_are_valid_svg(self, solved_dir):
        for name in ["value_heatmap.svg", "policy_heatmap.svg"]:
            root = ET.fromstring((solved_dir / name).read_text())
            assert root.tag.endswith("svg")
            rects = [el for el in root.iter() if el.tag.endswith("rect")]
            assert len(rects) >= 4 * 3

    def test_heatmap_titles_are_escaped(self, tmp_path):
        """A config name with XML markup characters still gives heatmaps
        that parse, with the name as the title's text."""
        tiny = (resources.files("fidelityq") / "configs" / "tiny.yaml").read_text()
        cfg_file = tmp_path / "markup.yaml"
        cfg_file.write_text(tiny.replace("name: tiny", 'name: "R&D <pilot>"'))
        out = tmp_path / "out"
        assert run("solve", "--config", str(cfg_file), "--out", str(out)) == 0
        for name in ["value_heatmap.svg", "policy_heatmap.svg"]:
            root = ET.fromstring((out / name).read_text())
            title = next(el for el in root.iter() if el.tag.endswith("text"))
            assert "R&D <pilot>" in title.text, name

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("solve", "--config", "tiny", "--out", str(a)) == 0
        assert run("solve", "--config", "tiny", "--out", str(b)) == 0
        for name in ["value.csv", "policy.csv", "convergence.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unconverged_solver_exits_3(self, tmp_path):
        cfg_file = tmp_path / "slow.yaml"
        cfg_file.write_text("name: tiny-slow\nqueue:\n  capacity: 3\n"
                            "cognition:\n  intervals: 2\n  star_index: 1\n"
                            "  unit_rates:\n    rest: [0.0, 0.8333333333333334]\n"
                            "service:\n  base_mean: {normal: 2.0, high: 3.0}\n"
                            "  curvature: {normal: 0.5, high: 1.0}\n"
                            "  dispersion: 4.0\n  support: 6\n"
                            "skip:\n  duration: 1\n"
                            "solver:\n  max_sweeps: 2\n")
        out = tmp_path / "out"
        assert run("solve", "--config", str(cfg_file), "--out", str(out)) == 3
        # outputs still land so the run can be inspected
        assert (out / "value.csv").is_file()

    def test_single_sweep_writes_valid_json(self, tmp_path):
        # after one sweep every key is still a finite number or a flag:
        # no bare NaN that JSON parsers reject
        tiny = (resources.files("fidelityq") / "configs" / "tiny.yaml").read_text()
        cfg_file = tmp_path / "coarse.yaml"
        cfg_file.write_text(tiny.replace("epsilon: 1.0e-10", "epsilon: 100"))
        out = tmp_path / "out"
        assert run("solve", "--config", str(cfg_file), "--out", str(out)) == 0

        def reject(constant):
            raise ValueError(f"not valid JSON: {constant}")

        payload = json.loads((out / "convergence.json").read_text(), parse_constant=reject)
        assert payload["sweeps"] == 1
        assert sorted(payload) == [
            "config", "converged", "epsilon", "n_states", "residual", "sweeps"
        ]

    def test_solve_prints_model_warnings_as_lines(self, tmp_path, capsys, recwarn):
        # skip_cheap's skips outlast the mean gap between arrivals
        assert run("solve", "--config", "skip_cheap", "--out", str(tmp_path / "out")) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: skip_time >= 1/arrival_rate: the queue is unstable even "
            "under constant skipping"
        ]
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


class TestCheck:
    def test_writes_reports(self, tmp_path):
        out = tmp_path / "out"
        assert run("check", "--config", "tiny", "--out", str(out),
                   "--episodes", "200") == 0
        payload = json.loads((out / "structure.json").read_text())
        for key in [
            "rho",
            "light_tail_ok",
            "slowest_service",
            "switch_margins",
            "empty_queue_fraction",
            "value_gap",
            "value_shape_notes",
        ]:
            assert key in payload
        assert 0 < payload["rho"] < 1
        lines = (out / "thresholds.csv").read_text().splitlines()
        assert lines[2].startswith("cog_index,")
        assert len(lines) == 3 + 3  # two comments, header, one row per level

    def test_no_value_gap_pairs_writes_null_margins(self, tmp_path):
        # at capacity 2 the checked queue range is [1], so no value-gap pair
        # exists; the worst margins are null, never a bare Infinity
        tiny = (resources.files("fidelityq") / "configs" / "tiny.yaml").read_text()
        cfg_file = tmp_path / "short.yaml"
        cfg_file.write_text(tiny.replace("capacity: 3", "capacity: 2"))
        out = tmp_path / "out"
        assert run("check", "--config", str(cfg_file), "--out", str(out),
                   "--episodes", "200") == 0

        def reject(constant):
            raise ValueError(f"not valid JSON: {constant}")

        payload = json.loads((out / "structure.json").read_text(), parse_constant=reject)
        gap = payload["value_gap"]
        assert gap["n_pairs"] == 0
        assert gap["worst_lower_margin"] is None
        assert gap["worst_upper_margin"] is None
        assert gap["passed"] is True

    def test_non_finite_json_value_is_an_error(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json(path, {"margin": float("inf")})
        assert not path.exists()

    def test_violated_guarantee_exits_2(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise GuaranteeViolationError("forced for the test")

        monkeypatch.setattr(cli, "enforce_guarantee", explode)
        out = tmp_path / "out"
        assert run("check", "--config", "tiny", "--out", str(out),
                   "--episodes", "100") == 2
        # reports were already written before the verdict
        assert (out / "structure.json").is_file()
        assert (out / "thresholds.csv").is_file()


class TestSimulate:
    def test_writes_trajectories_and_estimates(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--config", "tiny", "--out", str(out),
                   "--episodes", "300", "--seed", "11",
                   "--trajectories", "2") == 0
        payload = json.loads((out / "mc_value.json").read_text())
        assert payload["seed"] == 11
        assert payload["episodes"] == 300
        est = payload["estimates"][0]
        assert est["std_error"] > 0
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[2] == ("episode,epoch,time,q,cog,action,tau,"
                            "arrivals,reward")
        episodes = {line.split(",")[0] for line in lines[3:]}
        assert episodes == {"0", "1"}

    def test_negative_trajectory_count_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("simulate", "--config", "tiny", "--out", str(out),
                   "--episodes", "50", "--trajectories", "-2") == 1
        assert "--trajectories" in capsys.readouterr().err
        assert not (out / "trajectories.csv").exists()

    def test_policy_file_reuse_matches_resolve(self, tmp_path):
        solved = tmp_path / "solved"
        assert run("solve", "--config", "tiny", "--out", str(solved)) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", "tiny", "--out", str(a),
                   "--episodes", "200") == 0
        assert run("simulate", "--config", "tiny", "--out", str(b),
                   "--episodes", "200",
                   "--policy", str(solved / "policy.csv")) == 0
        assert (a / "mc_value.json").read_bytes() == (b / "mc_value.json").read_bytes()

    def test_policy_rows_outside_the_grid_rejected(self, tmp_path, capsys):
        solved = tmp_path / "solved"
        assert run("solve", "--config", "default", "--out", str(solved)) == 0
        assert run("simulate", "--config", "tiny", "--out", str(tmp_path / "a"),
                   "--policy", str(solved / "policy.csv")) == 1
        assert "outside the 4x3 state space" in capsys.readouterr().err
        negative = tmp_path / "negative.csv"
        negative.write_text("q,cog_index,action\n-1,0,S\n")
        with pytest.raises(PolicyMismatchError, match="outside"):
            cli.read_policy_csv(negative, builtin_config("tiny").build_model())

    def test_policy_file_missing_a_row_names_the_state(self, solved_dir, tmp_path, capsys):
        lines = (solved_dir / "policy.csv").read_text().splitlines()
        holed = tmp_path / "holed.csv"
        holed.write_text("\n".join(ln for ln in lines if not ln.startswith("3,2,")) + "\n")
        assert run("simulate", "--config", "tiny", "--out", str(tmp_path / "a"),
                   "--policy", str(holed)) == 1
        assert "policy file has no row for state (3,2)" in capsys.readouterr().err

    def test_second_row_for_a_state_names_state_and_line(self, solved_dir, tmp_path, capsys):
        lines = (solved_dir / "policy.csv").read_text().splitlines()
        assert "3,2,H" in lines
        doubled = tmp_path / "doubled.csv"
        doubled.write_text("\n".join(lines + ["3,2,S"]) + "\n")
        assert run("simulate", "--config", "tiny", "--out", str(tmp_path / "a"),
                   "--policy", str(doubled)) == 1
        assert f"line {len(lines) + 1}: second row for state (3,2)" in capsys.readouterr().err

    def test_malformed_policy_line_names_its_line(self, solved_dir, tmp_path, capsys):
        lines = (solved_dir / "policy.csv").read_text().splitlines()
        model = builtin_config("tiny").build_model()
        for bad in ("1,2", "1,x,S", "1,2,S,S"):
            broken = tmp_path / "broken.csv"
            broken.write_text("\n".join(lines[:3] + [bad] + lines[3:]) + "\n")
            assert run("simulate", "--config", "tiny", "--out", str(tmp_path / "a"),
                       "--policy", str(broken)) == 1
            err = capsys.readouterr().err
            assert f"line 4: expected q,cog,action with integer q and cog, got '{bad}'" in err
            with pytest.raises(PolicyMismatchError, match="line 4"):
                cli.read_policy_csv(broken, model)
        # a longer symbol is read whole, not cut to its first letter
        doubled = tmp_path / "doubled.csv"
        doubled.write_text("\n".join("3,2,SS" if ln.startswith("3,2,") else ln
                                     for ln in lines) + "\n")
        with pytest.raises(ValueError, match="unknown action symbol 'SS'"):
            cli.read_policy_csv(doubled, model)

    def test_configured_bias_ratio_lengthens_horizon(self, tmp_path):
        # simulation.bias_ratio reaches the estimator: a tighter
        # truncation-bias target needs a longer horizon
        tiny = (resources.files("fidelityq") / "configs" / "tiny.yaml").read_text()
        tight = tmp_path / "tight.yaml"
        tight.write_text(tiny.replace("simulation:\n", "simulation:\n  bias_ratio: 1e-4\n"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", "tiny", "--out", str(a),
                   "--episodes", "200", "--trajectories", "0") == 0
        assert run("simulate", "--config", str(tight), "--out", str(b),
                   "--episodes", "200", "--trajectories", "0") == 0
        default = json.loads((a / "mc_value.json").read_text())["estimates"][0]
        tighter = json.loads((b / "mc_value.json").read_text())["estimates"][0]
        assert tighter["horizon_epochs"] > default["horizon_epochs"]

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("simulate", "--config", "tiny", "--out", str(a),
            "--episodes", "200", "--seed", "1")
        run("simulate", "--config", "tiny", "--out", str(b),
            "--episodes", "200", "--seed", "2")
        assert (a / "mc_value.json").read_bytes() != (b / "mc_value.json").read_bytes()


class TestSweep:
    def test_table_covers_grid_by_level(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep", "--config", "tiny", "--out", str(out),
                   "--grid", "0.3,0.5") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1].startswith("arrival_rate,")
        assert len(lines) == 2 + 2 * 3
        rates = {line.split(",")[0] for line in lines[2:]}
        assert rates == {"0.3", "0.5"}

    def test_model_warnings_reported_per_rate(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sweep", "--config", "tiny", "--out", str(out),
                   "--grid", "0.3,1.5") == 0
        err = capsys.readouterr().err
        assert "warning at arrival rate 1.5: skip_time >= 1/arrival_rate" in err
        assert "arrival rate 0.3" not in err

    def test_empty_grid_is_an_error(self, tmp_path):
        cfg_file = tmp_path / "nosweep.yaml"
        cfg_file.write_text("name: x\n")
        assert run("sweep", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")) == 1

    def test_budget_enforced(self, tmp_path):
        cfg_file = tmp_path / "small_budget.yaml"
        cfg_file.write_text("name: x\nsweep:\n  max_points: 2\n")
        code = run("sweep", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out"),
                   "--grid", "0.1,0.2,0.3")
        assert code == 1

    def test_bad_grid_rate_rejected_before_solving(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sweep", "--config", "tiny", "--out", str(out),
                   "--grid", "0.3,-1") == 1
        assert "--grid[1] must be positive and finite, got -1.0" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_grid_entry_that_is_not_a_number_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sweep", "--config", "tiny", "--out", str(out),
                   "--grid", "0.3,abc") == 1
        assert "--grid[1] must be a number, got 'abc'" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_oversized_wait_law_rejected_before_the_first_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # 1e-6 arrivals per step would size the wait law at 13.8M points;
        # the rate before it must not be solved either
        out = tmp_path / "out"

        def never(*args, **kwargs):
            raise AssertionError("solved a rate before refusing the grid")

        monkeypatch.setattr("fidelityq.cli.value_iteration", never)
        assert run("sweep", "--config", "tiny", "--out", str(out),
                   "--grid", "0.3,1e-6") == 1
        captured = capsys.readouterr()
        assert ("--grid[1]: the wait law at arrival rate 1e-06 needs 13815511 "
                "support points") in captured.err
        assert "swept" not in captured.out
        assert not (out / "sweep.csv").exists()

    def test_oversized_configured_rate_rejected_at_load(self, tmp_path, capsys):
        cfg_file = tmp_path / "slow_sweep.yaml"
        cfg_file.write_text("name: x\nsweep: {arrival_rates: [0.3, 1.0e-6]}\n")
        out = tmp_path / "out"
        assert run("sweep", "--config", str(cfg_file), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert "sweep.arrival_rates[1]: the wait law at arrival rate 1e-06" in captured.err
        assert "swept" not in captured.out
        assert not (out / "sweep.csv").exists()


class TestExportMoments:
    def test_moment_table_rows(self, tmp_path):
        out = tmp_path / "out"
        assert run("export-moments", "--config", "tiny", "--out", str(out)) == 0
        lines = (out / "moments.csv").read_text().splitlines()
        # five actions per level, resting inadmissible at or below the
        # resting index: 3*5 - 2
        assert len(lines) == 2 + 13
        header = lines[1].split(",")
        assert "discount_transform" in header
        assert "light_tail_bound" in header


class TestErrors:
    def test_unknown_builtin_name(self, tmp_path):
        assert run("solve", "--config", "nonesuch",
                   "--out", str(tmp_path / "out")) == 1

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("quue:\n  capacity: 3\n")
        assert run("solve", "--config", str(bad),
                   "--out", str(tmp_path / "out")) == 1

    @pytest.mark.parametrize("rate", [".nan", ".inf", "0", "-0.3"])
    def test_bad_arrival_rate_names_the_key(self, tmp_path, capsys, rate):
        bad = tmp_path / "bad_rate.yaml"
        bad.write_text(f"queue: {{arrival_rate: {rate}}}\n")
        assert run("solve", "--config", str(bad), "--out", str(tmp_path / "out")) == 1
        assert "queue.arrival_rate must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("episodes", ["1", "0", "-3"])
    def test_too_few_episodes_rejected(self, tmp_path, capsys, command, episodes):
        code = run(command, "--config", "tiny", "--out", str(tmp_path / "out"),
                   f"--episodes={episodes}")
        assert code == 1
        assert f"--episodes must be at least 2, got {episodes}" in capsys.readouterr().err

    def test_too_few_configured_episodes_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "one_episode.yaml"
        cfg_file.write_text("name: x\nsimulation:\n  episodes: 1\n")
        assert run("simulate", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")) == 1
        assert "simulation.episodes must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "simulate", "check", "sweep"])
    def test_bad_buffer_fraction_rejected_before_solving(
        self, tmp_path, capsys, monkeypatch, command
    ):
        cfg_file = tmp_path / "bad_buffer.yaml"
        cfg_file.write_text("name: x\nanalysis:\n  buffer_fraction: -0.5\n")

        def never(*args, **kwargs):
            raise AssertionError("solved a rejected configuration")

        monkeypatch.setattr(cli, "value_iteration", never)
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg_file), "--out", str(out)) == 1
        assert "analysis.buffer_fraction must lie in [0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("check",), ("sweep", "--grid", "0.3,0.5")],
                             ids=lambda argv: argv[0])
    def test_queue_too_short_for_the_buffer_rejected_before_solving(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        cfg_file = tmp_path / "short.yaml"
        cfg_file.write_text("name: x\nqueue: {capacity: 1}\n")

        def never(*args, **kwargs):
            raise AssertionError("solved a queue too short to grade")

        monkeypatch.setattr("fidelityq.cli.value_iteration", never)
        out = tmp_path / "out"
        assert run(*argv, "--config", str(cfg_file), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "queue too short for the requested boundary buffer" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [("solve",), ("simulate", "--episodes", "200", "--trajectories", "1"),
         ("export-moments",)],
        ids=lambda argv: argv[0],
    )
    def test_short_queue_still_solves_simulates_and_exports(self, tmp_path, argv):
        cfg_file = tmp_path / "short.yaml"
        cfg_file.write_text("name: x\nqueue: {capacity: 1}\n")
        assert run(*argv, "--config", str(cfg_file), "--out", str(tmp_path / "out")) == 0

    @pytest.mark.parametrize(
        "section, message",
        [
            ("service: {dispersion: .nan}", "dispersion must be positive and finite"),
            ("service: {dispersion: .inf}", "dispersion must be positive and finite"),
            ("service: {curvature: {normal: .nan, high: 80.0}}",
             "curvature must be nonnegative and finite"),
            ("economics: {holding_cost: .nan}",
             "holding cost must be positive and finite"),
            ("economics: {holding_cost: .inf}",
             "holding cost must be positive and finite"),
            ("economics: {reward_high: .inf}", "rewards must be finite"),
        ],
    )
    def test_model_values_not_finite_rejected_before_solving(
        self, tmp_path, capsys, monkeypatch, section, message
    ):
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text(f"name: x\n{section}\n")

        def never(*args, **kwargs):
            raise AssertionError("solved a rejected configuration")

        monkeypatch.setattr(cli, "value_iteration", never)
        assert run("solve", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["-1.0", ".nan", ".inf"])
    def test_epsilon_not_positive_and_finite_exits_1(self, tmp_path, capsys, epsilon):
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text(f"name: x\nsolver: {{epsilon: {epsilon}}}\n")
        assert run("solve", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")) == 1
        assert "solver.epsilon must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "solver, message",
        [
            ("{epsilon: -1.0, max_sweeps: 0}", "solver.epsilon must be positive and finite"),
            ("{max_sweeps: 0}", "solver.max_sweeps must be at least 1, got 0"),
        ],
    )
    def test_solver_settings_rejected_without_solving(self, tmp_path, capsys, solver, message):
        # export-moments never runs the solver, so the config load must catch them
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text(f"name: x\nsolver: {solver}\n")
        out = tmp_path / "out"
        assert run("export-moments", "--config", str(cfg_file), "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_wait_law_rejected_before_building(self, tmp_path, capsys, monkeypatch):
        # 1e-6 arrivals per step would size the wait law at 13.8M points
        cfg_file = tmp_path / "slow.yaml"
        cfg_file.write_text("name: x\nqueue: {arrival_rate: 1.0e-6}\n")

        def never(*args, **kwargs):
            raise AssertionError("built chain powers for an oversized law")

        monkeypatch.setattr("fidelityq.model.step_powers", never)
        assert run("solve", "--config", str(cfg_file), "--out", str(tmp_path / "out")) == 1
        assert "the wait law at arrival rate 1e-06 needs 13815511 support points" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize(
        "config_text, flags, message",
        [
            ("simulation: {seed: -1}", [], "simulation.seed must be nonnegative"),
            ("{}", ["--seed=-1"], "--seed must be nonnegative, got -1"),
        ],
    )
    def test_negative_seed_rejected_before_solving(
        self, tmp_path, capsys, monkeypatch, command, config_text, flags, message
    ):
        cfg_file = tmp_path / "seed.yaml"
        cfg_file.write_text(config_text + "\n")

        def never(*args, **kwargs):
            raise AssertionError("solved a rejected configuration")

        monkeypatch.setattr(cli, "value_iteration", never)
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg_file), "--out", str(out), *flags) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            cli.main([])
