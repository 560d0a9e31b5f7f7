import re
from pathlib import Path

import numpy as np
import pytest

from pedflow import analysis as an
from pedflow import cli
from pedflow import models as md
from pedflow import solver as sv
from pedflow.errors import ClipBudgetError, ConfigError

BASE_CONFIG = """
# two-species cluster run, kept tiny for test speed
model.kind = sim_flux
model.a = 0.7
grid.n_cells = 32
grid.dx = 1.0
scheme.dt = 0.2
scheme.delta = 0.4
initial.rho_plus = 0.5
initial.rho_minus = 0.3
noise.sigma = 1e-2
noise.seed = 77
run.t_end = 4.0
run.snapshot_every = 2.0
"""


TWO_LANE_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "two_lane.cfg"


def two_lane_config(tmp_path, keys):
    """scenarios/two_lane.cfg with the values of the given keys replaced;
    a key given None is dropped."""
    text = TWO_LANE_CFG.read_text()
    for key, value in keys.items():
        line = "" if value is None else f"{key} = {value}"
        text, n = re.subn(rf"^{re.escape(key)} = .*$", line, text, flags=re.M)
        assert n == 1, key
    return write_config(tmp_path, text)


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def base_config(tmp_path, keys):
    """BASE_CONFIG with the given keys set, replacing their lines if present."""
    text = BASE_CONFIG
    for key, value in keys.items():
        text, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text,
                          flags=re.M)
        if n == 0:
            text += f"{key} = {value}\n"
    return write_config(tmp_path, text)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, BASE_CONFIG))
        assert cfg.model.kind is md.ModelKind.SIM_FLUX
        assert cfg.grid.n_cells == 32
        assert cfg.scheme.dt == pytest.approx(0.2)
        assert cfg.rho_plus == [0.5]
        assert cfg.seed == 77
        assert cfg.cluster_threshold == pytest.approx(0.9)

    def test_missing_seed_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("noise.seed = 77", "")
        with pytest.raises(ConfigError, match="seed"):
            cli.load_config(write_config(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            cli.load_config(write_config(tmp_path, BASE_CONFIG + "\nmodle.kind = x\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            cli.load_config(write_config(tmp_path, BASE_CONFIG + "\nmodel.a = 0.5\nmodel.a = 0.6\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(tmp_path / "nope.cfg")

    def test_car_model_config(self, tmp_path):
        text = """
model.kind = two_way_car
model.V = 1.0
pressure.M = 1.0
pressure.m = 2.0
pressure.eps = 1e-3
pressure.gamma = 2.0
pressure.rho_star = 1.0
crowding.kind = affine
crowding.beta = 1.0
grid.n_cells = 16
grid.dx = 1.0
scheme.dt = 0.05
initial.rho_plus = 0.2
initial.rho_minus = 0.2
noise.seed = 1
"""
        cfg = cli.load_config(write_config(tmp_path, text))
        assert cfg.model.kind is md.ModelKind.TWO_WAY_CAR
        assert cfg.model.pressure.eps == pytest.approx(1e-3)


class TestBuildInitial:
    def cfg(self, tmp_path, sigma, seed=123, kind="gaussian"):
        text = BASE_CONFIG.replace("noise.sigma = 1e-2", f"noise.sigma = {sigma}")
        text = text.replace("noise.seed = 77", f"noise.seed = {seed}")
        text += f"noise.kind = {kind}\n"
        text = text.replace("grid.n_cells = 32", "grid.n_cells = 10000")
        return cli.load_config(write_config(tmp_path, text))

    def test_zero_sigma_exactly_uniform(self, tmp_path):
        field = cli.build_initial(self.cfg(tmp_path, 0.0))
        assert np.all(field.values[0] == 0.5)
        assert np.all(field.values[1] == 0.3)

    def test_same_seed_bitwise_identical(self, tmp_path):
        a = cli.build_initial(self.cfg(tmp_path, 1e-2))
        b = cli.build_initial(self.cfg(tmp_path, 1e-2))
        np.testing.assert_array_equal(a.values, b.values)

    def test_species_streams_are_independent(self, tmp_path):
        field = cli.build_initial(self.cfg(tmp_path, 1e-2))
        r = np.corrcoef(field.values[0], field.values[1])[0, 1]
        assert abs(r) < 0.05

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_sample_deviation_matches_sigma(self, tmp_path, kind):
        field = cli.build_initial(self.cfg(tmp_path, 1e-2, kind=kind))
        sample_std = field.values[0].std()
        assert abs(sample_std - 1e-2) / 1e-2 < 0.05


    @pytest.mark.parametrize("kind", ["two_way_car", "two_way_ar"])
    @pytest.mark.parametrize("n_lanes", [2, 3])
    def test_lane_k_draws_the_substreams_of_seed_plus_2k(self, tmp_path, kind, n_lanes):
        # rho_minus = 0.05 with sigma = 0.05 also clips some cells at zero
        lists = {
            "initial.rho_plus": [0.3, 0.15, 0.2],
            "initial.rho_minus": [0.1, 0.25, 0.05],
            "initial.w_plus": [1.0, 1.1, 0.9],
            "initial.w_minus": [1.2, 0.8, 1.0],
        }

        def build(lanes, seed):
            values = {key: ", ".join(str(v[k]) for k in lanes)
                      for key, v in lists.items()}
            keys = {"model.kind": kind, "lanes.count": len(lanes), "noise.seed": seed,
                    "noise.sigma": 0.05, "initial.rho_plus": values["initial.rho_plus"],
                    "initial.rho_minus": values["initial.rho_minus"]}
            if kind == "two_way_ar":
                keys["model.V"] = None
            if len(lanes) == 1:  # one lane exchanges no walkers
                keys.update(dict.fromkeys(["rates.lambda0", "rates.ramp", "rates.cutoff"]))
            cfg_path = two_lane_config(tmp_path, keys)
            if kind == "two_way_ar":
                with open(cfg_path, "a") as f:
                    f.write(f"initial.w_plus = {values['initial.w_plus']}\n"
                            f"initial.w_minus = {values['initial.w_minus']}\n")
            return cli.build_initial(cli.load_config(cfg_path)).values

        stack = build(range(n_lanes), 99)
        assert stack.shape[1:] == (n_lanes, 128)
        for k in range(n_lanes):
            lane = build([k], 99 + 2 * k)
            assert lane.shape == (stack.shape[0], 128)
            np.testing.assert_array_equal(
                np.ascontiguousarray(stack[:, k]).view(np.int64), lane.view(np.int64)
            )


class TestClusterMetrics:
    def grid(self, n=40):
        return sv.Grid1D(n_cells=n, dx=1.0)

    def test_uniform_below_threshold(self):
        model = md.ModelSpec.sim_flux()
        field = sv.StateField(np.tile([[0.3], [0.2]], (1, 40)))
        metrics = cli.cluster_metrics(model, field, self.grid(), 0.9)
        assert metrics.count == 0
        assert metrics.peak_total == 0.0

    def test_two_plateaus(self):
        model = md.ModelSpec.sim_flux()
        vals = np.full((2, 40), 0.1)
        vals[:, 5:10] = 0.6   # total 1.2
        vals[:, 25:30] = 0.55  # total 1.1
        field = sv.StateField(vals)
        metrics = cli.cluster_metrics(model, field, self.grid(), 0.9)
        assert metrics.count == 2
        centers = np.sort(metrics.centroids)
        assert centers[0] == pytest.approx(7.5, abs=0.01)
        assert centers[1] == pytest.approx(27.5, abs=0.01)
        assert metrics.peak_total == pytest.approx(1.2)
        assert metrics.main_centroid == pytest.approx(7.5, abs=0.01)

    def test_wrapped_cluster(self):
        model = md.ModelSpec.sim_flux()
        vals = np.full((2, 40), 0.1)
        vals[:, :3] = 0.6
        vals[:, -3:] = 0.6
        field = sv.StateField(vals)
        metrics = cli.cluster_metrics(model, field, self.grid(), 0.9)
        assert metrics.count == 1
        # centroid sits on the periodic seam
        assert min(metrics.centroids[0], 40 - metrics.centroids[0]) < 1.0

    def test_all_cells_above_threshold(self):
        model = md.ModelSpec.sim_flux()
        field = sv.StateField(np.full((2, 40), 0.6))
        metrics = cli.cluster_metrics(model, field, self.grid(), 0.9)
        assert metrics.count == 1

    def test_drift_is_periodic_aware(self):
        assert cli.cluster_drift(1.0, 39.0, 40.0, 2.0) == pytest.approx(-1.0)
        assert cli.cluster_drift(39.0, 1.0, 40.0, 2.0) == pytest.approx(1.0)


class TestDispersionTable:
    def test_stable_state_all_decaying(self):
        model = md.ModelSpec.sim_flux()
        xi = np.linspace(0, 3, 61)
        meta, rows = cli.emit_dispersion_table(model, 0.35, 0.3, 0.4, xi)
        assert meta["hyperbolic"] == 1
        for row in rows:
            assert row[2] <= 1e-14
            assert row[4] <= 1e-14

    def test_unstable_band_boundaries(self):
        model = md.ModelSpec.sim_flux()
        meta, _ = cli.emit_dispersion_table(model, 0.5, 0.3, 0.4, [0.0])
        ximax = meta["unstable_xi_max"]
        speeds = an.diffusive_speeds(model, 0.5, 0.3)
        inside = an.growth_rate(speeds, 0.4, 0.99 * ximax)
        outside = an.growth_rate(speeds, 0.4, 1.01 * ximax)
        assert inside > 0
        assert outside < 0

    def test_dominant_row_is_maximal(self):
        model = md.ModelSpec.sim_flux()
        meta, rows = cli.emit_dispersion_table(
            model, 0.5, 0.3, 0.4, np.linspace(0, 1.4, 141)
        )
        growth = np.array([max(r[2], r[4]) for r in rows])
        xi = np.array([r[0] for r in rows])
        assert xi[np.argmax(growth)] == pytest.approx(meta["dominant_xi"], abs=0.011)


class TestRunScenario:
    def test_artifacts_written(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, BASE_CONFIG))
        result = cli.run_scenario(cfg, tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "audit.csv").exists()
        assert (out / "stability.csv").exists()
        assert (out / "clusters.csv").exists()
        snaps = sorted((out / "snapshots").glob("snap_*.csv"))
        assert len(snaps) == 3  # t = 0, 2, 4
        header = snaps[0].read_text().splitlines()[0]
        assert header == "t,x,component_0,component_1"
        assert result.stability is not None
        assert not result.stability.hyperbolic

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
        for name in ("audit.csv", "stability.csv", "clusters.csv",
                     "snapshots/snap_000001.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_audit_conservation(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, BASE_CONFIG))
        result = cli.run_scenario(cfg, tmp_path / "out")
        mass = result.run.audit.mass
        np.testing.assert_allclose(mass[-1], mass[0], rtol=1e-12)

    def test_multilane_scenario(self, tmp_path):
        text = """
model.kind = two_way_car
model.V = 1.0
pressure.M = 1.0
pressure.m = 2.0
pressure.eps = 1e-3
pressure.gamma = 2.0
pressure.rho_star = 1.0
grid.n_cells = 16
grid.dx = 1.0
scheme.dt = 0.05
scheme.delta = 0.1
initial.rho_plus = 0.25, 0.15
initial.rho_minus = 0.1, 0.2
noise.sigma = 1e-3
noise.seed = 5
run.t_end = 1.0
run.snapshot_every = 0.5
lanes.count = 2
rates.lambda0 = 0.5
"""
        cfg = cli.load_config(write_config(tmp_path, text))
        result = cli.run_scenario(cfg, tmp_path / "out")
        out = tmp_path / "out"
        header = (out / "snapshots" / "snap_000000.csv").read_text().splitlines()[0]
        assert header == "t,lane,x,component_0,component_1"
        audit_lines = (out / "audit.csv").read_text().splitlines()
        assert audit_lines[0] == (
            "step,t,cfl,mass_plus_total,mass_minus_total,min_rho,max_rho"
        )
        first = audit_lines[1].split(",")
        last = audit_lines[-1].split(",")
        assert float(last[3]) == pytest.approx(float(first[3]), rel=1e-12)
        assert float(last[4]) == pytest.approx(float(first[4]), rel=1e-12)


class TestMainExitCodes:
    def test_success(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        ) == 0

    def test_config_error(self, tmp_path):
        assert cli.main(
            ["simulate", "--config", str(tmp_path / "missing.cfg"),
             "--out", str(tmp_path / "o")]
        ) == 2

    def test_numerical_failure(self, tmp_path):
        text = BASE_CONFIG.replace("scheme.dt = 0.2", "scheme.dt = 5.0")
        cfg_path = write_config(tmp_path, text)
        assert cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        ) == 3

    def test_jam_density_while_stepping_is_a_numerical_failure(self, tmp_path, capsys):
        cfg_path = two_lane_config(
            tmp_path,
            {"initial.rho_plus": 0.55, "initial.rho_minus": 0.4, "noise.sigma": 0.05},
        )
        assert cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        ) == 3
        assert "numerical failure: density reached the jam density" in (
            capsys.readouterr().err
        )

    def test_stiff_lane_change_rate_is_a_config_error(self, tmp_path):
        cfg_path = two_lane_config(tmp_path, {"rates.lambda0": 30.0})
        with pytest.raises(ConfigError, match="lambda0"):
            cli.load_config(cfg_path)
        assert cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        ) == 2

    def test_negative_end_time_is_a_config_error(self, tmp_path):
        for cfg_path in (
            write_config(tmp_path, BASE_CONFIG.replace("run.t_end = 4.0", "run.t_end = -1.0")),
            two_lane_config(tmp_path, {"run.t_end": -1.0}),
        ):
            with pytest.raises(ConfigError, match="t_end"):
                cli.load_config(cfg_path)
            assert cli.main(
                ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
            ) == 2

    def test_multilane_clip_budget(self, tmp_path, monkeypatch):
        advance = sv._advance

        def clipping_advance(model, U, grid, params):
            U_new, cfl, clipped = advance(model, U, grid, params)
            return U_new, cfl, clipped + 1e-7

        monkeypatch.setattr(sv, "_advance", clipping_advance)
        cfg_path = two_lane_config(tmp_path, {"run.t_end": 1.0})
        with pytest.raises(ClipBudgetError):
            cli.run_scenario(cli.load_config(cfg_path), tmp_path / "out")
        assert cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        ) == 3

    def test_check_failure(self, tmp_path):
        text = BASE_CONFIG + "check.final_supnorm_lt = 1e-12\n"
        cfg_path = write_config(tmp_path, text)
        assert cli.main(
            ["simulate", "--check", "--config", str(cfg_path),
             "--out", str(tmp_path / "o")]
        ) == 4

    def test_check_success(self, tmp_path):
        text = BASE_CONFIG + "check.final_supnorm_lt = 10.0\n"
        cfg_path = write_config(tmp_path, text)
        assert cli.main(
            ["simulate", "--check", "--config", str(cfg_path),
             "--out", str(tmp_path / "o")]
        ) == 0

    def test_hyperbolicity_map_subcommand(self, tmp_path):
        text = BASE_CONFIG + "map.resolution = 40\n"
        cfg_path = write_config(tmp_path, text)
        assert cli.main(
            ["hyperbolicity-map", "--config", str(cfg_path),
             "--out", str(tmp_path / "map")]
        ) == 0
        table = (tmp_path / "map" / "map.txt").read_text().strip().splitlines()
        assert len(table) == 40
        boundary = (tmp_path / "map" / "boundary.csv").read_text().splitlines()
        assert boundary[0] == "rho_plus,rho_minus"
        assert len(boundary) > 10

    def test_dispersion_subcommand(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert cli.main(
            ["dispersion", "--config", str(cfg_path), "--out", str(tmp_path / "d")]
        ) == 0
        lines = (tmp_path / "d" / "dispersion.csv").read_text().splitlines()
        assert lines[0].startswith("# delta=")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "xi,re_s_plus,im_s_plus,re_s_minus,im_s_minus"

    def test_pressure_table_subcommand(self, tmp_path):
        text = """
model.kind = one_way_car
model.V = 1.0
pressure.M = 1.0
pressure.m = 2.0
pressure.eps = 1e-3
pressure.gamma = 2.0
pressure.rho_star = 1.0
grid.n_cells = 16
grid.dx = 1.0
scheme.dt = 0.05
initial.rho = 0.3
noise.seed = 2
table.n_points = 50
"""
        cfg_path = write_config(tmp_path, text)
        assert cli.main(
            ["pressure-table", "--config", str(cfg_path), "--out", str(tmp_path / "p")]
        ) == 0
        lines = (tmp_path / "p" / "pressure_table.csv").read_text().splitlines()
        assert lines[0] == (
            "rho,background,singular,total,total_derivative,crossover_width"
        )
        assert len(lines) == 51


def simulate_exit_code(cfg_path, tmp_path, *flags):
    return cli.main(
        ["simulate", *flags, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    )


def two_lane_ar_config(tmp_path, keys, w_plus="1.0", w_minus="1.0"):
    """Two two_way_ar lanes: two_lane.cfg with dynamic desired speeds."""
    path = two_lane_config(
        tmp_path, {"model.kind": "two_way_ar", "model.V": None, "run.t_end": 0.5, **keys}
    )
    with open(path, "a") as f:
        f.write(f"initial.w_plus = {w_plus}\ninitial.w_minus = {w_minus}\n")
    return path


class TestConfigValidation:
    def test_single_per_lane_value_serves_every_lane(self, tmp_path):
        cfg = cli.load_config(
            two_lane_ar_config(tmp_path, {}, w_plus="1.0, 1.1", w_minus="1.2")
        )
        assert cfg.w_plus == [1.0, 1.1]
        assert cfg.w_minus == [1.2, 1.2]
        assert simulate_exit_code(
            two_lane_ar_config(tmp_path, {}, w_plus="1.0, 1.0", w_minus="1.0"),
            tmp_path,
        ) == 0

    @pytest.mark.parametrize(
        "key", ["initial.rho_plus", "initial.rho_minus", "initial.w_plus",
                "initial.w_minus"]
    )
    def test_per_lane_list_of_wrong_length(self, tmp_path, key):
        three = "0.1, 0.1, 0.1"
        if key.startswith("initial.w_"):
            speeds = {key[len("initial."):]: three}
            cfg_path = two_lane_ar_config(tmp_path, {}, **speeds)
        else:
            cfg_path = two_lane_ar_config(tmp_path, {key: three})
        with pytest.raises(ConfigError, match=f"{key} lists 3 values for 2 lane"):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2

    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_snapshot_interval(self, tmp_path, value):
        for cfg_path in (
            write_config(tmp_path, BASE_CONFIG.replace(
                "run.snapshot_every = 2.0", f"run.snapshot_every = {value}")),
            two_lane_config(tmp_path, {"run.snapshot_every": value}),
        ):
            with pytest.raises(ConfigError, match="run.snapshot_every must be > 0"):
                cli.load_config(cfg_path)
            assert simulate_exit_code(cfg_path, tmp_path) == 2

    @pytest.mark.parametrize("command, key", [
        ("dispersion", "dispersion.n_points"),
        ("pressure-table", "table.n_points"),
    ])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_point_count(self, tmp_path, command, key, value):
        cfg_path = write_config(tmp_path, TWO_LANE_CFG.read_text() + f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{key} must be > 0"):
            cli.load_config(cfg_path)
        assert cli.main(
            [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        ) == 2

    def test_checks_are_stored_parsed(self, tmp_path):
        text = BASE_CONFIG + (
            "check.final_supnorm_lt = 2e-2\ncheck.cluster_count_min = 1\n"
            "check.drift_negative = yes\n"
        )
        cfg = cli.load_config(write_config(tmp_path, text))
        assert cfg.checks == {
            "check.final_supnorm_lt": 2e-2,
            "check.cluster_count_min": 1,
            "check.drift_negative": True,
        }
        assert type(cfg.checks["check.cluster_count_min"]) is int

    def test_misspelled_check_is_a_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG + "check.cluster_cout_min = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'check.cluster_cout_min'"):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2
        assert simulate_exit_code(cfg_path, tmp_path, "--check") == 2

    @pytest.mark.parametrize("line", [
        "check.final_supnorm_lt = abc",
        "check.cluster_count_max = 1.5",
        "check.drift_negative = maybe",
    ])
    def test_bad_check_value_is_a_config_error(self, tmp_path, line):
        cfg_path = write_config(tmp_path, BASE_CONFIG + line + "\n")
        with pytest.raises(ConfigError, match="bad value for 'check."):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path, "--check") == 2

    def test_drift_negative_false_requires_nothing(self, tmp_path):
        # The tiny run forms no cluster, so it has no drift to be negative.
        on = write_config(tmp_path, BASE_CONFIG + "check.drift_negative = true\n",
                          name="on.cfg")
        off = write_config(tmp_path, BASE_CONFIG + "check.drift_negative = false\n",
                           name="off.cfg")
        assert simulate_exit_code(on, tmp_path, "--check") == 4
        assert simulate_exit_code(off, tmp_path, "--check") == 0

    @pytest.mark.parametrize("line", [
        "check.final_supnorm_lt = 1.0",
        "check.cluster_count_min = 1",
        "check.peak_total_ge = 0.5",
    ])
    def test_checks_of_multilane_runs_are_a_config_error(self, tmp_path, line):
        cfg_path = write_config(tmp_path, TWO_LANE_CFG.read_text() + line + "\n")
        with pytest.raises(ConfigError, match="single-lane runs only"):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path, "--check") == 2

    def test_cluster_check_of_a_one_way_run_is_a_config_error(self, tmp_path):
        text = """
model.kind = one_way_car
model.V = 1.0
pressure.M = 1.0
pressure.m = 2.0
grid.n_cells = 16
grid.dx = 1.0
scheme.dt = 0.05
initial.rho = 0.3
noise.seed = 2
"""
        supnorm = write_config(tmp_path, text + "check.final_supnorm_lt = 1.0\n",
                               name="supnorm.cfg")
        assert cli.load_config(supnorm).checks == {"check.final_supnorm_lt": 1.0}
        cfg_path = write_config(tmp_path, text + "check.cluster_count_max = 0\n")
        with pytest.raises(ConfigError, match="check.cluster_count_max is not read by "
                                              "model.kind one_way_car"):
            cli.load_config(cfg_path)

    def test_nan_stability_guard_is_a_config_error(self, tmp_path):
        # dt = 1 breaks a finite guard; a nan guard would let the run pass
        finite = base_config(tmp_path, {"scheme.dt": 1.0, "scheme.cfl_guard": 0.95})
        assert simulate_exit_code(finite, tmp_path) == 3
        cfg_path = base_config(tmp_path, {"scheme.dt": 1.0, "scheme.cfl_guard": "nan"})
        with pytest.raises(ConfigError, match="bad value for 'scheme.cfl_guard'"):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2

    @pytest.mark.parametrize("key, value, message", [
        ("grid.dx", "inf", "bad value for 'grid.dx'"),
        ("scheme.dt", "nan", "bad value for 'scheme.dt'"),
        ("initial.rho_plus", "-inf", "bad value for 'initial.rho_plus'"),
        ("noise.seed", -3, "noise.seed must be >= 0"),
    ])
    def test_non_finite_value_or_negative_seed_is_a_config_error(
        self, tmp_path, key, value, message
    ):
        cfg_path = base_config(tmp_path, {key: value})
        with pytest.raises(ConfigError, match=message):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2

    def test_key_the_model_kind_does_not_read_is_a_config_error(self, tmp_path):
        for cfg_path, message in (
            (base_config(tmp_path, {"pressure.M": -5}),
             "pressure.M is not read by model.kind sim_flux"),
            (write_config(tmp_path, TWO_LANE_CFG.read_text() + "initial.w_plus = 1.0\n",
                          name="w_plus.cfg"),
             "initial.w_plus is not read by model.kind two_way_car"),
        ):
            with pytest.raises(ConfigError, match=message):
                cli.load_config(cfg_path)
            assert simulate_exit_code(cfg_path, tmp_path) == 2

    def test_cluster_threshold_of_a_multilane_run_is_rejected_before_any_output(
        self, tmp_path
    ):
        # multi-lane runs write no cluster metrics, so the key would be ignored
        cfg_path = write_config(tmp_path, TWO_LANE_CFG.read_text()
                                + "cluster.threshold = 0.5\n")
        with pytest.raises(ConfigError, match=re.escape(
                "cluster.* keys apply to single-lane runs only")):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2
        assert not (tmp_path / "o").exists()

    def test_rates_of_a_single_lane_run_are_rejected_before_any_output(self, tmp_path):
        # one lane exchanges no walkers, so the rates.* keys would be ignored
        cfg_path = two_lane_config(
            tmp_path, {"lanes.count": 1, "initial.rho_plus": 0.3, "initial.rho_minus": 0.1}
        )
        with pytest.raises(ConfigError, match=re.escape(
                "rates.* keys apply to multi-lane runs only")):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rho_max, message", [
        (1.5, "table.rho_max must be < pressure.rho_star"),
        (1.0, "table.rho_max must be < pressure.rho_star"),
        (0.0, "table.rho_max must be > 0"),
        (-0.5, "table.rho_max must be > 0"),
    ])
    def test_table_rho_max_is_checked_at_load(self, tmp_path, capsys, rho_max, message):
        text = (TWO_LANE_CFG.parent / "pressure.cfg").read_text()
        cfg_path = write_config(tmp_path, text + f"table.rho_max = {rho_max}\n")
        assert cli.main(
            ["pressure-table", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        ) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_lanes_of_a_sim_flux_config_are_rejected_before_any_output(self, tmp_path):
        cfg_path = base_config(tmp_path, {"lanes.count": 2})
        with pytest.raises(ConfigError, match="lanes.count is not read by model.kind sim_flux"):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["dispersion", "hyperbolicity-map"])
    def test_analysis_of_a_one_way_kind_is_a_config_error(self, tmp_path, capsys, command):
        cfg_path = TWO_LANE_CFG.parent / "pressure.cfg"
        assert cli.main(
            [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        ) == 2
        assert f"{command} does not support model.kind one_way_car" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key, value, message", [
        ("hyperbolicity-map", "map.resolution", 1, "map.resolution must be >= 2"),
        ("dispersion", "dispersion.xi_max", -3, "dispersion.xi_max must be > 0"),
    ])
    def test_analysis_bounds_are_checked_at_load(self, tmp_path, command, key, value,
                                                 message):
        cfg_path = base_config(tmp_path, {key: value})
        with pytest.raises(ConfigError, match=message):
            cli.load_config(cfg_path)
        assert cli.main(
            [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        ) == 2


ROOT = TWO_LANE_CFG.parent.parent

# A valid value of every key of cli.CONFIG_KEYS; model.kind is set per test.
VALID = {
    "model.kind": None, "model.a": "0.6", "model.V": "1.0",
    "pressure.M": "1.0", "pressure.m": "2.0", "pressure.eps": "1e-3",
    "pressure.gamma": "2.0", "pressure.rho_star": "1.0",
    "crowding.kind": "power", "crowding.beta": "0.5",
    "crowding_minus.kind": "constant", "crowding_minus.beta": "2.0",
    "grid.n_cells": "16", "grid.dx": "1.0",
    "scheme.dt": "0.05", "scheme.delta": "0.1", "scheme.limiter": "none",
    "scheme.cfl_guard": "0.9",
    "initial.rho_plus": "0.3", "initial.rho_minus": "0.2",
    "initial.w_plus": "1.0", "initial.w_minus": "1.1",
    "initial.rho": "0.3", "initial.w": "1.0",
    "noise.sigma": "0.01", "noise.seed": "3", "noise.kind": "uniform",
    "run.t_end": "1.0", "run.snapshot_every": "0.5",
    "cluster.threshold": "0.8",
    "lanes.count": "2",
    "rates.lambda0": "0.5", "rates.ramp": "sigmoid", "rates.cutoff": "quadratic",
    "map.resolution": "40",
    "dispersion.xi_max": "1.5", "dispersion.n_points": "11",
    "table.n_points": "11", "table.rho_max": "0.9",
    "check.final_supnorm_lt": "0.1", "check.cluster_count_min": "1",
    "check.cluster_count_max": "2", "check.peak_total_ge": "0.5",
    "check.drift_negative": "yes",
}


def kind_config(tmp_path, kind, keys):
    """A config of the given kind with every required key it reads, plus
    keys; a key given None is left out."""
    lines = {"model.kind": kind.value}
    lines.update({row.key: VALID[row.key] for row in cli.CONFIG_KEYS[1:]
                  if row.default is cli.REQUIRED and kind in row.kinds})
    lines.update(keys)
    return write_config(tmp_path, "".join(
        f"{key} = {value}\n" for key, value in lines.items() if value is not None))


class TestConfigTable:
    def test_valid_values_cover_the_table(self):
        assert list(VALID) == [row.key for row in cli.CONFIG_KEYS]

    @pytest.mark.parametrize("row", cli.CONFIG_KEYS, ids=lambda row: row.key)
    def test_every_key_is_cast_bounded_and_kind_checked(self, tmp_path, row):
        kind = min(row.kinds)
        # rates.* keys are read by multi-lane runs only
        lanes = {"lanes.count": VALID["lanes.count"]} if row.key.startswith("rates.") else {}

        def rejected(value, message, kind=kind, lanes=lanes):
            with pytest.raises(ConfigError, match=re.escape(message)):
                cli.load_config(kind_config(tmp_path, kind, {**lanes, row.key: value}))

        value = kind.value if row.key == "model.kind" else VALID[row.key]
        cli.load_config(kind_config(tmp_path, kind, {**lanes, row.key: value}))
        if row.default is cli.REQUIRED:
            rejected(None, f"missing required key '{row.key}'")
        if row.cast is str:  # the constructor of the key's section rejects it
            with pytest.raises(ConfigError):
                cli.load_config(kind_config(tmp_path, kind, {row.key: "bogus"}))
        else:
            for bad in ("bogus", "nan", "inf", "-inf"):
                rejected(bad, f"bad value for '{row.key}': '{bad}'")
        if row.bound is not None:
            op, low = row.bound
            rejected(low - 1 if op == ">=" else low, f"{row.key} must be {op} {low}")
        for other in sorted(set(md.ModelKind) - set(row.kinds)):
            rejected(value, f"{row.key} is not read by model.kind {other.value}", other,
                     {})

    @pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.cfg")),
                             ids=lambda path: path.name)
    def test_every_bundled_scenario_loads(self, path):
        cli.load_config(path)

    def test_readme_tables_match_the_key_and_subcommand_tables(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
        groups = {
            name: {md.ModelKind(kind) for kind in re.findall(r"`(\w+)`", kinds)}
            for name, kinds in re.findall(r"^\* `([\w-]+)`: (.*)$", section, flags=re.M)
        }

        def kinds_of(cell):
            name = cell.strip("`")
            return groups.get(name) or {md.ModelKind(name)}

        rows = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
                for line in section.splitlines() if line.startswith("| `")]
        keys = [cells for cells in rows if len(cells) == 5]
        assert [cells[0].strip("`") for cells in keys] == [
            row.key for row in cli.CONFIG_KEYS]
        for (key, _, default, kinds, bound), row in zip(keys, cli.CONFIG_KEYS):
            assert kinds_of(kinds) == set(row.kinds), key
            assert bound == ("" if row.bound is None else "`%s %s`" % row.bound), key
            if row.default is cli.REQUIRED:
                assert default == "required", key
            elif row.default is not None and not callable(row.default):
                assert row.cast(default) == row.default, key
            else:
                assert default and default != "required", key
        commands = {cells[0].strip("`"): kinds_of(cells[1])
                    for cells in rows if len(cells) == 2}
        assert commands == {name: set(kinds)
                            for name, (_, kinds) in cli.SUBCOMMANDS.items()}
