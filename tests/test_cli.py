import contextlib
import errno
import io
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedflow import analysis as an
from pedflow import cli
from pedflow import models as md
from pedflow import multilane as ml
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
ROOT = TWO_LANE_CFG.parent.parent


def two_lane_config(tmp_path, keys):
    return scenario_config(tmp_path, "two_lane.cfg", keys)


def scenario_config(tmp_path, name, keys):
    """scenarios/<name> with the values of the given keys replaced; a key
    given None is dropped."""
    text = (ROOT / "scenarios" / name).read_text()
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
        U = cli.build_initial(self.cfg(tmp_path, 0.0))
        assert np.all(U[0] == 0.5)
        assert np.all(U[1] == 0.3)

    def test_same_seed_bitwise_identical(self, tmp_path):
        a = cli.build_initial(self.cfg(tmp_path, 1e-2))
        b = cli.build_initial(self.cfg(tmp_path, 1e-2))
        np.testing.assert_array_equal(a, b)

    def test_species_streams_are_independent(self, tmp_path):
        U = cli.build_initial(self.cfg(tmp_path, 1e-2))
        r = np.corrcoef(U[0], U[1])[0, 1]
        assert abs(r) < 0.05

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_sample_deviation_matches_sigma(self, tmp_path, kind):
        U = cli.build_initial(self.cfg(tmp_path, 1e-2, kind=kind))
        sample_std = U[0].std()
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
            return cli.build_initial(cli.load_config(cfg_path))

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
        U = np.tile([[0.3], [0.2]], (1, 40))
        metrics = cli.cluster_metrics(model, U, self.grid(), 0.9)
        assert metrics.count == 0
        assert metrics.peak_total == 0.0

    def test_two_plateaus(self):
        model = md.ModelSpec.sim_flux()
        vals = np.full((2, 40), 0.1)
        vals[:, 5:10] = 0.6   # total 1.2
        vals[:, 25:30] = 0.55  # total 1.1
        metrics = cli.cluster_metrics(model, vals, self.grid(), 0.9)
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
        metrics = cli.cluster_metrics(model, vals, self.grid(), 0.9)
        assert metrics.count == 1
        # centroid sits on the periodic seam
        assert min(metrics.centroids[0], 40 - metrics.centroids[0]) < 1.0

    def test_all_cells_above_threshold(self):
        model = md.ModelSpec.sim_flux()
        metrics = cli.cluster_metrics(model, np.full((2, 40), 0.6), self.grid(), 0.9)
        assert metrics.count == 1

    def test_drift_is_periodic_aware(self):
        assert cli.cluster_drift(1.0, 39.0, 40.0, 2.0) == pytest.approx(-1.0)
        assert cli.cluster_drift(39.0, 1.0, 40.0, 2.0) == pytest.approx(1.0)


class TestDispersionTable:
    def test_stable_state_all_decaying(self):
        model = md.ModelSpec.sim_flux()
        xi = np.linspace(0, 3, 61)
        meta, columns = cli.emit_dispersion_table(
            an.diffusive_speeds(model, 0.35, 0.3), 0.4, xi
        )
        assert meta["hyperbolic"] == 1
        assert np.all(columns[2] <= 1e-14)
        assert np.all(columns[4] <= 1e-14)

    def test_unstable_band_boundaries(self):
        model = md.ModelSpec.sim_flux()
        speeds = an.diffusive_speeds(model, 0.5, 0.3)
        meta, _ = cli.emit_dispersion_table(speeds, 0.4, [0.0])
        ximax = meta["unstable_xi_max"]
        inside = an.growth_rate(speeds, 0.4, 0.99 * ximax)
        outside = an.growth_rate(speeds, 0.4, 1.01 * ximax)
        assert inside > 0
        assert outside < 0

    def test_dominant_row_is_maximal(self):
        model = md.ModelSpec.sim_flux()
        meta, columns = cli.emit_dispersion_table(
            an.diffusive_speeds(model, 0.5, 0.3), 0.4, np.linspace(0, 1.4, 141)
        )
        growth = np.maximum(columns[2], columns[4])
        xi = columns[0]
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

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_run_shorter_than_1e_9_writes_its_final_snapshot(self, tmp_path, lanes):
        # the final state is written unless the last snapshot is within
        # 1e-9 * dt of it, on one lane as on two
        keys = {"scheme.dt": 1e-10, "run.t_end": 5e-10, "run.snapshot_every": None}
        if lanes == 1:
            keys.update({"initial.rho_plus": 0.3, "initial.rho_minus": 0.1,
                         "lanes.count": None, "rates.lambda0": None,
                         "rates.ramp": None, "rates.cutoff": None})
        assert simulate_exit_code(two_lane_config(tmp_path, keys), tmp_path) == 0
        snaps = sorted(p.name for p in (tmp_path / "o" / "snapshots").iterdir())
        assert snaps == ["snap_000000.csv", "snap_000001.csv"]


def snapshot_run(tmp_path, lanes, n_snapshots):
    """Config of a sim_flux run of one lane or a two_way_car run of two lanes
    that writes n_snapshots snapshots."""
    if lanes == 1:
        return base_config(tmp_path, {"run.t_end": 2.0 * (n_snapshots - 1)})
    return two_lane_config(tmp_path, {"grid.n_cells": 16, "run.snapshot_every": 0.5,
                                      "run.t_end": 0.5 * (n_snapshots - 1)})


def simulate_files(cfg_path, out):
    """Run simulate and return every artifact's bytes by relative path."""
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


class TestSnapshotWriter:
    """Snapshot sets at or above cli._FORK_MIN_VALUES are written by two
    processes; the files are the same as when one process writes them."""

    @pytest.fixture
    def forks(self, forks, monkeypatch):
        """Count the forks of this process, with every set of two or more
        snapshots large enough to fork."""
        monkeypatch.setattr(cli, "_FORK_MIN_VALUES", 1)
        return forks

    def sequential(self, tmp_path, cfg_path, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(cli, "_FORK_MIN_VALUES", float("inf"))
            return simulate_files(cfg_path, tmp_path / "sequential")

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("n_snapshots", [1, 2, 3, 5])
    def test_two_processes_write_the_bytes_of_one(self, tmp_path, monkeypatch, forks,
                                                   lanes, n_snapshots):
        cfg_path = snapshot_run(tmp_path, lanes, n_snapshots)
        want = self.sequential(tmp_path, cfg_path, monkeypatch)
        assert simulate_files(cfg_path, tmp_path / "forked") == want
        assert len(forks) == (n_snapshots > 1)
        assert sum(name.startswith("snapshots") for name in want) == n_snapshots

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_failed_child_leaves_its_files_to_the_parent(self, tmp_path, monkeypatch,
                                                           forks, lanes):
        cfg_path = snapshot_run(tmp_path, lanes, 5)
        want = self.sequential(tmp_path, cfg_path, monkeypatch)
        parent, write = os.getpid(), cli._write_snapshot

        def fails_in_the_child(path, t, U, grid):
            if os.getpid() != parent:
                path.write_text("t,x\n0.0,")  # a partial file
                raise OSError("no space left on device")
            write(path, t, U, grid)

        monkeypatch.setattr(cli, "_write_snapshot", fails_in_the_child)
        assert simulate_files(cfg_path, tmp_path / "forked") == want
        assert len(forks) == 1

    def test_a_failure_in_both_processes_leaves_main(self, tmp_path, monkeypatch, forks):
        def fails(path, t, U, grid):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "_write_snapshot", fails)
        with pytest.raises(OSError, match="no space left on device"):
            cli.main(["simulate", "--config", str(snapshot_run(tmp_path, 1, 3)),
                      "--out", str(tmp_path / "o")])
        assert len(forks) == 1

    def test_without_fork_one_process_writes_the_same_bytes(self, tmp_path,
                                                              monkeypatch):
        cfg_path = snapshot_run(tmp_path, 2, 3)
        want = self.sequential(tmp_path, cfg_path, monkeypatch)
        monkeypatch.setattr(cli, "_FORK_MIN_VALUES", 1)
        monkeypatch.delattr(os, "fork")
        assert simulate_files(cfg_path, tmp_path / "unforked") == want

    def test_a_failed_fork_leaves_every_file_to_one_process(self, tmp_path,
                                                            monkeypatch):
        cfg_path = snapshot_run(tmp_path, 2, 3)
        want = self.sequential(tmp_path, cfg_path, monkeypatch)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "_FORK_MIN_VALUES", 1)
        monkeypatch.setattr(os, "fork", fork)
        assert simulate_files(cfg_path, tmp_path / "unforked") == want

    @pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.cfg")),
                             ids=lambda path: path.name)
    def test_no_bundled_scenario_reaches_the_bound(self, path):
        # at most one snapshot per interval after the first, plus the last
        cfg = cli.load_config(path)
        intervals = int(cfg.t_end / cfg.snapshot_every) if cfg.snapshot_every else 0
        odd_snapshots = (intervals + 2) // 2
        values = odd_snapshots * cli.build_initial(cfg).size
        assert values < cli._FORK_MIN_VALUES


# CSV fields that hold no separator, line end or leading "#"
csv_text = st.text(alphabet="abxyz_-. 09", max_size=6)
edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308])
csv_floats = st.floats(allow_nan=False, allow_infinity=False) | edge_floats
csv_values = st.none() | csv_text | st.integers(-2**70, 2**70) | csv_floats


def is_field_of(value, text):
    """Whether text is the CSV field of value: empty for None, the str
    itself, an int in decimal, and a float that reads back to its bits."""
    if value is None or isinstance(value, str):
        return text == ("" if value is None else value)
    if isinstance(value, (int, np.integer)):
        return text == str(int(value))
    return np.float64(float(text)).tobytes() == np.float64(value).tobytes()


class TestCsvWriter:
    """cli._write_csv, which writes every CSV artifact from its columns."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_rows=st.integers(0, 5), text=csv_text,
           comments=st.lists(st.tuples(st.text(alphabet="abc_", min_size=1), csv_values),
                             max_size=3))
    def test_every_kind_of_column_reads_back(self, data, n_rows, text, comments):
        def column(values):
            return data.draw(st.lists(values, min_size=n_rows, max_size=n_rows))

        floats = column(csv_floats)
        ints = column(st.integers(-2**63, 2**63 - 1))
        values = column(st.none() | csv_text | st.integers())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            cli._write_csv(path, ["s", "f", "i", "v"],
                           [text, np.array(floats, dtype=float),
                            np.array(ints, dtype=np.int64), values], comments)
            raw = path.read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw
        lines = raw.decode().split("\n")[:-1]
        assert len(lines) == len(comments) + 1 + n_rows
        for (key, value), line in zip(comments, lines):
            assert line.startswith(f"# {key}=")
            assert is_field_of(value, line[len(f"# {key}="):])
        assert lines[len(comments)] == "s,f,i,v"
        rows = [line.split(",") for line in lines[len(comments) + 1:]]
        for row, *want in zip(rows, floats, ints, values):
            assert len(row) == 4 and row[0] == text
            assert all(map(is_field_of, want, row[1:]))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n_comp=st.sampled_from([2, 4]), n_lanes=st.integers(1, 3),
           n_cells=st.integers(4, 6), t=csv_floats, dx=st.floats(0.125, 8.0))
    def test_lane_k_of_a_stack_is_the_one_lane_file_of_its_state(
            self, data, n_comp, n_lanes, n_cells, t, dx):
        size = n_comp * n_lanes * n_cells
        U = np.array(data.draw(st.lists(csv_floats, min_size=size, max_size=size)))
        U = U.reshape(n_comp, n_lanes, n_cells)
        grid = sv.Grid1D(n_cells=n_cells, dx=dx)
        with tempfile.TemporaryDirectory() as tmp:
            cli._write_snapshot(Path(tmp) / "stack.csv", t, U, grid)
            stack = (Path(tmp) / "stack.csv").read_text().splitlines()
            for k in range(n_lanes):
                cli._write_snapshot(Path(tmp) / f"lane{k}.csv", t, U[:, k], grid)
                lane = (Path(tmp) / f"lane{k}.csv").read_text().splitlines()
                rows = [row.split(",") for row in stack[1 + k * n_cells:][:n_cells]]
                assert [row[1] for row in rows] == [str(k)] * n_cells
                assert [",".join(row[:1] + row[2:]) for row in rows] == lane[1:]
        assert len(stack) == 1 + n_lanes * n_cells
        assert stack[0].replace("t,lane,", "t,") == lane[0]


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

    @pytest.mark.parametrize("lanes, dt, line", [
        (1, "5.0", "numerical failure: stability number 6.92549 exceeds guard 0.45 "
                   "(step 1, t = 5)"),
        (2, "0.6", "numerical failure: stability number 0.56989 exceeds guard 0.45 "
                   "(step 1, t = 0.6)"),
    ])
    def test_a_numerical_failure_names_its_step_and_time(self, tmp_path, capsys,
                                                         lanes, dt, line):
        if lanes == 1:
            cfg_path = write_config(tmp_path, BASE_CONFIG.replace("scheme.dt = 0.2",
                                                                  f"scheme.dt = {dt}"))
        else:
            cfg_path = two_lane_config(tmp_path, {"scheme.dt": dt})
        assert cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        ) == 3
        assert capsys.readouterr().err == line + "\n"

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

    def test_multilane_run_stops_at_the_first_step_past_the_clip_budget(
        self, tmp_path, monkeypatch
    ):
        # _advance clips c more per step: the multi-lane loop sums the
        # clipped mass and stops at the first step k with k*c > budget
        cfg = cli.load_config(TWO_LANE_CFG)
        dens = ml.lane_densities(cfg.model, cli.build_initial(cfg))
        budget = sv.CLIP_BUDGET_REL * float(np.sum(dens.sum(axis=(0, 2)) * cfg.grid.dx))
        c = budget / 2.5
        advance = sv._advance
        steps = []

        def clipping_advance(model, U, grid, params):
            steps.append(len(steps) + 1)
            U_new, cfl, clipped = advance(model, U, grid, params)
            return U_new, cfl, clipped + c

        monkeypatch.setattr(sv, "_advance", clipping_advance)
        message = f"clipped mass {3 * c:.3e} exceeds budget {budget:.3e}"
        with pytest.raises(ClipBudgetError, match=re.escape(message)):
            cli.run_scenario(cfg, tmp_path)
        assert steps == [1, 2, 3]

    def test_a_multilane_failure_names_its_step_and_time(self, tmp_path, monkeypatch):
        # as above, the clip budget stops step 3, which was to reach t = 3 dt
        cfg = cli.load_config(TWO_LANE_CFG)
        dens = ml.lane_densities(cfg.model, cli.build_initial(cfg))
        budget = sv.CLIP_BUDGET_REL * float(np.sum(dens.sum(axis=(0, 2)) * cfg.grid.dx))
        advance = sv._advance

        def clipping_advance(model, U, grid, params):
            U_new, cfl, clipped = advance(model, U, grid, params)
            return U_new, cfl, clipped + budget / 2.5

        monkeypatch.setattr(sv, "_advance", clipping_advance)
        with pytest.raises(ClipBudgetError) as info:
            cli.run_scenario(cfg, tmp_path)
        assert (info.value.step, info.value.t) == (3, 3 * cfg.scheme.dt)

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

    @pytest.mark.parametrize("points", [None, np.empty((0, 2))], ids=["map", "empty"])
    def test_boundary_csv_matches_the_per_value_reference(self, tmp_path, monkeypatch,
                                                          points):
        """boundary.csv has the bytes of one float repr per value."""
        cfg_path = two_lane_config(tmp_path, {})
        hmap = an.hyperbolicity_map(cli.load_config(cfg_path).model, 40)
        if points is not None:
            hmap = an.HyperbolicityMap(hmap.rho_plus, hmap.rho_minus, hmap.hyperbolic,
                                       points)
        monkeypatch.setattr(an, "hyperbolicity_map", lambda model, resolution: hmap)
        assert cli.main(["hyperbolicity-map", "--config", str(cfg_path),
                         "--out", str(tmp_path / "map")]) == 0
        want = ["rho_plus,rho_minus"] + [",".join(repr(float(v)) for v in point)
                                         for point in hmap.boundary_points]
        assert (tmp_path / "map" / "boundary.csv").read_text() == "\n".join(want) + "\n"

    def test_a_map_whose_delta_overflows_is_a_numerical_failure(self, tmp_path, capsys,
                                                                 monkeypatch):
        # flux partials of 1e200 at every node: Delta squares them past the
        # float range (the load probe does not call delta_field)
        def overflowing(model, rho_plus, rho_minus):
            return an.diffusive_discriminant((np.full(np.shape(rho_plus), 1e200),) * 4)

        monkeypatch.setattr(an, "delta_field", overflowing)
        cfg_path = two_lane_config(tmp_path, {})
        cfg_path.write_text(cfg_path.read_text() + "map.resolution = 40\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["hyperbolicity-map", "--config", str(cfg_path),
                             "--out", str(tmp_path / "map")])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert list((tmp_path / "map").iterdir()) == []

    def test_a_map_bisects_no_edge_to_an_unevaluated_node(self, tmp_path):
        # the load rules pass this law, but Delta is negative up to the jam
        # density near rho_plus / rho_star = 0.674.  At resolution 90 an edge
        # from such a node runs to a diagonal node, which is not evaluated and
        # reads hyperbolic; its bisection reached a total 6.9e-7 short of the
        # jam density, where Delta squares partials past the float range, and
        # the map exited 3.
        cfg_path = two_lane_config(tmp_path, {
            "pressure.gamma": 10, "pressure.eps": "1e87", "crowding.beta": 50})
        cfg_path.write_text(cfg_path.read_text() + "crowding_minus.kind = power\n"
                            "crowding_minus.beta = 10\nmap.resolution = 90\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["hyperbolicity-map", "--config", str(cfg_path),
                             "--out", str(tmp_path / "map")])
        assert code == 0
        points = np.loadtxt(tmp_path / "map" / "boundary.csv", delimiter=",",
                            skiprows=1, ndmin=2)
        # an edge between evaluated nodes ends at a total of at most
        # axis[88]; a point on an edge to a diagonal node lies past it by
        # about half the bisection tolerance at least
        axis = np.linspace(0.0, 1.0 - 1e-9, 90)
        assert len(points) > 0
        assert np.all(points.sum(axis=1) <= axis[-2] + 1e-9)

    @pytest.mark.parametrize("name", ["two_lane.cfg", "clusters.cfg"])
    def test_a_forked_map_has_the_bytes_of_one_process(self, tmp_path, monkeypatch,
                                                       forks, name):
        """The maps of the digest listing, at their resolution of 200, are
        bisected by two processes; one process writes the same bytes."""
        cfg_path = scenario_config(tmp_path, name, {})
        assert cli.load_config(cfg_path).map_resolution == 200

        def map_files(out):
            assert cli.main(["hyperbolicity-map", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        forked = map_files(tmp_path / "forked")
        assert len(forks) == 1
        monkeypatch.delattr(os, "fork")
        assert map_files(tmp_path / "unforked") == forked
        assert sorted(forked) == ["boundary.csv", "map.txt"]

    @pytest.mark.parametrize("keys, resolution", [
        ({"pressure.gamma": 17}, 10), ({"pressure.eps": "1e128"}, 10),
        ({"pressure.gamma": 17}, 50)], ids=["gamma_10", "eps_10", "gamma_50"])
    def test_a_map_evaluates_no_node_of_its_diagonal(self, tmp_path, keys, resolution):
        # the diagonal i + j = resolution - 1 has the total
        # rho_star (1 - 1e-9), but some of its nodes rounded below it, 4 at
        # resolution 10 and 12 at 50, and were evaluated: there Delta squares
        # partials past the float range, and these laws exited 3
        cfg_path = two_lane_config(tmp_path, keys)
        cfg_path.write_text(cfg_path.read_text() + f"map.resolution = {resolution}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["hyperbolicity-map", "--config", str(cfg_path),
                             "--out", str(tmp_path / "map")]) == 0
        assert sorted(p.name for p in (tmp_path / "map").iterdir()) == [
            "boundary.csv", "map.txt"]

    def test_dispersion_subcommand(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert cli.main(
            ["dispersion", "--config", str(cfg_path), "--out", str(tmp_path / "d")]
        ) == 0
        lines = (tmp_path / "d" / "dispersion.csv").read_text().splitlines()
        assert lines[0].startswith("# delta=")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "xi,re_s_plus,im_s_plus,re_s_minus,im_s_minus"

    def test_dispersion_linearises_the_state_once(self, tmp_path, monkeypatch):
        calls = []
        speeds = an.diffusive_speeds

        def counted(*args):
            calls.append(args)
            return speeds(*args)

        monkeypatch.setattr(an, "diffusive_speeds", counted)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert cli.main(
            ["dispersion", "--config", str(cfg_path), "--out", str(tmp_path / "d")]
        ) == 0
        assert len(calls) == 1

    def test_dispersion_of_a_state_without_a_summary_writes_the_table(
            self, tmp_path, capsys):
        # not hyperbolic and no diffusion: there is no stability summary, so
        # the table comes without # lines; this exited 2 after making --out
        cfg_path = base_config(tmp_path, {"scheme.delta": 0.0})
        cfg = cli.load_config(cfg_path)
        speeds = an.diffusive_speeds(cfg.model, cfg.rho_plus[0], cfg.rho_minus[0])
        assert an.diffusive_discriminant(speeds) < 0
        assert cli.main(
            ["dispersion", "--config", str(cfg_path), "--out", str(tmp_path / "d")]
        ) == 0
        lines = (tmp_path / "d" / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "xi,re_s_plus,im_s_plus,re_s_minus,im_s_minus"
        assert len(lines) == 1 + cfg.dispersion_n_points
        assert capsys.readouterr().err == ""
        # simulate applies the same rule: no stability.csv
        assert simulate_exit_code(cfg_path, tmp_path) == 0
        assert not (tmp_path / "o" / "stability.csv").exists()

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

    @pytest.mark.parametrize("eps", [1.0, 2.0])
    def test_the_default_table_range_of_a_large_eps_is_the_cap(self, tmp_path, eps):
        # from eps = 1 on, the band edge rho_star (1 - eps**(1/gamma)) is at
        # or below 0, so the range falls back to 0.999 rho_star; it ran from
        # 0 down to -0.414 at eps = 2 and was 0 in every row at eps = 1
        cfg_path = scenario_config(tmp_path, "pressure.cfg", {"pressure.eps": eps})
        assert cli.main(["pressure-table", "--config", str(cfg_path),
                         "--out", str(tmp_path / "p")]) == 0
        rho = np.loadtxt(tmp_path / "p" / "pressure_table.csv", delimiter=",",
                         skiprows=1, usecols=0)
        assert len(rho) == 200
        assert rho[0] == 0.0 and rho[-1] == 0.999
        assert np.all(np.diff(rho) > 0)


def simulate_exit_code(cfg_path, tmp_path, *flags):
    return cli.main(
        ["simulate", *flags, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    )


@st.composite
def near_jam_configs(draw, one_way=False):
    """Config text of a two_way_car or two_way_ar run of 1 to 3 lanes, or
    with one_way of a one_way_car or one_way_ar run of one lane, of 8 to 16
    cells and 1 to 5 steps, with each lane's base total in
    [0.97, 0.999) rho_star and drawn noise and seed."""
    kinds = ["one_way_car", "one_way_ar"] if one_way else ["two_way_car", "two_way_ar"]
    kind = draw(st.sampled_from(kinds))
    n_lanes = 1 if one_way else draw(st.integers(1, 3))
    dt = draw(st.sampled_from([1e-5, 1e-4, 1e-3, 1e-2]))
    rho_star = draw(st.sampled_from([1.0, 2.5]))
    totals = [rho_star * draw(st.floats(0.97, 0.999, exclude_max=True))
              for _ in range(n_lanes)]
    if one_way:
        bases = {"initial.rho": totals[0]}
    else:
        shares = [draw(st.floats(0.0, 1.0)) for _ in range(n_lanes)]
        bases = {"initial.rho_plus": [t * s for t, s in zip(totals, shares)],
                 "initial.rho_minus": [t - t * s for t, s in zip(totals, shares)]}
    keys = {
        "model.kind": kind, "pressure.M": 1.0, "pressure.m": 2.0,
        "pressure.eps": draw(st.sampled_from([1e-4, 1e-3, 1e-2])),
        "pressure.gamma": 2.0, "pressure.rho_star": rho_star,
        "grid.n_cells": draw(st.integers(8, 16)), "grid.dx": 1.0,
        "scheme.dt": dt, "scheme.delta": draw(st.sampled_from([0.0, 0.1])),
        **bases,
        "noise.sigma": draw(st.sampled_from([0.0]) | st.floats(0.0, 0.02)),
        "noise.seed": draw(st.integers(0, 2**16)),
        "run.t_end": draw(st.integers(1, 5)) * dt,
    }
    if kind.endswith("_car"):
        keys["model.V"] = 1.0
    else:
        for key in ["initial.w"] if one_way else ["initial.w_plus", "initial.w_minus"]:
            keys[key] = [draw(st.floats(0.5, 1.5)) for _ in range(n_lanes)]
    if n_lanes > 1:
        keys.update({"lanes.count": n_lanes,
                     "rates.lambda0": draw(st.sampled_from([0.0, 0.5, 5.0])),
                     "rates.ramp": draw(st.sampled_from(["positive_part", "sigmoid"])),
                     "rates.cutoff": draw(st.sampled_from(["linear", "quadratic"]))})

    def text(value):  # a per-lane list is written comma-separated
        return ", ".join(map(str, value)) if isinstance(value, list) else str(value)

    return "".join(f"{key} = {text(value)}\n" for key, value in keys.items())


def assert_exits_0_or_3_without_a_traceback_or_warning(text):
    # a step near the jam density may stop the run (exit 3, "numerical
    # failure: ..."), but no such config is a config error, an uncaught
    # exception or a RuntimeWarning
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cfg_path = write_config(Path(tmp), text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--config", str(cfg_path),
                             "--out", str(Path(tmp) / "o")])
    assert code in (0, 3), err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("numerical failure: ")
        assert "Traceback" not in err.getvalue()
    else:
        assert err.getvalue() == ""


@settings(max_examples=200, deadline=None)
@given(text=near_jam_configs())
def test_a_near_jam_run_exits_0_or_3_without_a_traceback_or_warning(text):
    assert_exits_0_or_3_without_a_traceback_or_warning(text)


def test_a_near_jam_sigmoid_ramp_does_not_overflow():
    # the offsets' material derivative falls far below -709 near the jam
    # density, where exp(-dpdt) of the sigmoid ramp overflows
    text = """
model.kind = two_way_car
model.V = 1.0
pressure.M = 1.0
pressure.m = 2.0
pressure.eps = 1e-2
pressure.gamma = 2.0
pressure.rho_star = 1.0
grid.n_cells = 12
grid.dx = 1.0
scheme.dt = 1e-5
scheme.delta = 0.0
initial.rho_plus = 0.31637400653797315, 0.4018402515718305
initial.rho_minus = 0.6594252451729499, 0.5794476658790688
noise.sigma = 0.0008714923710370259
noise.seed = 8743
run.t_end = 3e-5
lanes.count = 2
rates.lambda0 = 5.0
rates.ramp = sigmoid
"""
    assert_exits_0_or_3_without_a_traceback_or_warning(text)


@settings(max_examples=200, deadline=None)
@given(text=near_jam_configs(one_way=True))
def test_a_near_jam_one_way_run_exits_0_or_3_without_a_traceback_or_warning(text):
    # the one-way kinds evaluate the two-way pressure kernel as a lone stream
    assert_exits_0_or_3_without_a_traceback_or_warning(text)


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(1.0, 40.0, exclude_min=True),
       eps=st.sampled_from([0.0]) | st.builds("1e{}".format, st.integers(-12, 160)),
       resolution=st.integers(2, 20))
def test_a_map_exits_0_2_or_3_without_a_warning(gamma, eps, resolution):
    # two_lane.cfg's law with a drawn gamma and eps: the load rules reject
    # the laws that overflow where they probe (exit 2), a map whose Delta
    # overflows anyway stops (exit 3), and only a map of exit 0 is written
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        cfg_path = two_lane_config(Path(tmp), {"pressure.gamma": gamma,
                                               "pressure.eps": eps})
        cfg_path.write_text(cfg_path.read_text() + f"map.resolution = {resolution}\n")
        out = Path(tmp) / "map"
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["hyperbolicity-map", "--config", str(cfg_path),
                             "--out", str(out)])
        written = sorted(path.name for path in out.iterdir()) if out.exists() else []
    assert code in (0, 2, 3)
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    assert written == (["boundary.csv", "map.txt"] if code == 0 else [])


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

    @pytest.mark.parametrize("keys", [
        {"grid.dx": 1e-300},  # dx**2 underflows to 0
        {"grid.dx": 1e-160},  # dx**2 is subnormal
        {"grid.dx": 1e308},  # dx**2 overflows
        {"grid.dx": 1e-150, "scheme.delta": 1e300},  # the diffusion number overflows
    ])
    def test_dx_squared_is_checked_at_load(self, tmp_path, capsys, keys):
        cfg_path = base_config(tmp_path, keys)
        with pytest.raises(ConfigError, match=re.escape("grid.dx**2 must be a normal")):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2
        assert "config error: grid.dx**2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dx_with_a_normal_square_loads(self, tmp_path):
        for dx in (1e-150, 1e150):
            assert cli.load_config(base_config(tmp_path, {"grid.dx": dx})).grid.dx == dx

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


    # Before the initial bases were checked at load, the two_way_ar base
    # total of 1.2 stopped while stepping (exit 3), the two_way_car and the
    # negative sim_flux bases failed in the stability summary after creating
    # --out (exit 2), and one_way_car with no steps and the negative
    # two_way_ar base (clipped to 0) exited 0.
    @pytest.mark.parametrize("kind, keys, message", [
        (md.ModelKind.TWO_WAY_AR, {"initial.rho_plus": "0.7", "initial.rho_minus": "0.5",
                                   "run.t_end": "1.0"}, "initial total density"),
        (md.ModelKind.TWO_WAY_CAR, {"initial.rho_plus": "0.7", "initial.rho_minus": "0.5",
                                    "run.t_end": "1.0"}, "initial total density"),
        (md.ModelKind.ONE_WAY_CAR, {"initial.rho": "1.2", "run.t_end": "0"},
         "initial total density"),
        (md.ModelKind.TWO_WAY_AR, {"initial.rho_plus": "-0.1", "run.t_end": "1.0"},
         "initial densities must be >= 0"),
        (md.ModelKind.SIM_FLUX, {"initial.rho_plus": "-0.1", "run.t_end": "1.0"},
         "initial densities must be >= 0"),
        (md.ModelKind.TWO_WAY_CAR, {"initial.rho_plus": "0.3, 0.6",
                                    "initial.rho_minus": "0.4", "lanes.count": "2"},
         "initial total density"),
        (md.ModelKind.ONE_WAY_AR, {"initial.rho": "-0.2"}, "initial densities must be"),
    ], ids=["two_way_ar", "two_way_car", "one_way_car_no_steps", "negative_base",
            "negative_sim_flux_base", "second_lane", "one_way_ar_negative"])
    def test_inadmissible_initial_base_is_rejected_before_any_output(
            self, tmp_path, capsys, kind, keys, message):
        cfg_path = kind_config(tmp_path, kind, keys)
        with pytest.raises(ConfigError, match=message):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_base_just_below_the_jam_density_loads(self, tmp_path):
        cfg = cli.load_config(kind_config(tmp_path, md.ModelKind.ONE_WAY_CAR,
                                          {"initial.rho": "0.999999"}))
        assert cfg.rho == 0.999999

    def test_step_count_above_the_ceiling_is_rejected_before_any_output(self, tmp_path):
        # 1e12 steps never finished and wrote nothing
        cfg_path = base_config(tmp_path, {"scheme.dt": 1e-12, "run.t_end": 1.0})
        with pytest.raises(ConfigError, match="run.t_end / scheme.dt must be <= 1e"):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2
        assert not (tmp_path / "o").exists()
        # one snapshot interval, so the snapshot set stays below its bound
        at_ceiling = cli.MAX_STEPS * 0.2
        cfg = cli.load_config(base_config(tmp_path, {"run.t_end": at_ceiling,
                                                     "run.snapshot_every": at_ceiling}))
        assert sv.step_count(cfg.t_end, cfg.scheme.dt) == cli.MAX_STEPS

    def test_noise_past_the_density_scale_is_rejected_before_any_output(
            self, tmp_path, capsys):
        # clusters.cfg with noise.sigma = 1e200 exited 0 after an overflow in
        # the limiter
        text = (ROOT / "scenarios" / "clusters.cfg").read_text()
        cfg_path = write_config(tmp_path, text.replace("noise.sigma = 1e-2",
                                                       "noise.sigma = 1e200"))
        with pytest.raises(ConfigError, match="noise.sigma must be <= 1,"):
            cli.load_config(cfg_path)
        assert simulate_exit_code(cfg_path, tmp_path) == 2
        assert "config error: noise.sigma must be <= 1," in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # the scale is 1 for sim_flux and pressure.rho_star for the other kinds
        for kind, keys, scale in (
                (md.ModelKind.SIM_FLUX, {}, 1.0),
                (md.ModelKind.TWO_WAY_CAR, {"pressure.rho_star": "2.0"}, 2.0),
                (md.ModelKind.ONE_WAY_AR, {"pressure.rho_star": "0.5"}, 0.5)):
            at_scale = kind_config(tmp_path, kind, {**keys, "noise.sigma": repr(scale)})
            assert cli.load_config(at_scale).sigma == scale
            above = kind_config(tmp_path, kind, {
                **keys, "noise.sigma": repr(float(np.nextafter(scale, 2 * scale)))})
            with pytest.raises(ConfigError, match=f"noise.sigma must be <= {scale:g},"):
                cli.load_config(above)

    # map.resolution = 100000 asked np.meshgrid for two 10**10-entry arrays
    # (80 GB each); only the load rule is run here, never a large case
    @pytest.mark.parametrize("command, keys, name", [
        ("simulate", {"grid.n_cells": "1000001"}, "grid.n_cells * lanes.count"),
        ("simulate", {"grid.n_cells": "500001", "lanes.count": "2"},
         "grid.n_cells * lanes.count"),
        ("hyperbolicity-map", {"map.resolution": "1001"}, "map.resolution**2"),
        ("dispersion", {"dispersion.n_points": "1000001"}, "dispersion.n_points"),
        ("pressure-table", {"table.n_points": "1000001"}, "table.n_points"),
    ], ids=["cells", "cells_times_lanes", "map", "dispersion", "table"])
    def test_sizes_past_the_ceiling_are_rejected_before_any_output(
            self, tmp_path, command, keys, name):
        cfg_path = kind_config(tmp_path, md.ModelKind.TWO_WAY_CAR, keys)
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be <= 1e+06")):
            cli.load_config(cfg_path)
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_sizes_at_the_ceiling_load(self, tmp_path):
        assert cli.MAX_POINTS == 10**6
        cfg = cli.load_config(kind_config(tmp_path, md.ModelKind.TWO_WAY_CAR, {
            "grid.n_cells": "500000", "lanes.count": "2", "map.resolution": "1000",
            "dispersion.n_points": "1000000", "table.n_points": "1000000"}))
        assert (cfg.grid.n_cells * cfg.n_lanes, cfg.map_resolution ** 2,
                cfg.dispersion_n_points, cfg.table_n_points) == (10**6,) * 4

    def test_a_snapshot_set_past_the_bound_is_rejected_before_stepping(
            self, tmp_path, monkeypatch, capsys):
        # a snapshot at each of 50,000 steps of 2 x 10**6 values, about
        # 800 GB: the run could only end by being killed
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(sv, "_advance", no_step)
        cfg_path = scenario_config(tmp_path, "clusters.cfg", {
            "grid.n_cells": "1000000", "run.snapshot_every": "1e-6"})
        assert simulate_exit_code(cfg_path, tmp_path) == 2
        assert "run.snapshot_every" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # the bound counts 2 + run.t_end / run.snapshot_every snapshots
        assert cli.MAX_SNAPSHOT_VALUES == 10**7
        for every, loads in ((48.0, True), (47.0, False)):  # 50 * 2 * 10**5 = 10**7
            cfg_path = scenario_config(tmp_path, "clusters.cfg", {
                "grid.n_cells": "100000", "run.t_end": "2304",
                "run.snapshot_every": every})
            if loads:
                cli.load_config(cfg_path)
            else:
                with pytest.raises(ConfigError, match="run.snapshot_every"):
                    cli.load_config(cfg_path)

    # Each overflowed in the pressure law (a RuntimeWarning, an error under
    # the suite's filter) after creating --out: eps in a scalar divide of the
    # initial stability summary and in a divide of the map, gamma in the
    # power of 1/rho - 1/rho_star, rho_star in the power of the background.
    @pytest.mark.parametrize("scenario, key, command, extra", [
        ("two_lane.cfg", "pressure.eps", "simulate", ""),
        ("two_lane.cfg", "pressure.eps", "hyperbolicity-map", "map.resolution = 20\n"),
        ("pressure.cfg", "pressure.gamma", "simulate", ""),
        ("pressure.cfg", "pressure.rho_star", "pressure-table", ""),
    ], ids=["eps_simulate", "eps_map", "gamma_simulate", "rho_star_table"])
    def test_a_pressure_law_that_overflows_is_rejected_before_any_output(
            self, tmp_path, capsys, scenario, key, command, extra):
        text, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = 1e308",
                          (ROOT / "scenarios" / scenario).read_text(), flags=re.M)
        assert n == 1
        cfg_path = write_config(tmp_path, text + extra)
        with pytest.raises(ConfigError, match="the pressure law overflows"):
            cli.load_config(cfg_path)
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2
        assert "config error: the pressure law overflows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # eps from about 1e153 to 1e280 passed the rule on the offsets and
    # partials alone, and the squares of the partials in the speed bound and
    # in Delta overflowed at run time (1e175 to 1e250 in this sweep).
    @pytest.mark.parametrize("command", ["simulate", "hyperbolicity-map"])
    @pytest.mark.parametrize("k", range(0, 301, 25))
    def test_a_large_eps_runs_or_is_rejected_without_a_warning(self, tmp_path, command, k):
        cfg_path = two_lane_config(tmp_path, {"pressure.eps": f"1e{k}", "run.t_end": "1"})
        cfg_path.write_text(cfg_path.read_text() + "map.resolution = 20\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 2, 3)
        if k in (200, 250):
            assert code == 2
        if code == 2:
            assert not out.exists()


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
