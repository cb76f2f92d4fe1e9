import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnsim import cli
from kvnsim.cli import main
from kvnsim.config import ConfigError, config_from_dict, load_config
from kvnsim.grid import MEMORY_CAP_BYTES, GridSpec, apply_sequence, born_density, prepare_gaussian
from kvnsim.synth import trotter_circuit

QUARTIC_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "quartic.json"


def config_dict():
    return {
        "version": 1,
        "hamiltonian": {"n": 1, "H": "1/2 * x2^2 + 1/2 * x1^2"},
        "initial_density": {
            "mean": [1.0, 0.0],
            "covariance": [[0.5, 0.0], [0.0, 0.5]],
        },
        "grid": {"points_per_mode": 64, "half_extent": 8.0},
        "evolution": {"t": 1.5707963267948966, "n_steps": 50, "order": 2},
        "backend": "grid",
        "sampling": {"num_samples": 200, "seed": 7},
        "outputs": "out",
        "verify": {"tv_threshold": 0.05, "moment_threshold": 0.01},
    }


def write_config(path, **overrides):
    data = config_dict()
    data["outputs"] = str(path.parent / "out")
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    path.write_text(json.dumps(data))
    return path


# Every field of a config, and a JSON value of each type to put in one.
FUZZ_FIELDS = [
    "version", "hamiltonian", "hamiltonian.n", "hamiltonian.H", "initial_density",
    "initial_density.mean", "initial_density.covariance", "grid",
    "grid.points_per_mode", "grid.half_extent", "evolution", "evolution.t",
    "evolution.n_steps", "evolution.order", "backend", "sampling",
    "sampling.num_samples", "sampling.seed", "outputs", "verify",
    "verify.tv_threshold", "verify.moment_threshold",
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


class TestConfigValidation:
    def test_cross_term_rejected_with_context(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", hamiltonian={"n": 1, "H": "x1 * x2"}
        )
        with pytest.raises(ConfigError, match="separation"):
            load_config(cfg)

    def test_degree_bound_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", hamiltonian={"n": 1, "H": "x1^5"}
        )
        with pytest.raises(ConfigError, match="quartic"):
            load_config(cfg)

    def test_gaussian_backend_requires_quadratic(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            hamiltonian={"n": 1, "H": "1/2 * x2^2 + 1/40 * x1^4"},
            backend="gaussian",
        )
        with pytest.raises(ConfigError, match="gaussian backend"):
            load_config(cfg)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(ConfigError, match="hamiltonian"):
            load_config(path)

    def test_bad_covariance_shape(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", initial_density={"mean": [0.0, 0.0], "covariance": [[1.0]]}
        )
        with pytest.raises(ConfigError, match="covariance"):
            load_config(cfg)

    def test_unsupported_version(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", version=99)
        with pytest.raises(ConfigError, match="version"):
            load_config(cfg)

    @settings(deadline=None)
    @given(field=st.sampled_from(FUZZ_FIELDS), value=JSON_VALUES)
    def test_any_field_value_returns_or_raises_config_error(self, field, value):
        data = config_dict()
        *sections, key = field.split(".")
        target = data
        for name in sections:
            target = target[name]
        target[key] = value
        try:
            config_from_dict(data)
        except ConfigError:
            pass


class TestExitCodes:
    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", hamiltonian={"n": 1, "H": "x1 * x2"})
        code = main(["evolve", "--config", str(cfg)])
        assert code == 2
        assert "separation" in capsys.readouterr().err

    def test_threshold_breach_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            evolution={"t": 1.5707963267948966, "n_steps": 3, "order": 1},
            verify={"tv_threshold": 1e-9, "moment_threshold": 1e-9},
        )
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == 3
        assert "FAILED" in capsys.readouterr().out

    def test_blow_up_exit_code(self, tmp_path, capsys):
        # inverted quartic: the classical characteristics escape to infinity
        cfg = write_config(
            tmp_path / "c.json",
            hamiltonian={"n": 1, "H": "1/2 * x2^2 - x1^4"},
            initial_density={"mean": [0.0, 0.0], "covariance": [[0.1, 0.0], [0.0, 0.1]]},
            evolution={"t": 5.0, "n_steps": 5, "order": 1},
            grid={"points_per_mode": 32, "half_extent": 8.0},
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == 4
        assert "blow-up" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["tv_threshold", "moment_threshold"])
    def test_non_finite_threshold_exit_code(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path / "c.json", verify={field: value})
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == 2
        assert f"verify.{field}" in capsys.readouterr().err

    def test_points_not_power_of_two_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", grid={"points_per_mode": 100})
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == 2
        assert "grid.points_per_mode" in capsys.readouterr().err

    def test_too_many_modes_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            hamiltonian={
                "n": 3,
                "H": "1/2 * x4^2 + 1/2 * x5^2 + 1/2 * x6^2 + 1/2 * x1^2 + 1/2 * x2^2 + 1/2 * x3^2",
            },
            initial_density={"mean": [0.0] * 6, "covariance": (0.5 * np.eye(6)).tolist()},
        )
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == 2
        assert "hamiltonian.n" in capsys.readouterr().err

    def test_box_smaller_than_initial_density_exit_code(self, tmp_path, capsys):
        # mean 1 plus two standard deviations (2 * sqrt(0.5)) exceeds 2.0
        cfg = write_config(tmp_path / "c.json", grid={"half_extent": 2.0})
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == 2
        assert "grid.half_extent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"hamiltonian": {"n": "x"}}, "hamiltonian.n"),
            ({"hamiltonian": {"n": 1.7}}, "hamiltonian.n"),
            ({"hamiltonian": {"n": 100000}}, "hamiltonian.n"),
            # checked before parsing, which would need 2n-long exponent lists
            ({"hamiltonian": {"n": 10**12}}, "hamiltonian.n"),
            ({"hamiltonian": {"H": "1/0 * x1^2"}}, "hamiltonian.H"),
            ({"grid": {"points_per_mode": "abc"}}, "grid.points_per_mode"),
            ({"grid": {"points_per_mode": 64.9}}, "grid.points_per_mode"),
            ({"grid": [64, 8]}, "grid"),
            ({"grid": {"half_extent": "big"}}, "grid.half_extent"),
            ({"evolution": {"t": "soon"}}, "evolution.t"),
            ({"evolution": {"n_steps": None}}, "evolution.n_steps"),
            ({"evolution": {"n_steps": 10.7}}, "evolution.n_steps"),
            ({"initial_density": {"mean": "x"}}, "initial_density.mean"),
            ({"initial_density": {"mean": [1, True]}}, "initial_density.mean"),
            ({"initial_density": {"mean": [float("nan"), 0.0]}}, "initial_density.mean"),
            (
                {"initial_density": {"covariance": [[0.5, 0.0], [0.0]]}},
                "initial_density.covariance",
            ),
            ({"sampling": {"seed": "x"}}, "sampling.seed"),
            ({"sampling": {"seed": -1}}, "sampling.seed"),
            ({"verify": 5}, "verify"),
            ({"verify": {"tv_threshold": "x"}}, "verify.tv_threshold"),
            ({"outputs": ["a"]}, "outputs"),
            ({"grid": {"half_extent": 1e308}}, "grid.half_extent"),
            # each bounded by the memory cap before anything is allocated
            ({"evolution": {"n_steps": 10**30}}, "evolution.n_steps"),
            ({"sampling": {"num_samples": 10**30}}, "sampling.num_samples"),
            # finite t whose gate strengths overflow: t / n_steps times 10 * 2
            (
                {"hamiltonian": {"H": "1/2 * x2^2 + 1/2 * x1^2 + 10 * x1^4"},
                 "evolution": {"t": 1e308, "n_steps": 1}, "grid": {"points_per_mode": 16}},
                "evolution.t",
            ),
            ({"hamiltonian": {"H": f"1/2 * x2^2 + 1{'0' * 400} * x1^4"}}, "hamiltonian.H"),
            # a step length that rounds to 0.0, and one count beyond the
            # float range, still meet the n_steps bound
            ({"evolution": {"t": 1e-300, "n_steps": 10**30}}, "evolution.n_steps"),
            ({"evolution": {"n_steps": 10**400}}, "evolution.n_steps"),
        ],
    )
    def test_malformed_value_exit_code(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path / "c.json", **overrides)
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: {field}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("field", ["evolution.n_steps", "sampling.num_samples"])
    def test_memory_bound_exact(self, field):
        # validated only, never run: the largest accepted value would
        # allocate the whole memory cap
        data = config_dict()
        config = config_from_dict(data)
        if field == "evolution.n_steps":
            per_item = 8 * len(trotter_circuit(config.kvn, 1.0, 1, config.order))
        else:
            per_item = 8 * config.num_modes
        section, key = field.split(".")
        data[section][key] = MEMORY_CAP_BYTES // per_item
        config_from_dict(data)
        data[section][key] += 1
        with pytest.raises(ConfigError, match=f"^{field}: .* memory cap"):
            config_from_dict(data)

    def test_output_directory_under_a_file_exit_code(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "file").write_text("")
        cfg = write_config(tmp_path / "c.json", grid={"points_per_mode": 16},
                           evolution={"n_steps": 2}, outputs=str(tmp_path / "file" / "out"))
        evolved = []
        run = cli._run_evolution
        monkeypatch.setattr(cli, "_run_evolution", lambda config: evolved.append(1) or run(config))
        code = main(["evolve", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: outputs:" in err
        assert "Traceback" not in err
        # the directory is checked before any evolution runs
        assert evolved == []

    def test_gaussian_backend_override_needs_quadratic_generator(self, tmp_path, capsys):
        code = main([
            "evolve", "--config", str(QUARTIC_CONFIG), "--out", str(tmp_path / "v"),
            "--backend", "gaussian",
        ])
        assert code == 2
        assert "gaussian backend" in capsys.readouterr().err

    def test_identities_exit_zero(self, capsys):
        assert main(["identities"]) == 0
        out = capsys.readouterr().out
        assert "identities PASS" in out
        assert "FAIL" not in out


def run_fresh(argv: list[str], absent: str) -> None:
    """Run the CLI in a fresh process, so no other test's imports count, and
    check that no module named ``absent`` or under it was loaded."""
    code = (
        "import sys\n"
        "from kvnsim.cli import main\n"
        f"code = main({argv!r})\n"
        f"loaded = sorted(m for m in sys.modules if m.split('.')[0] == {absent.split('.')[0]!r})\n"
        f"assert {absent!r} not in loaded, loaded\n"
        "sys.exit(code)\n"
    )
    paths = [str(QUARTIC_CONFIG.parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr


class TestImports:
    @pytest.mark.parametrize(
        "argv", [["identities"], ["synth", "--config", str(QUARTIC_CONFIG)]]
    )
    def test_command_without_transforms_loads_no_scipy(self, argv):
        run_fresh(argv, "scipy")

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_grid_command_loads_no_scipy(self, tmp_path, command):
        # 128^2 points: the plan runs slab steps on a machine with two CPUs
        cfg = write_config(tmp_path / "c.json", grid={"points_per_mode": 128},
                           evolution={"n_steps": 10})
        run_fresh([command, "--config", str(cfg), "--out", str(tmp_path / "v")], "scipy")
        assert (tmp_path / "v" / "density.csv").exists()

    def test_identities_starts_no_thread_pool(self):
        run_fresh(["identities"], "concurrent.futures")


class TestEvolve:
    def test_outputs_written_and_deterministic(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["evolve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("density.csv", "moments.csv", "samples.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_harmonic_grid_moments(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = {
            tuple(line.split(",")[:3]): float(line.split(",")[3])
            for line in (out / "moments.csv").read_text().splitlines()[1:]
        }
        assert abs(rows[("mean", "x1", "")]) <= 1e-2
        assert abs(rows[("mean", "x2", "")] + 1.0) <= 1e-2

    def test_zero_time_density_matches_initial(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", evolution={"t": 0.0, "n_steps": 1, "order": 1}
        )
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        spec = GridSpec(num_modes=2, points_per_mode=64, half_extent=8.0)
        expected = born_density(
            prepare_gaussian(spec, [1.0, 0.0], 0.5 * np.eye(2))
        ).values
        lines = (out / "density.csv").read_text().splitlines()[1:]
        values = np.array([float(l.rsplit(",", 1)[1]) for l in lines])
        assert np.max(np.abs(values - expected.ravel())) <= 1e-12

    def test_four_mode_density_csv_matches_in_process_run(self, tmp_path):
        # the benchmark's coupled 4-mode run at 16 points per mode
        cfg = write_config(
            tmp_path / "c.json",
            hamiltonian={
                "n": 2,
                "H": "1/2 * x3^2 + 1/2 * x4^2 + 1/2 * x1^2 + 1/2 * x2^2 "
                     "+ 1/20 * x1^2 * x2^2",
            },
            initial_density={
                "mean": [1.0, 0.5, 0.0, 0.0],
                "covariance": (0.5 * np.eye(4)).tolist(),
            },
            grid={"points_per_mode": 16, "half_extent": 8.0},
            evolution={"t": 1.0, "n_steps": 4, "order": 2},
        )
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "density.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,x3,x4,density"
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
        assert table.shape == (16 ** 4, 5)
        config = load_config(cfg)
        xs = config.spec.positions().tolist()
        assert np.array_equal(table[:, :4], np.array(list(itertools.product(xs, repeat=4))))
        circuit = trotter_circuit(config.kvn, config.t, config.n_steps, config.order)
        state = prepare_gaussian(config.spec, config.mean, config.covariance)
        expected = born_density(apply_sequence(state, circuit)).values
        assert np.array_equal(table[:, 4], expected.ravel())

    def test_gaussian_backend_exact_moments(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", backend="gaussian")
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = {
            tuple(line.split(",")[:3]): float(line.split(",")[3])
            for line in (out / "moments.csv").read_text().splitlines()[1:]
        }
        assert rows[("mean", "x1", "")] == pytest.approx(0.0, abs=1e-12)
        assert rows[("mean", "x2", "")] == pytest.approx(-1.0, abs=1e-12)

    def test_backend_override_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        code = main([
            "evolve", "--config", str(cfg), "--out", str(out), "--backend", "gaussian"
        ])
        assert code == 0


class TestSynth:
    def test_harmonic_first_order_step_has_two_cx(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            evolution={"t": 1.0, "n_steps": 10, "order": 1},
        )
        assert main(["synth", "--config", str(cfg), "--dump-kvn"]) == 0
        out = capsys.readouterr().out
        assert "+ (x2) P0" in out
        assert "- (x1) P1" in out
        step_lines = []
        in_step = False
        for line in out.splitlines():
            if line.startswith("# one"):
                in_step = True
                continue
            if line.startswith("# full"):
                break
            if in_step and line.strip():
                step_lines.append(line)
        assert len(step_lines) == 2
        assert all(l.startswith("CX ") for l in step_lines)

    def test_quartic_circuit_contains_inner_phase_gates(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            hamiltonian={"n": 1, "H": "1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4"},
            evolution={"t": 1.0, "n_steps": 10, "order": 1},
        )
        assert main(["synth", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "Q " in out  # quartic inner phase gates
        assert "F " in out and "FDAG " in out

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        main(["synth", "--config", str(cfg)])
        first = capsys.readouterr().out
        main(["synth", "--config", str(cfg)])
        assert capsys.readouterr().out == first


class TestVerify:
    def test_harmonic_defaults_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == 0
        out = capsys.readouterr().out
        assert "verification PASS" in out

    def test_gaussian_backend_verify(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", backend="gaussian")
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == 0
