import ast
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvnsim import cli
from kvnsim.cli import main
from kvnsim.config import ConfigError, config_from_dict, load_config
from kvnsim.expansion import admissible_exponent_triples
from kvnsim.grid import (
    FLOAT_TEXT_BYTES,
    MEMORY_CAP_BYTES,
    TEXT_CHUNK,
    DensityGrid,
    GridSpec,
    apply_sequence,
    born_density,
    density_to_csv,
    prepare_gaussian,
)
from kvnsim.oracle import (
    BlowUpError,
    DensityComparison,
    FlowMap,
    gaussian_density,
    liouville_density_grid,
)
from kvnsim.phasepoly import PhasePolynomial
from kvnsim.synth import trotter_circuit
from kvnsim.weyl import verify_key_decomposition

QUARTIC_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "quartic.json"
HARMONIC_CONFIG = QUARTIC_CONFIG.with_name("harmonic.json")


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


def coupled4_config(path, points=16, n_steps=20):
    """The benchmark's coupled 4-mode run, at ``points`` per mode."""
    return write_config(
        path,
        hamiltonian={
            "n": 2,
            "H": "1/2 * x3^2 + 1/2 * x4^2 + 1/2 * x1^2 + 1/2 * x2^2 "
                 "+ 1/20 * x1^2 * x2^2",
        },
        initial_density={
            "mean": [1.0, 0.5, 0.0, 0.0],
            "covariance": (0.5 * np.eye(4)).tolist(),
        },
        grid={"points_per_mode": points, "half_extent": 8.0},
        evolution={"t": 1.0, "n_steps": n_steps, "order": 2},
    )


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
    @example(field="hamiltonian.H", value=5)
    def test_any_field_value_returns_or_raises_config_error(self, field, value):
        data = config_dict()
        *sections, key = field.split(".")
        target = data
        for name in sections:
            target = target[name]
        target[key] = value
        try:
            config_from_dict(data)
        except ConfigError as exc:
            # the message names its field once, as its prefix
            name, _, rest = str(exc).partition(": ")
            assert not rest.startswith(f"{name}:"), str(exc)


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
            # finite spacings whose cell volume, dx^2, overflows
            ({"grid": {"half_extent": 1e200}}, "grid.half_extent"),
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
            per_item = (8 + FLOAT_TEXT_BYTES) * config.num_modes
        section, key = field.split(".")
        data[section][key] = MEMORY_CAP_BYTES // per_item
        config_from_dict(data)
        data[section][key] += 1
        with pytest.raises(ConfigError, match=f"^{field}: .* memory cap"):
            config_from_dict(data)

    def test_reference_step_list_beyond_the_memory_cap_exit_code(self, tmp_path, capsys):
        # 1e15 steps of the reference's flow; evolve runs no flow
        cfg = write_config(tmp_path / "c.json", grid={"points_per_mode": 16},
                           evolution={"t": 1e12})
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: evolution.t:" in err and "memory cap" in err
        assert "Traceback" not in err
        # rejected before the output directory is made
        assert not (tmp_path / "v").exists()
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0

    @pytest.mark.parametrize("dt", [0.25, 1.0])
    def test_reference_step_bound_exact(self, dt):
        # checked only, never flowed: the largest accepted t lists steps
        # filling the whole memory cap at 8 bytes each
        steps = MEMORY_CAP_BYTES // 8
        for sign in (1.0, -1.0):
            cli._check_reference_steps(sign * steps * dt, dt)
            with pytest.raises(ConfigError, match="^evolution.t: .* memory cap"):
                cli._check_reference_steps(sign * (steps + 1) * dt, dt)
        with pytest.raises(ConfigError, match="^evolution.t: "):
            cli._check_reference_steps(1e308, 1e-3)  # |t| / dt overflows

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

    @pytest.mark.parametrize("command, name", [
        ("evolve", "density.csv"), ("evolve", "moments.csv"), ("evolve", "samples.csv"),
        ("verify", "density.csv"), ("verify", "samples.csv"),
        ("verify", "reference_density.csv"),
    ])
    def test_output_file_that_cannot_be_written_exit_code(self, tmp_path, capsys, command, name):
        # a directory in the file's place: opening it raises IsADirectoryError
        cfg = write_config(tmp_path / "c.json", grid={"points_per_mode": 16},
                           evolution={"n_steps": 2})
        (tmp_path / "v" / name).mkdir(parents=True)
        before = set(threading.enumerate())
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: outputs: cannot write {tmp_path / 'v' / name}:" in err
        assert "Traceback" not in err
        # the reference's worker has been joined
        left = set(threading.enumerate()) - before
        assert all(t.name.startswith("kvnsim-slab") for t in left), left

    @pytest.mark.parametrize("backend", ["grid", "gaussian"])
    @pytest.mark.parametrize("covariance, problem", [
        ([[0.5, 0.1], [0.0, 0.5]], "symmetric"),
        ([[0.5, 0.0], [0.0, -0.5]], "positive definite"),
    ], ids=["asymmetric", "indefinite"])
    def test_covariance_that_is_not_one_exit_code(
            self, tmp_path, capsys, covariance, problem, backend):
        cfg = write_config(tmp_path / "c.json", initial_density={"covariance": covariance},
                           backend=backend)
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: initial_density.covariance: covariance must be {problem}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "v").exists()

    def test_unreadable_config_path_exit_code(self, tmp_path, capsys):
        # a directory: reading it raises IsADirectoryError, an OSError
        code = main(["synth", "--config", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: config file {tmp_path} cannot be read" in err
        assert "Traceback" not in err

    def test_gaussian_narrower_than_the_grid_exit_code(self, tmp_path, capsys, monkeypatch):
        # every cell value of the initial state underflows to 0
        cfg = write_config(
            tmp_path / "c.json", grid={"points_per_mode": 16, "half_extent": 4.0},
            initial_density={"mean": [0.05, 0.05], "covariance": [[1e-12, 0], [0, 1e-12]]})
        evolved = []
        monkeypatch.setattr(cli, "apply_sequence", lambda *args: evolved.append(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: initial_density.covariance:" in err
        assert "Traceback" not in err
        # rejected before any gate runs
        assert evolved == []

    @pytest.mark.parametrize(
        "n,hamiltonian,t", [(1, "1/2 * x2^2", 1e8), (2, "1/2 * x3^2 + 1/2 * x4^2", 1e9)],
        ids=["n1", "n2"])
    def test_gaussian_backend_singular_evolved_covariance_exit_code(
            self, tmp_path, capsys, n, hamiltonian, t):
        # free flight for so long that the evolved covariance rounds to a
        # singular matrix: position variances near t^2 / 2 beside 1/2
        cfg = write_config(
            tmp_path / "c.json", hamiltonian={"n": n, "H": hamiltonian},
            initial_density={"mean": [1.0, 0.5, 0.0, 0.0][:2 * n],
                             "covariance": (0.5 * np.eye(2 * n)).tolist()},
            evolution={"t": t, "n_steps": 1, "order": 2})
        code = main(["evolve", "--config", str(cfg), "--backend", "gaussian",
                     "--out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: initial_density.covariance:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_gaussian_backend_narrower_than_a_cell_exit_code(self, tmp_path, capsys, command):
        # the evolved density is 0 at every cell centre: its moments and the
        # comparison would be NaN
        cfg = write_config(
            tmp_path / "c.json", grid={"points_per_mode": 16, "half_extent": 4.0},
            initial_density={"mean": [0.05, 0.05], "covariance": [[1e-12, 0], [0, 1e-12]]},
            backend="gaussian")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg), "--out", str(tmp_path / "v")])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error: initial_density.covariance:" in captured.err
        assert "PASS" not in captured.out
        assert not list((tmp_path / "v").glob("*.csv"))

    def test_non_finite_comparison_is_a_breach(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "c.json", grid={"points_per_mode": 16},
                           evolution={"n_steps": 2})
        nan = float("nan")
        monkeypatch.setattr(cli, "compare_densities",
                            lambda a, b: DensityComparison(nan, np.array([nan, nan]), nan))
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert code == 3
        assert "first-moment error: nan" in out and "verification FAILED" in out

    def test_gaussian_backend_override_needs_quadratic_generator(self, tmp_path, capsys):
        code = main([
            "evolve", "--config", str(QUARTIC_CONFIG), "--out", str(tmp_path / "v"),
            "--backend", "gaussian",
        ])
        assert code == 2
        assert "gaussian backend" in capsys.readouterr().err

    def test_identities_exit_zero(self, capsys):
        # every proof, then the 24 product-rule cases in the table's order
        assert main(["identities"]) == 0
        proofs = [verify_key_decomposition(*triple).to_text()
                  for triple in admissible_exponent_triples()]
        labels = [f"product rule n={n} case {k}: PASS" for n in (1, 2, 3) for k in range(8)]
        assert len(proofs) == 6
        assert capsys.readouterr().out.splitlines() == (
            "\n".join(proofs).splitlines() + labels + ["30/30 identities PASS"]
        )


def drawn_product_rule_cases() -> list[tuple[int, dict, dict, dict]]:
    """The draw the product-rule battery's stored cases come from: for
    n = 1, 2, 3, eight cases (h, f, g) of four terms each in 2n variables,
    up to degree 3, with integer coefficients in [-5, 5]."""
    rng = np.random.default_rng(20240801)

    def random_terms(num_vars: int, degree: int) -> dict:
        terms = {}
        for _ in range(4):
            expo = [0] * num_vars
            for _ in range(rng.integers(0, degree + 1)):
                expo[rng.integers(0, num_vars)] += 1
            terms[tuple(expo)] = int(rng.integers(-5, 6))
        return terms

    return [(n, *(random_terms(2 * n, 3) for _ in range(3)))
            for n in (1, 2, 3) for _ in range(8)]


class TestProductRuleBattery:
    def test_stored_cases_are_the_seeded_draw(self):
        stored = cli._PRODUCT_RULE_CASES
        drawn = drawn_product_rule_cases()
        assert len(stored) == len(drawn) == 24
        for (n, *texts), (drawn_n, *drawn_polys) in zip(stored, drawn):
            assert n == drawn_n
            for text, drawn_terms in zip(texts, drawn_polys, strict=True):
                # term for term in the draw's order, zero coefficients included
                terms = cli._case_terms(text)
                assert list(terms.items()) == list(drawn_terms.items())
                assert PhasePolynomial(2 * n, terms) == PhasePolynomial(2 * n, drawn_terms)


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

    @pytest.mark.parametrize("module", ["numpy.random", "_hashlib"])
    def test_identities_draws_no_random_numbers(self, module):
        # numpy.random's extensions, and the OpenSSL hashes it loads through
        # secrets, take about 6 MB of the run's memory
        run_fresh(["identities"], module)

    def test_declared_dependencies_are_the_imported_packages(self):
        # pyproject.toml's [project] dependencies name exactly the
        # third-party packages kvnsim imports, at load or inside a function
        tomllib = pytest.importorskip("tomllib")
        root = QUARTIC_CONFIG.parent.parent
        project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
        declared = {re.match(r"[\w.-]+", spec).group().lower() for spec in project["dependencies"]}
        imported = set()
        for path in (root / "src" / "kvnsim").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported |= {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        assert imported - set(sys.stdlib_module_names) - {"kvnsim"} == declared


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
        cfg = coupled4_config(tmp_path / "c.json", n_steps=4)
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
        apply_sequence(state, circuit)
        expected = born_density(state).values
        assert np.array_equal(table[:, 4], expected.ravel())

    def test_grid_evolution_holds_one_state(self, tmp_path, monkeypatch):
        # Under tracemalloc, in units of one 16^4 state (1.05 MB): the plan
        # runs on the prepared state with the two block matrices beside it
        # (peak 4.14; a copy of the state makes it 5.14), and the measure
        # stage holds the density and no state (0.54 on entry to
        # position_moments; the state kept alive makes it 1.54). A first,
        # untraced run makes the imports the command makes on first use.
        config = load_config(coupled4_config(tmp_path / "c.json"))
        state_bytes = 16 * 16 ** 4
        held, own = [], cli.position_moments

        def moments(density):
            held.append(tracemalloc.get_traced_memory()[0])
            return own(density)

        monkeypatch.setattr(cli, "position_moments", moments)
        cli._run_evolution(config)
        tracemalloc.start()
        try:
            cli._run_evolution(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.6 * state_bytes
        assert held[-1] <= state_bytes

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

    @pytest.mark.parametrize("coupled", [False, True])
    def test_gaussian_backend_density_is_the_evolved_normal(self, tmp_path, coupled):
        from scipy.linalg import expm
        from scipy.stats import multivariate_normal

        if coupled:
            # H = p.p/2 + x.K.x/2 on a 4-mode grid
            stiffness = [[1.0, 0.2], [0.2, 1.0]]
            cfg = write_config(
                tmp_path / "c.json",
                hamiltonian={"n": 2, "H": "1/2 * x3^2 + 1/2 * x4^2 + 1/2 * x1^2 "
                                          "+ 1/2 * x2^2 + 1/5 * x1 * x2"},
                initial_density={"mean": [1.0, 0.5, 0.0, 0.2],
                                 "covariance": (0.5 * np.eye(4)).tolist()},
                grid={"points_per_mode": 16, "half_extent": 8.0})
        else:
            stiffness, cfg = [[1.0]], HARMONIC_CONFIG
        out = tmp_path / "v"
        assert main(["evolve", "--config", str(cfg), "--out", str(out),
                     "--backend", "gaussian"]) == 0
        config = load_config(cfg)
        n = config.hamiltonian.n
        # the linear flow of dx/dt = p, dp/dt = -K x carries N(mean, cov)
        generator = np.zeros((2 * n, 2 * n))
        generator[:n, n:] = np.eye(n)
        generator[n:, :n] = -np.asarray(stiffness)
        flow = expm(config.t * generator)
        exact = multivariate_normal(flow @ config.mean, flow @ config.covariance @ flow.T)
        table = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
        assert table.shape == (config.points_per_mode ** (2 * n), 2 * n + 1)
        expected = exact.pdf(table[:, :-1])
        # exp(-q/2) turns an ulp of the quadratic form q into a relative
        # error of about q/2 ulps: 1e-13 relative per unit of q/2
        half_q = exact.logpdf(exact.mean) - exact.logpdf(table[:, :-1])
        error = np.abs(table[:, -1] - expected) / expected
        assert np.all(error <= 1e-13 * (1.0 + half_q))

    def test_gaussian_backend_measures_the_density_it_writes(self, tmp_path, capsys):
        # a free particle drifting out of the box: 11 % of the mass leaves
        cfg = write_config(
            tmp_path / "c.json", hamiltonian={"n": 1, "H": "1/2 * x2^2"}, backend="gaussian",
            initial_density={"mean": [0.0, 3.0], "covariance": [[0.5, 0.0], [0.0, 0.5]]},
            grid={"points_per_mode": 128, "half_extent": 8.0},
            evolution={"t": 2.0, "n_steps": 20, "order": 2})
        out = tmp_path / "v"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = {
            line.split(",")[1]: float(line.split(",")[3])
            for line in (out / "moments.csv").read_text().splitlines()
            if line.startswith("metric,")
        }
        table = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
        values = table[:, -1].reshape(128, 128)
        cell = (16.0 / 128) ** 2
        index = np.arange(128)
        near = (index < 2) | (index >= 126)
        face_mass = float(values[near[:, None] | near[None, :]].sum()) * cell
        assert face_mass > 1e-2
        assert metrics["boundary_mass"] == pytest.approx(face_mass, rel=1e-12)
        norm_error = abs(np.sqrt(values.sum() * cell) - 1.0)
        assert norm_error > 5e-2
        assert metrics["norm_error"] == pytest.approx(norm_error, rel=1e-12)
        assert f"boundary mass: {face_mass:.3e}" in capsys.readouterr().out

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

    def test_reference_csv_matches_in_process_oracle(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
        config = load_config(cfg)
        reference = liouville_density_grid(
            FlowMap(config.hamiltonian), gaussian_density(config.mean, config.covariance),
            config.t, config.spec)
        written = (tmp_path / "v" / "reference_density.csv").read_bytes()
        assert written == density_to_csv(reference)

    def test_reference_runs_in_a_worker_that_ends_with_the_command(self, tmp_path, monkeypatch):
        # 128^2 points: the grid's plan runs slab steps too
        cfg = write_config(tmp_path / "c.json", grid={"points_per_mode": 128},
                           evolution={"n_steps": 10})
        ran_in = []

        def reference(*args):
            ran_in.append(threading.current_thread())
            return liouville_density_grid(*args)

        monkeypatch.setattr(cli, "liouville_density_grid", reference)
        before = set(threading.enumerate())
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
        assert [t.name.split("_")[0] for t in ran_in] == ["kvnsim-reference"]
        # only the grid's slab worker may outlive the command
        left = set(threading.enumerate()) - before
        assert all(t.name.startswith("kvnsim-slab") for t in left), left

    def test_output_directory_under_a_file_starts_no_reference(
            self, tmp_path, capsys, monkeypatch):
        (tmp_path / "file").write_text("")
        cfg = write_config(tmp_path / "c.json", grid={"points_per_mode": 16},
                           evolution={"n_steps": 2}, outputs=str(tmp_path / "file" / "out"))
        started = []
        monkeypatch.setattr(cli, "liouville_density_grid", lambda *args: started.append(1))
        code = main(["verify", "--config", str(cfg)])
        assert code == 2
        assert "config error: outputs:" in capsys.readouterr().err
        assert started == []

    def test_evolution_error_wins_over_reference_error(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "c.json", grid={"points_per_mode": 16},
                           evolution={"n_steps": 2})

        def reference(*args):
            raise BlowUpError("reference")

        def evolution(config):
            raise ConfigError("initial_density.covariance: evolution")

        monkeypatch.setattr(cli, "liouville_density_grid", reference)
        monkeypatch.setattr(cli, "_run_evolution", evolution)
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == 2
        assert "evolution" in capsys.readouterr().err

    def test_reference_error_after_the_evolution_exit_code(self, tmp_path, capsys, monkeypatch):
        # the grid's CSVs are written; the reference's is not
        cfg = write_config(tmp_path / "c.json", grid={"points_per_mode": 16},
                           evolution={"n_steps": 2})

        def reference(*args):
            raise BlowUpError("reference")

        monkeypatch.setattr(cli, "liouville_density_grid", reference)
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == 4
        assert "numerical blow-up: reference" in capsys.readouterr().err
        assert (tmp_path / "v" / "density.csv").exists()
        assert not (tmp_path / "v" / "reference_density.csv").exists()


class TestDensityPieces:
    """evolve and verify write each density CSV CSV_PIECE_CELLS cells at a
    time, so a file's text is never held whole."""

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_pieces_join_into_the_whole_file(self, tmp_path, monkeypatch, command):
        # 64^2 = 4,096 cells in pieces of 1,000, which do not start chunks
        monkeypatch.setattr(cli, "CSV_PIECE_CELLS", 1000)
        calls = []

        def recorded(density, start, stop):
            calls.append((density, start, stop))
            return density_to_csv(density, start, stop)

        monkeypatch.setattr(cli, "density_to_csv", recorded)
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        names = ["density.csv"] + (["reference_density.csv"] if command == "verify" else [])
        densities = list({id(density): density for density, _, _ in calls}.values())
        assert len(densities) == len(names)
        for name, density in zip(names, densities):
            ranges = [(start, stop) for seen, start, stop in calls if seen is density]
            assert ranges == [(0, 1000), (1000, 2000), (2000, 3000), (3000, 4000), (4000, 5000)]
            assert (out / name).read_bytes() == density_to_csv(density)

    def test_writer_holds_one_piece_of_text(self, tmp_path, monkeypatch):
        # a 16^4 density in 16 pieces: the peak is one piece's text and the
        # formatter's per-chunk working set (about 200 bytes per cell), not
        # the file's 2.6 MB
        monkeypatch.setattr(cli, "CSV_PIECE_CELLS", 4 * TEXT_CHUNK)
        spec = GridSpec(num_modes=4, points_per_mode=16, half_extent=8.0)
        density = DensityGrid(spec, np.random.default_rng(5).random(spec.shape) ** 9)
        piece = len(density_to_csv(density, TEXT_CHUNK, 5 * TEXT_CHUNK))
        path = tmp_path / "density.csv"
        tracemalloc.start()
        try:
            cli._write_density(density, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 1.3 * piece + 256 * TEXT_CHUNK
        assert peak <= bound < path.stat().st_size / 2
        assert path.read_bytes() == density_to_csv(density)
