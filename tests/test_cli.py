import csv
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fermiwalk.asymptotics import asymptotic_symbol
from fermiwalk.cli import main, matrix_to_csv, run
from fermiwalk.config import (COMMAND_OPTIONS, COMMANDS, ConfigError, canonical_json,
                              config_hash, load_config, parse_config)
from fermiwalk.coupling import MAX_HORIZON, Window
from fermiwalk.simulate import CovarianceState
from fermiwalk.walk import WalkSpec

BASE_CONFIG = {
    "walk": {"kind": "cycle", "n": 4,
             "coins": {"kind": "rotation", "thetas": [0.3, 0.8, 1.2, 0.5]}},
    "environment": {"m": 1, "unitary": {"kind": "identity"},
                    "symbol_functions": [{"coefficients": [0.5, 0.0, 0.125]}]},
    "coupling": {"alpha": 0.7853981633974483},
    "seed": 7,
}
DISORDER = {"t": 0.8, "r": 0.6, "n": 32, "distribution": "point", "theta0": 0.9}
# the sections each command reads
READS = {
    "validate": (),
    "asymptotic": ("walk", "environment", "coupling"),
    "flux": ("walk", "environment", "coupling"),
    "profile": ("walk", "environment", "coupling"),
    "simulate": ("walk", "environment", "coupling"),
    "oracle_check": ("walk", "environment", "coupling"),
    "disorder_dos": ("disorder",),
    "averaged_density": ("disorder", "environment", "coupling"),
}


# the one field of a result JSON that differs between two runs
TIMESTAMP = re.compile(rb'"timestamp": *"[^"]*"')


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_result(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 0.1, "a": 2})
        assert text == '{"a":2,"b":0.10000000000000001}'

    def test_hash_stability(self):
        assert config_hash({"a": 1, "b": [1.5, "x"]}) == config_hash({"b": [1.5, "x"], "a": 1})

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError, match="non-finite"):
            canonical_json({"x": float("nan")})

    def test_canonical_form_round_trip(self):
        # canonicalising is idempotent: parse(serialise(parse(text))) is stable
        text = json.dumps(BASE_CONFIG, indent=3)
        once = canonical_json(json.loads(text))
        twice = canonical_json(json.loads(once))
        assert once == twice
        assert config_hash(json.loads(text)) == config_hash(json.loads(once))


class TestConfigParsing:
    def test_unknown_field_rejected_with_path(self):
        bad = dict(BASE_CONFIG)
        bad["walk"] = dict(BASE_CONFIG["walk"], typo_field=1)
        with pytest.raises(ConfigError, match="walk.typo_field"):
            parse_config(bad)

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="config"):
            parse_config({"surprise": 1})

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigError, match="config.seed"):
            parse_config(dict(BASE_CONFIG, seed="7"))

    def test_alpha_sweep_exclusive(self):
        bad = dict(BASE_CONFIG)
        bad["coupling"] = {"alpha": 0.5, "alpha_sweep": [0.1]}
        with pytest.raises(ConfigError, match="not both"):
            parse_config(bad)

    BAD_OPTIONS = [
        ("simulate", "steps", 0),
        ("simulate", "steps", 2.5),
        ("oracle_check", "steps", -2),
        ("oracle_check", "window", [0]),
        ("oracle_check", "window", [1, 0]),
        ("oracle_check", "window", [0, 1.5]),
        ("disorder_dos", "bins", 0),
        ("disorder_dos", "samples", 0),
        ("averaged_density", "samples", -3),
        ("validate", "export_matrices", "yes"),
    ]

    @pytest.mark.parametrize("command, key, value", BAD_OPTIONS,
                             ids=[f"{c}-{k}={v}".replace(" ", "") for c, k, v in BAD_OPTIONS])
    def test_bad_option_value_exits_2(self, tmp_path, capsys, command, key, value):
        cfg = dict(BASE_CONFIG, disorder=DISORDER, options={key: value})
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert f"config.options.{key}: expected" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.json").exists()

    @pytest.mark.parametrize("where", ["--seed", "config.seed", "disorder.seed",
                                       "walk.coins.seed"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, where):
        cfg = {"disorder": dict(DISORDER), "options": {"samples": 2, "bins": 8}}
        command, args = "disorder_dos", []
        if where == "--seed":
            args = ["--seed", "-1"]
        elif where == "config.seed":
            cfg["seed"] = -1
        elif where == "disorder.seed":
            cfg["disorder"]["seed"] = -1
        else:
            command = "validate"
            cfg = {"walk": {"kind": "cycle", "n": 4, "coins": {"kind": "random", "seed": -1}}}
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)] + args) == 2
        assert f"{where}: expected a non-negative integer" in capsys.readouterr().err

    REGULAR = {"kind": "regular_graph", "n": 4, "r": 3, "coins": {"kind": "random"},
               "edge_coloring": [[1, 2, 3], [0, 3, 2], [3, 0, 1], [2, 1, 0]]}
    # (field path, command, section, key path inside the section, malformed value)
    BAD_SCALARS = [
        ("walk.n", "validate", "walk", ["n"], "four"),
        ("walk.n", "validate", "walk", ["n"], 4.0),
        ("walk.r", "validate", "regular", ["r"], "3"),
        ("walk.edge_coloring[1][2]", "validate", "regular", ["edge_coloring", 1, 2], "2"),
        ("walk.star_site", "validate", "walk", ["star_site"], "0"),
        ("walk.star_spin", "validate", "walk", ["star_spin"], True),
        ("walk.coins.thetas[2]", "validate", "walk", ["coins", "thetas", 2], "a"),
        ("environment.m", "validate", "environment", ["m"], "1"),
        ("environment.unitary.phases[0]", "validate", "environment",
         ["unitary"], {"phases": ["x"]}),
        ("disorder.t", "disorder_dos", "disorder", ["t"], "a"),
        ("disorder.r", "disorder_dos", "disorder", ["r"], None),
        ("disorder.n", "disorder_dos", "disorder", ["n"], 32.5),
        ("disorder.theta0", "disorder_dos", "disorder", ["theta0"], "a"),
        ("disorder.halfwidth", "disorder_dos", "disorder", ["halfwidth"], [0.1]),
        ("config.coupling.alpha", "validate", "coupling", ["alpha"], "x"),
        ("config.coupling.alpha_sweep[1]", "flux", "coupling", ["alpha_sweep"], [0.5, "x"]),
    ]

    @pytest.mark.parametrize("path, command, section, keys, value", BAD_SCALARS,
                             ids=[f"{p}={v!r}".replace(" ", "") for p, _, _, _, v in BAD_SCALARS])
    def test_bad_scalar_exits_2(self, tmp_path, capsys, path, command, section, keys, value):
        cfg = json.loads(json.dumps(dict(BASE_CONFIG, disorder=DISORDER, regular=self.REGULAR)))
        if section == "regular":
            cfg["walk"] = cfg["regular"]
            section = "walk"
        del cfg["regular"]
        if section == "coupling" and keys == ["alpha_sweep"]:
            del cfg["coupling"]["alpha"]
        owner = cfg[section]
        for key in keys[:-1]:
            owner = owner[key]
        owner[keys[-1]] = value
        path_arg = write_config(tmp_path, cfg)
        assert main([command, "--config", path_arg, "--out", str(tmp_path)]) == 2
        assert f"{path}: expected" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.json").exists()

    def test_readme_options_table(self):
        # the table under "Each command reads only its own options"
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        lines = readme[readme.index("| command | options |"):].splitlines()[2:]
        table = {}
        for line in lines:
            if not line.startswith("|"):
                break
            commands, options = line.strip("|").split("|")
            for command in commands.replace("`", "").split(","):
                table[command.strip()] = frozenset(
                    o.strip() for o in options.replace("`", "").split(",")
                    if o.strip() != "none")
        assert table == COMMAND_OPTIONS

    @pytest.mark.parametrize("coupling", [{}, {"alpha_sweep": []}])
    def test_coupling_needs_an_alpha(self, coupling):
        with pytest.raises(ConfigError, match="config.coupling: give alpha"):
            parse_config(dict(BASE_CONFIG, coupling=coupling))

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_complex_entries(self):
        cfg = parse_config({
            "walk": {"kind": "raw",
                     "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                     "star_vector": [[1, 0], [0, 0]]},
            "environment": {"m": 1, "symbol_functions":
                            [{"coefficients": [0.5, [0.1, 0.02]]}]},
            "coupling": {"alpha": 1.5707963267948966},
        })
        W, psi = cfg.walk.build()
        assert np.allclose(W, [[0, 1], [1, 0]])
        assert cfg.environment.symbol_functions[0].coefficients[1] == 0.1 + 0.02j


class TestCommands:
    def test_validate_success(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["validate", "--config", path, "--out", str(tmp_path)]) == 0
        report = read_result(tmp_path, "validate.json")
        assert report["results"]["walk"]["cyclic"] is True
        assert report["results"]["walk"]["cyclic_gap"] > 0.01
        assert report["results"]["coupling"]["contractive"] is True
        assert report["results"]["environment"]["passed"] is True
        assert report["inputs_hash"] == config_hash(BASE_CONFIG)

    def test_validate_flags_bad_symbol(self, tmp_path):
        bad = dict(BASE_CONFIG)
        bad["environment"] = {"m": 1, "symbol_functions":
                              [{"coefficients": [0.5, 1.0]}]}
        path = write_config(tmp_path, bad)
        assert main(["validate", "--config", path, "--out", str(tmp_path)]) == 2
        report = read_result(tmp_path, "validate.json")
        assert report["results"]["environment"]["passed"] is False
        assert report["results"]["environment"]["violations"]
        assert "0 <= 2 Re" in report["results"]["environment"]["bound"]

    def test_validate_rejects_grid_size(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE_CONFIG, options={"grid_size": 4096}))
        assert main(["validate", "--config", path, "--out", str(tmp_path)]) == 2
        assert "config.options.grid_size: unknown field" in capsys.readouterr().err

    def test_validate_rejects_gap_tol(self, tmp_path, capsys):
        env = dict(BASE_CONFIG["environment"], gap_tol=1e-6)
        path = write_config(tmp_path, dict(BASE_CONFIG, environment=env))
        assert main(["validate", "--config", path, "--out", str(tmp_path)]) == 2
        assert "environment.gap_tol: unknown field" in capsys.readouterr().err

    def test_unknown_field_exits_2(self, tmp_path):
        bad = dict(BASE_CONFIG)
        bad["walk"] = dict(BASE_CONFIG["walk"], oops=True)
        path = write_config(tmp_path, bad)
        assert main(["validate", "--config", path, "--out", str(tmp_path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_section_exits_2(self, tmp_path, capsys, command):
        full = dict(BASE_CONFIG, disorder=DISORDER)
        for name in READS[command]:
            cfg = {key: value for key, value in full.items() if key != name}
            path = write_config(tmp_path, cfg)
            assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
            assert f"fermiwalk: config.{name}: " in capsys.readouterr().err
        if command == "validate":
            # without a walk, validate still checks the environment and the
            # weights, and cannot say whether the coupling contracts
            cfg = {key: value for key, value in full.items() if key != "walk"}
            path = write_config(tmp_path, cfg)
            assert main([command, "--config", path, "--out", str(tmp_path)]) == 0
            report = read_result(tmp_path, "validate.json")["results"]
            assert "walk" not in report
            assert report["environment"]["passed"] is True
            assert report["coupling"] == {"alpha": BASE_CONFIG["coupling"]["alpha"],
                                          "weights": [1.0]}

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_validate_cyclic_iff_asymptotic_runs(self, tmp_path, seed):
        # n = 48 Haar rings: psi* has weights down to 1e-16 on some seeds,
        # which a Krylov rank test called cyclic and the spr gate refuses
        cfg = dict(BASE_CONFIG, walk={"kind": "cycle", "n": 48,
                                      "coins": {"kind": "random", "seed": seed}},
                   coupling={"alpha": 0.7})
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", path, "--out", str(tmp_path)]) == 0
        report = read_result(tmp_path, "validate.json")["results"]
        runs = main(["asymptotic", "--config", path, "--out", str(tmp_path)]) == 0
        assert report["walk"]["cyclic"] == runs
        assert report["coupling"]["contractive"] == runs

    def test_asymptotic_outputs(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["asymptotic", "--config", path, "--out", str(tmp_path)]) == 0
        res = read_result(tmp_path, "asymptotic.json")["results"]
        assert len(res["eigenvalues"]) == 8
        assert len(res["delta"]) == 8
        assert len(res["profile"]) == 4
        assert (tmp_path / "profile.csv").exists()
        with open(tmp_path / "profile.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node", "density"]
        assert len(rows) == 5

    @pytest.mark.parametrize("command", ["asymptotic", "profile"])
    def test_contraction_built_once(self, tmp_path, monkeypatch, command):
        # Delta and the fluxes share one M, so one dense eigensolve for spr
        import fermiwalk.asymptotics as asymptotics
        import fermiwalk.coupling as coupling
        calls = {"build": 0, "spr": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(asymptotics, "build_contraction",
                            counted("build", asymptotics.build_contraction))
        monkeypatch.setattr(coupling, "spectral_radius",
                            counted("spr", coupling.spectral_radius))
        path = write_config(tmp_path, BASE_CONFIG)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 0
        assert calls == {"build": 1, "spr": 1}

    def test_profile_needs_a_cycle_walk(self, tmp_path, capsys):
        cfg = dict(BASE_CONFIG, walk=TestConfigParsing.REGULAR)
        path = write_config(tmp_path, cfg)
        assert main(["profile", "--config", path, "--out", str(tmp_path)]) == 2
        assert "profile needs a cycle walk" in capsys.readouterr().err
        assert not (tmp_path / "profile.json").exists()

    def test_non_contractive_exits_3(self, tmp_path):
        cfg = dict(BASE_CONFIG)
        cfg["walk"] = {"kind": "cycle", "n": 4, "coins": {"kind": "hadamard"}}
        path = write_config(tmp_path, cfg)
        assert main(["asymptotic", "--config", path, "--out", str(tmp_path)]) == 3

    def test_determinism_excluding_timestamp(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["asymptotic", "--config", path, "--out", str(out1)]) == 0
        assert main(["asymptotic", "--config", path, "--out", str(out2)]) == 0
        a = json.loads((out1 / "asymptotic.json").read_text())
        b = json.loads((out2 / "asymptotic.json").read_text())
        a["provenance"].pop("timestamp")
        b["provenance"].pop("timestamp")
        assert canonical_json(a) == canonical_json(b)

    def test_flux_sweep_csv(self, tmp_path):
        cfg = {
            "walk": BASE_CONFIG["walk"],
            "environment": {"m": 2,
                            "unitary": {"phases": [0.0, 0.7]},
                            "symbol_functions": [
                                {"coefficients": [0.5, 0.1, 0.05]},
                                {"coefficients": [0.3]}]},
            "coupling": {"alpha_sweep": [0.2, 0.4, 0.8],
                         "v": [0.6324555320336759, 0.7745966692414834]},
        }
        path = write_config(tmp_path, cfg)
        assert main(["flux", "--config", path, "--out", str(tmp_path)]) == 0
        res = read_result(tmp_path, "flux.json")["results"]
        assert len(res["sweep"]) == 3
        for rec in res["sweep"]:
            assert abs(sum(rec["phi"])) <= 1e-10
        with open(tmp_path / "flux_vs_alpha.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "phi_1", "phi_2"]
        assert len(rows) == 4

    def test_simulate_trace(self, tmp_path):
        cfg = dict(BASE_CONFIG)
        cfg["options"] = {"steps": 40}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        res = read_result(tmp_path, "simulate.json")["results"]
        assert res["steps"] == 40
        with open(tmp_path / "simulate_trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "sample_trace", "error_to_delta"]
        assert [int(row[0]) for row in rows[1:]] == [1, 2, 4, 8, 16, 32, 40]
        # reference: the trace and the norm of the sample block, taken one
        # step at a time, match the doubled file entries at the same t
        cfg = load_config(path)
        W, _ = cfg.built_walk
        env, coup = cfg.environment, cfg.coupling()
        delta = asymptotic_symbol(env, W, coup).delta
        cov = CovarianceState(Window(0, env.max_degree, env.m), env, W, coup)
        reference = {}
        for t in range(1, 41):
            block = cov.step(1).sample_block()
            reference[t] = (np.trace(block).real, np.linalg.norm(block - delta))
        for row in rows[1:]:
            trace, error = reference[int(row[0])]
            assert abs(float(row[1]) - trace) <= 1e-14
            assert abs(float(row[2]) - error) <= 1e-14
        with open(tmp_path / "convergence.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "log_error"]

    def test_simulate_default_steps_reach_delta(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        res = read_result(tmp_path, "simulate.json")["results"]
        assert res["final_error_to_delta"] <= 1e-9

    def test_simulate_long_horizon_in_little_memory(self, tmp_path):
        # certified horizon 52,075 steps: rows at t = 1, 2, ..., 2^15 and the
        # horizon, in memory that does not grow with the step count
        cfg = {"walk": {"kind": "cycle", "n": 4, "coins": {"kind": "random", "seed": 9}},
               "environment": BASE_CONFIG["environment"], "coupling": {"alpha": 0.7}}
        path = write_config(tmp_path, cfg)
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", path, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        res = read_result(tmp_path, "simulate.json")["results"]
        assert res["steps"] == 52_075
        assert res["final_error_to_delta"] <= 1e-9
        assert len(res["convergence"]) == 17
        assert peak < 5 * 2 ** 20

    def test_simulate_refuses_horizon_beyond_cap(self, tmp_path, capsys):
        # alpha = 1e-5 leaves 1 - spr(M) ~ 5e-12: no silent truncated run
        cfg = dict(BASE_CONFIG, coupling={"alpha": 1e-5})
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 3
        assert f"cap of {MAX_HORIZON} steps" in capsys.readouterr().err
        assert not (tmp_path / "simulate.json").exists()

    def test_simulate_configured_steps_skip_horizon(self, tmp_path, monkeypatch):
        # the certified horizon is computed only when no step count is given
        def refuse(self, *args, **kwargs):
            raise AssertionError("relaxation_horizon called")

        monkeypatch.setattr(CovarianceState, "relaxation_horizon", refuse)
        cfg = dict(BASE_CONFIG)
        cfg["options"] = {"steps": 40}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        assert read_result(tmp_path, "simulate.json")["results"]["steps"] == 40

    def test_simulate_rejects_unread_option(self, tmp_path, capsys):
        cfg = dict(BASE_CONFIG)
        cfg["options"] = {"steps": 40, "window": [-9, 9]}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
        assert "config.options.window: not read by simulate" in capsys.readouterr().err
        assert not (tmp_path / "simulate.json").exists()

    def test_oracle_check(self, tmp_path):
        cfg = {
            "walk": {"kind": "cycle", "n": 2,
                     "coins": {"kind": "rotation", "thetas": [0.5, 1.1]}},
            "environment": BASE_CONFIG["environment"],
            "coupling": {"alpha": 0.7853981633974483},
            "options": {"steps": 8, "window": [-2, 1]},
        }
        path = write_config(tmp_path, cfg)
        assert main(["oracle_check", "--config", path, "--out", str(tmp_path)]) == 0
        res = read_result(tmp_path, "oracle_check.json")["results"]
        assert res["max_two_point_deviation"] <= 1e-10

    def test_oracle_check_refuses_large_windows(self, tmp_path):
        swap = {"kind": "raw", "matrix": [[0, 1], [1, 0]], "star_vector": [1, 0]}
        # 9 + 8 modes (over 14 in all), and 12 + 2 modes (over 10 in one factor)
        for walk, window in ((BASE_CONFIG["walk"], [-4, 4]), (swap, [-5, 6])):
            cfg = {
                "walk": walk,
                "environment": BASE_CONFIG["environment"],
                "coupling": {"alpha": 0.7853981633974483},
                "options": {"window": window},
            }
            path = write_config(tmp_path, cfg)
            assert main(["oracle_check", "--config", path, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "oracle_check.json").exists()

    def test_disorder_dos(self, tmp_path):
        cfg = {
            "disorder": {"t": 0.8, "r": 0.6, "n": 32, "distribution": "point",
                         "theta0": 0.9},
            "options": {"samples": 4, "bins": 64},
        }
        path = write_config(tmp_path, cfg)
        assert main(["disorder_dos", "--config", path, "--out", str(tmp_path)]) == 0
        res = read_result(tmp_path, "disorder_dos.json")["results"]
        assert res["support_within_bands"] is True
        assert res["total_mass"] == pytest.approx(1.0)
        with open(tmp_path / "dos.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "mass", "stderr"]
        assert len(rows) == 65

    def test_averaged_density(self, tmp_path):
        cfg = {
            "environment": BASE_CONFIG["environment"],
            "coupling": {"alpha": 0.3},
            "disorder": {"t": 0.8, "r": 0.6, "n": 32, "distribution": "uniform",
                         "theta0": 0.7, "halfwidth": 0.05, "seed": 1},
            "options": {"samples": 6},
        }
        path = write_config(tmp_path, cfg)
        assert main(["averaged_density", "--config", path, "--out", str(tmp_path)]) == 0
        res = read_result(tmp_path, "averaged_density.json")["results"]
        assert res["samples"] == 6
        assert res["discrepancy"] >= 0.0

    def test_emit_from_result(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["asymptotic", "--config", path, "--out", str(tmp_path)]) == 0
        out_csv = tmp_path / "replot.csv"
        assert main(["emit", "--result", str(tmp_path / "asymptotic.json"),
                     "--kind", "profile", "--out", str(out_csv)]) == 0
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node", "density"]


RAW_WALK = {"kind": "raw", "matrix": [[0, 1], [1, 0]], "star_vector": [0.6, 0.8]}
AVERAGED = {"environment": BASE_CONFIG["environment"], "coupling": {"alpha": 0.3},
            "disorder": dict(DISORDER, distribution="uniform", halfwidth=0.05, seed=1)}


class TestEntryChecks:
    """Each input invariant is refused, with exit 2 and its value named, where it enters."""

    # (change to BASE_CONFIG, message naming the refused value)
    CASES = {
        "coin": ({"walk": {"kind": "cycle", "n": 2, "coins": {"kind": "explicit", "matrices": [
            [[1, 0], [0, 1]], [[1, 0], [0, 1.1]]]}}}, "coin 1 is not unitary: ||C*C - 1||"),
        "walk.matrix": ({"walk": {"kind": "raw", "matrix": [[1, 0], [0.1, 1]],
                                  "star_vector": [1, 0]}},
                        "raw walk matrix is not unitary: ||W*W - 1||"),
        "environment.unitary.matrix": (
            {"environment": {"m": 1, "unitary": {"matrix": [[1.1]]},
                             "symbol_functions": [{"coefficients": [0.5]}]}},
            "U is not unitary: ||U*U - 1||"),
        "walk.star_vector": ({"walk": dict(BASE_CONFIG["walk"], star_vector=[1, 1, 0, 0, 0, 0, 0, 0])},
                             "star vector must be a unit vector, got norm 1.41421356"),
        "coupling.v": ({"coupling": {"alpha": 0.7, "v": [1.0, 1.0]},
                        "environment": {"m": 2, "unitary": {"phases": [0.0, 1.0]},
                                        "symbol_functions": [{"coefficients": [0.5]}] * 2}},
                       "config.coupling.v must be a unit vector, got norm 1.41421356"),
        "coupling.v length": ({"coupling": {"alpha": 0.7, "v": [0.6, 0.0, 0.8]},
                               "environment": {"m": 2, "unitary": {"phases": [0.0, 1.0]},
                                               "symbol_functions": [{"coefficients": [0.5]}] * 2}},
                              "config.coupling.v: expected 2 entries (environment.m), got 3"),
    }

    @pytest.mark.parametrize("value", CASES)
    def test_refused_at_entry_exits_2(self, tmp_path, capsys, value):
        change, message = self.CASES[value]
        path = write_config(tmp_path, dict(BASE_CONFIG, **change))
        assert main(["asymptotic", "--config", path, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "asymptotic.json").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, value):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["validate", "--config", path, "--out", str(out), "--threads", value]) == 2
        assert "fermiwalk: --threads: expected a positive integer" in capsys.readouterr().err
        assert not (out / "validate.json").exists()

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
    def test_bad_env_threads_exits_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("FERMIWALK_THREADS", value)
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["validate", "--config", path, "--out", str(out)]) == 2
        assert (f"fermiwalk: FERMIWALK_THREADS: expected a positive integer, got {value!r}"
                in capsys.readouterr().err)
        assert not (out / "validate.json").exists()

    def test_env_threads_reach_provenance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FERMIWALK_THREADS", "2")
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["validate", "--config", path, "--out", str(tmp_path)]) == 0
        assert read_result(tmp_path, "validate.json")["provenance"]["threads"] == 2

    # unreadable path -> the message after the flag
    UNREADABLE = {"missing": "file not found", "directory": "cannot read",
                  "not JSON": "is not valid JSON", "not UTF-8": "is not valid JSON"}

    def _unreadable(self, tmp_path, kind) -> str:
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not JSON":
            path.write_text("{\"command\": ")
        elif kind == "not UTF-8":
            path.write_bytes(b"\xff\xfe{}")
        return str(path)

    @pytest.mark.parametrize("flag", ["--config", "--result"])
    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_json_exits_2(self, tmp_path, capsys, flag, kind):
        path = self._unreadable(tmp_path, kind)
        out = tmp_path / "out"
        if flag == "--config":
            argv = ["validate", "--config", path, "--out", str(out)]
        else:
            argv = ["emit", "--result", path, "--kind", "profile", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fermiwalk: {flag}: ")
        assert self.UNREADABLE[kind] in err and path in err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [[1, 2], {}, {"results": [1]}, {"results": {}}])
    def test_emit_from_json_without_the_data_exits_2(self, tmp_path, capsys, payload):
        path = write_config(tmp_path, payload, name="result.json")
        out = tmp_path / "profile.csv"
        assert main(["emit", "--result", path, "--kind", "profile", "--out", str(out)]) == 2
        assert "fermiwalk: result carries no profile data" in capsys.readouterr().err
        assert not out.exists()


class TestFileSets:
    """Each command writes exactly the files of README's table into ``--out``.

    A rerun writes the same bytes into every file, but for the JSON timestamp.
    """

    @pytest.mark.parametrize("command, extra, code, files", [
        ("validate", {}, 0, {"validate.json"}),
        ("validate", {"options": {"export_matrices": True}}, 0,
         {"validate.json", "walk_matrix.csv"}),
        ("validate", {"environment": {"m": 1, "symbol_functions": [{"coefficients": [0.5, 1.0]}]},
                      "options": {"export_matrices": False}}, 2, {"validate.json"}),
        ("asymptotic", {}, 0, {"asymptotic.json", "profile.csv", "correlations.csv"}),
        ("asymptotic", {"options": {"export_matrices": True}}, 0,
         {"asymptotic.json", "profile.csv", "correlations.csv", "delta.csv", "contraction.csv"}),
        ("asymptotic", {"walk": RAW_WALK}, 0, {"asymptotic.json"}),
        ("flux", {}, 0, {"flux.json", "flux_vs_alpha.csv"}),
        ("profile", {}, 0, {"profile.json", "profile.csv"}),
        ("simulate", {"options": {"steps": 3}}, 0,
         {"simulate.json", "simulate_trace.csv", "convergence.csv"}),
        ("oracle_check", {"options": {"steps": 2}}, 0, {"oracle_check.json"}),
        ("disorder_dos", {"disorder": DISORDER, "options": {"samples": 4, "bins": 16}}, 0,
         {"disorder_dos.json", "dos.csv"}),
        ("averaged_density", dict(AVERAGED, options={"samples": 4}), 0,
         {"averaged_density.json"}),
    ], ids=["validate", "validate-export", "validate-bad-symbol", "asymptotic",
            "asymptotic-export", "asymptotic-raw-walk", "flux", "profile", "simulate",
            "oracle_check", "disorder_dos", "averaged_density"])
    def test_command_writes_its_files(self, tmp_path, command, extra, code, files):
        path = write_config(tmp_path, dict(BASE_CONFIG, **extra))
        outs = (tmp_path / "out1", tmp_path / "out2")
        for out in outs:
            assert run(load_config(path), command=command, outdir=str(out)) == code
            assert set(os.listdir(out)) == files
        for name in files:
            first, second = (TIMESTAMP.sub(b"", (out / name).read_bytes()) for out in outs)
            assert first == second, name


def assert_replaced(path, rerun):
    """``rerun()`` writes ``path`` anew: a reader of the old file keeps its bytes."""
    old_bytes = path.read_bytes()
    with open(path, "rb") as old:
        assert rerun() == 0
        assert os.fstat(old.fileno()).st_nlink == 0
        assert old.read() == old_bytes


class TestWalkBuiltOnce:
    @pytest.mark.parametrize("command, extra", [
        ("flux", {"coupling": {"alpha_sweep": [0.2, 0.4, 0.6, 0.8, 1.0, 1.2]}}),
        ("asymptotic", {}),
        ("validate", {}),
        ("simulate", {"options": {"steps": 3}}),
        ("oracle_check", {"options": {"steps": 2}}),
    ])
    def test_one_build_per_command(self, tmp_path, monkeypatch, command, extra):
        builds = []
        build = WalkSpec.build

        def counted(spec):
            builds.append(spec.kind)
            return build(spec)

        monkeypatch.setattr(WalkSpec, "build", counted)
        path = write_config(tmp_path, dict(BASE_CONFIG, **extra))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 0
        assert builds == ["cycle"]


class TestRerunReplacesFiles:
    def test_simulate_into_same_out(self, tmp_path):
        out = str(tmp_path)
        path = write_config(tmp_path, dict(BASE_CONFIG, options={"steps": 50}))
        assert main(["simulate", "--config", path, "--out", out]) == 0
        path = write_config(tmp_path, dict(BASE_CONFIG, options={"steps": 5}))
        trace = tmp_path / "simulate_trace.csv"
        assert_replaced(trace, lambda: main(["simulate", "--config", path, "--out", out]))
        assert len(trace.read_text().splitlines()) == 5
        assert read_result(tmp_path, "simulate.json")["results"]["steps"] == 5

    def test_emit_onto_existing_csv(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["asymptotic", "--config", path, "--out", str(tmp_path)]) == 0
        out_csv = tmp_path / "replot.csv"
        out_csv.write_text("stale\n" * 100)
        assert_replaced(out_csv, lambda: main([
            "emit", "--result", str(tmp_path / "asymptotic.json"),
            "--kind", "profile", "--out", str(out_csv)]))
        assert out_csv.read_text().splitlines()[0] == "node,density"
        assert len(out_csv.read_text().splitlines()) == 5

    def test_symlink_is_followed(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("stale\n" * 10)
        link = tmp_path / "m.csv"
        link.symlink_to(target)
        matrix_to_csv(np.eye(2), str(link))
        assert link.is_symlink()
        assert len(target.read_text().splitlines()) == 2

    def test_emit_onto_fifo(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["asymptotic", "--config", path, "--out", str(tmp_path)]) == 0
        fifo = tmp_path / "plot.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["emit", "--result", str(tmp_path / "asymptotic.json"),
                         "--kind", "profile", "--out", str(fifo)]) == 0
            data = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert data.splitlines()[0] == "node,density"
        assert len(data.splitlines()) == 5

    def test_emit_onto_devnull(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["asymptotic", "--config", path, "--out", str(tmp_path)]) == 0
        mode = os.lstat(os.devnull).st_mode
        assert main(["emit", "--result", str(tmp_path / "asymptotic.json"),
                     "--kind", "profile", "--out", os.devnull]) == 0
        assert os.lstat(os.devnull).st_mode == mode


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "m.csv"
    matrix_to_csv(M, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    parsed = np.array([[complex(*map(float, cell.split(","))) for cell in row]
                       for row in rows])
    assert np.array_equal(parsed, M)


def test_cli_import_leaves_scipy_sparse_out():
    # the engine's operators are dense; importing the CLI loads no scipy.sparse
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, fermiwalk.cli; print('scipy.sparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
