import csv
import json
import os
import random
import re
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from test_cfm import edited_model_texts

from fmsolve import cfm, cli, ode, svg

TINY_CONFIG = {
    "format_version": 1,
    "seed": 7,
    "dataset": {"kind": "moons", "n": 128, "noise": 0.05},
    "train": {
        "epochs": 3,
        "batch_size": 64,
        "mlp": {"hidden": 8, "n_blocks": 1, "time_embed_dim": 4},
    },
}


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    return tmp_path


@pytest.fixture
def trained(workspace):
    model = workspace / "model.json"
    assert cli.main(["train", "--config", str(workspace / "cfg.json"), "--out", str(model)]) == 0
    return workspace, model


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConvergenceCmd:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        out = tmp_path / "missing" / "nested"  # created on demand
        assert cli.main(["convergence", "--out", str(out)]) == 0
        header, rows = read_csv(out / "convergence.csv")
        assert header == ["method", "h", "error"]
        methods = {r[0] for r in rows}
        assert methods == {"euler", "midpoint", "rk4", "dopri5"}
        assert (out / "convergence.svg").exists()
        printed = capsys.readouterr().out
        assert "euler" in printed and "slope" in printed


class TestStabilityCmd:
    def test_outputs(self, tmp_path):
        out = tmp_path / "stab"
        assert cli.main(["stability", "--resolution", "61", "--out", str(out)]) == 0
        for m in ("euler", "midpoint", "rk4", "dopri5"):
            assert (out / f"stability_{m}.csv").exists()
            assert (out / f"stability_{m}.svg").exists()
        header, rows = read_csv(out / "stability_demo.csv")
        assert header == ["h", "n", "y"]
        hs = {float(r[0]) for r in rows}
        assert 0.1 in hs and any(abs(h - 1 / 6) < 1e-12 for h in hs)

    def test_bad_demo_t1_fails_before_any_raster(self, tmp_path, monkeypatch, capsys):
        def no_raster(*args):
            raise AssertionError("stability_region_grid called")

        monkeypatch.setattr(cli, "stability_region_grid", no_raster)
        capsys.readouterr()
        assert cli.main(["stability", "--demo-t1", "0", "--out", str(tmp_path / "stab")]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1 and not captured.out

    def test_default_bounds_contain_all_regions(self, tmp_path):
        from fmsolve.ode import stability_region_grid

        for m in ("euler", "midpoint", "rk4", "dopri5"):
            raster = stability_region_grid(m, (-5, 2), (-4, 4), 141)
            border = np.concatenate(
                [raster.inside[0], raster.inside[-1], raster.inside[:, 0], raster.inside[:, -1]]
            )
            assert not border.any()


class TestTrainCmd:
    def test_model_and_loss_curve(self, trained):
        workspace, model = trained
        doc = json.loads(model.read_text())
        assert doc["format_version"] == 1
        assert doc["seed"] == 7
        header, rows = read_csv(workspace / "model.loss.csv")
        assert header == ["epoch", "loss"]
        assert len(rows) == TINY_CONFIG["train"]["epochs"]

    def test_deterministic_outputs(self, workspace):
        cfg = str(workspace / "cfg.json")
        a, b = workspace / "a.json", workspace / "b.json"
        assert cli.main(["train", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["train", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (workspace / "a.loss.csv").read_bytes() == (workspace / "b.loss.csv").read_bytes()

    def test_model_file_is_the_bytes_of_save_model(self, workspace, monkeypatch):
        # one encoder, cfm.model_text, behind both writers of a model file
        models, train = [], cfm.train
        monkeypatch.setattr(cfm, "train", lambda tc: models.append(train(tc)) or models[0])
        cli_file, lib_file = workspace / "cli.json", workspace / "lib.json"
        cfg = str(workspace / "cfg.json")
        assert cli.main(["train", "--config", cfg, "--out", str(cli_file)]) == 0
        (model,) = models
        cfm.save_model(model, lib_file)
        assert cli_file.read_bytes() == lib_file.read_bytes()
        for path in (cli_file, lib_file):
            loaded = cfm.load_model(path)
            assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
            assert loaded.data_mean.tobytes() == model.data_mean.tobytes()
            assert loaded.data_std.tobytes() == model.data_std.tobytes()
            assert (loaded.loss_curve, loaded.config) == (model.loss_curve, model.config)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = dict(TINY_CONFIG)
        bad["typo_key"] = 1
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "typo_key" in capsys.readouterr().err

    def test_nested_unknown_key_rejected(self, tmp_path):
        bad = json.loads(json.dumps(TINY_CONFIG))
        bad["train"]["mlp"]["data_dim"] = 3  # derived from the dataset, not settable
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 2

    def test_malformed_json_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_loss_csv_directory_created(self, workspace):
        loss_csv = workspace / "nodir" / "loss.csv"
        assert cli.main(["train", "--config", str(workspace / "cfg.json"),
                         "--out", str(workspace / "m.json"), "--loss-csv", str(loss_csv)]) == 0
        header, rows = read_csv(loss_csv)
        assert header == ["epoch", "loss"]
        assert len(rows) == TINY_CONFIG["train"]["epochs"]

    @pytest.mark.parametrize("section, key, value, message", [
        ("train", "lr", 1e300, r"^numeric failure: non-finite loss at epoch \d+, step \d+$"),
        ("dataset", "noise", 1e300, r"^numeric failure: .*standard deviation overflow$"),
        ("train", "lr", 1e40, r"^numeric failure: non-finite loss at epoch \d+, step \d+$"),
        ("train", "lr", 1e150, r"^numeric failure: non-finite loss at epoch \d+, step \d+$"),
    ], ids=["lr-1e300", "noise-1e300", "lr-1e40", "lr-1e150"])
    def test_overflow_in_training_exits_3(self, section, key, value, message, tmp_path, capsys):
        # finite config values whose training overflows: one stderr line
        # naming the failure, no float warning, and neither the model file
        # nor the new directories it would have gone into
        config = json.loads(json.dumps(TINY_CONFIG))
        config[section][key] = value
        cfg, new = tmp_path / "cfg.json", tmp_path / "new"
        cfg.write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(cfg), "--out", str(new / "sub" / "m.json")]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and re.search(message, lines[0])
        assert not new.exists()

    def test_seed_env_override(self, workspace, monkeypatch):
        cfg = str(workspace / "cfg.json")
        a, b = workspace / "a.json", workspace / "b.json"
        monkeypatch.setenv("FMSOLVE_SEED", "123")
        assert cli.main(["train", "--config", cfg, "--out", str(a)]) == 0
        monkeypatch.delenv("FMSOLVE_SEED")
        assert cli.main(["train", "--config", cfg, "--seed", "123", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSampleCmd:
    def test_rk4_trace_nfe(self, trained, capsys):
        workspace, model = trained
        out = workspace / "samp"
        code = cli.main(["sample", "--model", str(model), "--solver", "rk4", "--steps", "20",
                         "--n", "50", "--out", str(out)])
        assert code == 0
        assert "NFE 80" in capsys.readouterr().out
        header, rows = read_csv(out / "trace.csv")
        assert header == ["t", "h", "err", "accepted", "nfe_cum"]
        assert rows[-1][4] == "80"
        header, rows = read_csv(out / "samples.csv")
        assert header == ["x0", "x1"]
        assert len(rows) == 50
        assert (out / "samples.svg").exists()

    def test_dopri5_accepted(self, trained):
        workspace, model = trained
        out = workspace / "samp_d"
        code = cli.main(["sample", "--model", str(model), "--solver", "dopri5",
                         "--atol", "1e-5", "--rtol", "1e-5", "--n", "20", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out / "trace.csv")
        assert any(r[3] == "1" for r in rows)

    def test_dopri5_tolerances_at_the_float_range_edge(self, trained, capsys):
        # the tolerance scale overflows: the first step spans [0, 1] and passes
        workspace, model = trained
        capsys.readouterr()
        assert cli.main(["sample", "--model", str(model), "--solver", "dopri5", "--atol", "1e308",
                         "--rtol", "1e308", "--n", "8", "--out", str(workspace / "samp")]) == 0
        captured = capsys.readouterr()
        assert "NFE 7" in captured.out and not captured.err

    def test_missing_steps_is_usage_error(self, trained):
        workspace, model = trained
        code = cli.main(["sample", "--model", str(model), "--solver", "euler",
                         "--n", "10", "--out", str(workspace / "x")])
        assert code == 2

    def test_unknown_solver_exits_2(self, trained):
        workspace, model = trained
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["sample", "--model", str(model), "--solver", "leapfrog",
                      "--n", "10", "--out", str(workspace / "x")])
        assert exc_info.value.code == 2


class TestBenchmarkCmd:
    def test_rows_sorted_by_nfe(self, trained):
        workspace, model = trained
        cfg = dict(TINY_CONFIG)
        cfg["solver_grid"] = [
            {"method": "euler", "steps": 10},
            {"method": "rk4", "steps": 5},
            {"method": "dopri5", "atol": 1e-4, "rtol": 1e-4},
        ]
        cfg_path = workspace / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        out = workspace / "bench"
        code = cli.main(["benchmark", "--model", str(model), "--config", str(cfg_path),
                         "--n", "64", "--projections", "16", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "pareto.csv")
        assert header == ["method", "steps", "nfe", "swd"]
        nfes = [int(r[2]) for r in rows]
        assert nfes == sorted(nfes)
        assert {r[0] for r in rows} == {"euler", "rk4", "dopri5"}

    def test_hidden_sweep(self, workspace):
        cfg_path = workspace / "cfg.json"
        cfg = json.loads(cfg_path.read_text())
        cfg["solver_grid"] = [{"method": "euler", "steps": 5}, {"method": "rk4", "steps": 5}]
        sweep_path = workspace / "sweep.json"
        sweep_path.write_text(json.dumps(cfg))
        out = workspace / "ablate"
        code = cli.main(["benchmark", "--config", str(sweep_path), "--hidden", "4,8",
                         "--n", "32", "--projections", "8", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "ablation.csv")
        assert header == ["hidden", "method", "steps", "nfe", "swd"]
        assert {r[0] for r in rows} == {"4", "8"}
        assert (out / "pareto_hidden4.csv").exists()
        assert (out / "pareto_hidden8.csv").exists()

    def test_hidden_width_matches_its_trained_model(self, workspace):
        # a width of the sweep is scored on the same noise, reference and
        # projections as --model scores the model trained from the config
        grid = [{"method": "euler", "steps": 5}, {"method": "dopri5", "atol": 1e-3, "rtol": 1e-3}]
        cfg = _edited(TINY_CONFIG, workspace / "c8.json", lambda d: d.update(solver_grid=grid))
        model = workspace / "m8.json"
        flags = ["--config", cfg, "--n", "32", "--projections", "8"]
        assert cli.main(["train", "--config", cfg, "--out", str(model)]) == 0
        assert cli.main(["benchmark", *flags, "--hidden", "8", "--out", str(workspace / "sweep")]) == 0
        assert cli.main(["benchmark", *flags, "--model", str(model),
                         "--out", str(workspace / "single")]) == 0
        for ext in ("csv", "svg"):
            swept = (workspace / "sweep" / f"pareto_hidden8.{ext}").read_bytes()
            assert swept == (workspace / "single" / f"pareto.{ext}").read_bytes()

    def test_hidden_sweep_bad_grid_trains_nothing(self, workspace, capsys):
        cfg = _edited(TINY_CONFIG, workspace / "sweep.json",
                      lambda d: d.update(solver_grid=[{"method": "dopri5", "atol": 0.0}]))
        out = workspace / "ablate"
        code = cli.main(["benchmark", "--config", cfg, "--hidden", "4,8",
                         "--n", "32", "--projections", "8", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "training" not in captured.out
        assert "solver_grid[0]" in captured.err
        assert not out.exists()

    def test_failed_spec_warns_and_keeps_the_rest(self, trained, monkeypatch, capsys):
        workspace, model = trained
        monkeypatch.setattr(ode, "MAX_STEPS", 1)  # dopri5 needs more attempts on this model
        grid = [{"method": "euler", "steps": 1}, {"method": "dopri5"}]
        cfg = _edited(TINY_CONFIG, workspace / "grid.json", lambda d: d.update(solver_grid=grid))
        out = workspace / "bench"
        capsys.readouterr()
        assert cli.main(["benchmark", "--model", str(model), "--config", cfg, "--n", "16",
                         "--projections", "4", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("warning: dopri5-adaptive failed: max_steps=1 exhausted at t=")
        _, rows = read_csv(out / "pareto.csv")
        assert [r[0] for r in rows] == ["euler"]

    def test_samples_near_the_float_range_score_inf(self, trained, capsys):
        # samples round to 1e308, and their distances to the reference overflow
        workspace, model = trained
        path = _edited(json.loads(model.read_text()), workspace / "mean.json",
                       lambda d: d["training_meta"].update(data_mean=[1e308, 1e308]))
        capsys.readouterr()
        assert cli.main(["benchmark", "--model", path, "--n", "16", "--projections", "8",
                         "--out", str(workspace / "out")]) == 0
        _, rows = read_csv(workspace / "out" / "pareto.csv")
        assert rows and all(r[3] == "inf" for r in rows)
        assert not capsys.readouterr().err

    def test_reference_points_overflowing_exit_3(self, trained, capsys):
        workspace, model = trained
        path = _edited(json.loads(model.read_text()), workspace / "noisy.json",
                       lambda d: d["config"]["dataset"].update(noise=1e308))
        capsys.readouterr()
        assert cli.main(["benchmark", "--model", path, "--n", "16", "--projections", "8",
                         "--out", str(workspace / "out")]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "reference points overflow" in lines[0]

    def test_needs_model_or_sweep(self, workspace):
        assert cli.main(["benchmark", "--out", str(workspace / "x")]) == 2


class TestJacobianCmd:
    def test_spectrum_csv(self, trained):
        workspace, model = trained
        out = workspace / "jac"
        code = cli.main(["jacobian", "--model", str(model), "--n-samples", "10",
                         "--steps", "10", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["t", "eig1_re_mean", "eig1_re_std", "eig2_re_mean",
                          "eig2_re_std", "cond_median"]
        assert len(rows) == 11  # default: 11 evenly spaced time points
        assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0

    def test_zero_field_model_inf_cond(self, workspace):
        # untrained parameters keep the zero output layer -> zero Jacobians
        from fmsolve import cfm, nn
        from fmsolve.data import DatasetSpec
        from fmsolve.numeric import Rng

        config = cfm.TrainConfig.default(
            DatasetSpec("moons", n=64), seed=0, epochs=1, batch_size=32,
            mlp={"hidden": 8, "n_blocks": 1, "time_embed_dim": 4},
        )
        zero_model = cfm.TrainedModel(
            params=nn.init_params(config.mlp, Rng(0)), config=config,
            data_mean=np.zeros(2), data_std=np.ones(2), loss_curve=[0.0],
        )
        model = workspace / "zero_model.json"
        cfm.save_model(zero_model, model)
        out = workspace / "jac0"
        assert cli.main(["jacobian", "--model", str(model), "--n-samples", "5",
                         "--steps", "5", "--out", str(out)]) == 0
        _, rows = read_csv(out / "spectrum.csv")
        assert all(float(r[1]) == 0.0 for r in rows)
        assert all(r[5] == "inf" for r in rows)  # literal inf marker in CSV

    def test_non_finite_eigenvalue_exits_3(self, trained, capsys):
        # an output weight of -1e155 keeps the field finite, but its Jacobian's
        # characteristic polynomial overflows
        workspace, model = trained
        path = _edited(json.loads(model.read_text()), workspace / "far.json",
                       lambda d: d["params"]["out.w"][2].__setitem__(0, -1e155))
        capsys.readouterr()
        assert cli.main(["jacobian", "--model", path, "--n-samples", "8", "--time-points", "3",
                         "--steps", "5", "--out", str(workspace / "jac")]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "non-finite Jacobian eigenvalue at t=" in lines[0]

    def test_non_2d_model_rejected(self, workspace, capsys):
        cfg = {
            "format_version": 1, "seed": 1,
            "dataset": {"kind": "gaussian_nd", "n": 64, "dim": 3, "noise": 0.0},
            "train": {"epochs": 1, "batch_size": 32,
                      "mlp": {"hidden": 8, "n_blocks": 1, "time_embed_dim": 4}},
        }
        cfg_path = workspace / "nd.json"
        cfg_path.write_text(json.dumps(cfg))
        model = workspace / "nd_model.json"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(model)]) == 0
        capsys.readouterr()
        code = cli.main(["jacobian", "--model", str(model), "--out", str(workspace / "x")])
        assert code == 2
        assert "2D model" in capsys.readouterr().err
        assert not (workspace / "x").exists()


class TestDopriTraceCmd:
    def test_tolerances_at_the_float_range_edge(self, trained, capsys):
        workspace, model = trained
        capsys.readouterr()
        assert cli.main(["dopri-trace", "--model", str(model), "--atol", "1e308", "--rtol", "1e308",
                         "--n", "8", "--out", str(workspace / "dt")]) == 0
        captured = capsys.readouterr()
        assert "accepted 1, rejected 0, NFE 7" in captured.out and not captured.err

    def test_trace_and_tiling(self, trained):
        workspace, model = trained
        out = workspace / "dt"
        code = cli.main(["dopri-trace", "--model", str(model), "--n", "30", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "dopri_trace.csv")
        assert header == ["t", "h", "err", "accepted", "nfe_cum"]
        accepted_h = [float(r[1]) for r in rows if r[3] == "1"]
        assert sum(accepted_h) == pytest.approx(1.0, abs=1e-9)
        assert all(r[2] != "" for r in rows)  # adaptive traces carry err
        assert (out / "dopri_steps.svg").exists()

    @pytest.mark.parametrize("atol, rtol, expected", [
        ("1e-3", "1e-3", "DOPRI5 step sizes (atol=rtol=0.001)"),
        ("1e-3", "1e-7", "DOPRI5 step sizes (atol=0.001, rtol=1e-07)"),
    ])
    def test_title_names_both_tolerances(self, trained, atol, rtol, expected):
        workspace, model = trained
        out = workspace / "dt"
        assert cli.main(["dopri-trace", "--model", str(model), "--n", "8",
                         "--atol", atol, "--rtol", rtol, "--out", str(out)]) == 0
        root = ET.parse(out / "dopri_steps.svg").getroot()
        texts = root.findall("{http://www.w3.org/2000/svg}text")
        assert [el.text for el in texts if el.get("font-size") == "13"] == [expected]


def _edited(doc, path, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _sample_argv(ws, model_path):
    return ["sample", "--model", model_path, "--solver", "euler", "--steps", "5",
            "--out", str(ws / "out")]


def _model_argv(ws, model, edit):
    return _sample_argv(ws, _edited(json.loads(model.read_text()), ws / "edited.json", edit))


def _train_argv(ws, edit):
    return ["train", "--config", _edited(TINY_CONFIG, ws / "edited.json", edit),
            "--out", str(ws / "m.json")]


def _deeply_nested(doc, path):
    # the seed as 3,000 nested lists, past the recursion limit of json's decoder
    deep = '"seed": ' + "[" * 3000 + "]" * 3000
    path.write_text(json.dumps({**doc, "seed": None}).replace('"seed": null', deep))
    return str(path)


def _benchmark_argv(ws, model, spec):
    cfg = _edited(TINY_CONFIG, ws / "grid.json", lambda d: d.update(solver_grid=[spec]))
    return ["benchmark", "--model", str(model), "--config", cfg, "--out", str(ws / "out")]


MALFORMED_INPUT = {
    "missing-model-path": lambda ws, model: _sample_argv(ws, str(ws / "absent.json")),
    "model-without-config": lambda ws, model: _model_argv(ws, model, lambda d: d.pop("config")),
    "model-unknown-key": lambda ws, model: _model_argv(ws, model, lambda d: d.update(extra=1)),
    "model-missing-nested-key": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].pop("data_std")),
    "fractional-epochs": lambda ws, model: _train_argv(
        ws, lambda d: d["train"].update(epochs=1.5)),
    "fractional-batch-size": lambda ws, model: _train_argv(
        ws, lambda d: d["train"].update(batch_size=2.5)),
    "epochs-past-the-step-ceiling": lambda ws, model: _train_argv(
        ws, lambda d: d["train"].update(epochs=10**30)),
    "steps-for-dopri5": lambda ws, model: _benchmark_argv(
        ws, model, {"method": "dopri5", "steps": 10}),
    "h-init-for-dopri5": lambda ws, model: _benchmark_argv(
        ws, model, {"method": "dopri5", "h_init": 0.1}),
    "steps-past-the-step-budget": lambda ws, model: ["sample", "--model", str(model),
        "--solver", "euler", "--steps", str(10**12), "--n", "8", "--out", str(ws / "out")],
    "jacobian-steps-past-the-step-budget": lambda ws, model: ["jacobian", "--model", str(model),
        "--steps", str(10**12), "--out", str(ws / "out")],
    "steps-zero": lambda ws, model: ["sample", "--model", str(model), "--solver", "euler",
        "--steps", "0", "--n", "8", "--out", str(ws / "out")],
    "steps-negative": lambda ws, model: ["sample", "--model", str(model), "--solver", "rk4",
        "--steps", "-1", "--n", "8", "--out", str(ws / "out")],
    "jacobian-steps-zero": lambda ws, model: ["jacobian", "--model", str(model),
        "--steps", "0", "--out", str(ws / "out")],
    "atol-for-euler": lambda ws, model: _benchmark_argv(
        ws, model, {"method": "euler", "steps": 10, "atol": 1e-4}),
    "steps-flag-for-dopri5": lambda ws, model: ["sample", "--model", str(model),
        "--solver", "dopri5", "--steps", "10", "--out", str(ws / "out")],
    "atol-flag-for-rk4": lambda ws, model: ["sample", "--model", str(model),
        "--solver", "rk4", "--steps", "2", "--atol", "0.5", "--out", str(ws / "out")],
    "atol-flag-nonpositive": lambda ws, model: ["sample", "--model", str(model),
        "--solver", "dopri5", "--atol", "-1", "--out", str(ws / "out")],
    "dopri-trace-atol-nonpositive": lambda ws, model: ["dopri-trace", "--model", str(model),
        "--atol", "0", "--out", str(ws / "out")],
    "grid-atol-zero": lambda ws, model: _benchmark_argv(
        ws, model, {"method": "dopri5", "atol": 0.0, "rtol": 1e-4}),
    "config-output-dir": lambda ws, model: _train_argv(
        ws, lambda d: d.update(output_dir="/nonexistent/where")),
    "fractional-seed": lambda ws, model: _train_argv(ws, lambda d: d.update(seed=1.7)),
    "config-version-true": lambda ws, model: _train_argv(
        ws, lambda d: d.update(format_version=True)),
    "config-version-float": lambda ws, model: _train_argv(
        ws, lambda d: d.update(format_version=1.0)),
    "model-version-true": lambda ws, model: _model_argv(
        ws, model, lambda d: d.update(format_version=True)),
    "model-fractional-seed": lambda ws, model: _model_argv(
        ws, model, lambda d: d.update(seed=2.5)),
    "model-fractional-epochs": lambda ws, model: _model_argv(
        ws, model, lambda d: d["config"].update(epochs=1.5)),
    "model-bool-noise": lambda ws, model: _model_argv(
        ws, model, lambda d: d["config"]["dataset"].update(noise=True)),
    "model-config-unknown-key": lambda ws, model: _model_argv(
        ws, model, lambda d: d["config"].update(extra=1)),
    "model-meta-mean-length": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].update(data_mean=[0.0, 0.0, 0.0])),
    "model-meta-std-nonpositive": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].update(data_std=[0.0, -1.0])),
    "model-meta-mean-nan": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].update(data_mean=[float("nan"), 0.0])),
    "model-meta-missing-epochs": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].pop("epochs")),
    "model-meta-unknown-key": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].update(extra=1)),
    "model-meta-epochs-string": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].update(epochs="x")),
    "model-meta-epochs-not-config": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].update(epochs=999)),
    "model-meta-loss-curve-string": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].update(loss_curve="abc")),
    "model-meta-loss-curve-empty": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].update(loss_curve=[])),
    "model-meta-loss-curve-nan": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"]["loss_curve"].__setitem__(0, float("nan"))),
    "model-meta-loss-curve-bool": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"]["loss_curve"].__setitem__(0, True)),
    "model-meta-final-loss-string": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].update(final_loss="nan")),
    "model-meta-final-loss-not-last": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"].update(final_loss=-1.0)),
    "config-noise-nan": lambda ws, model: _train_argv(
        ws, lambda d: d["dataset"].update(noise=float("nan"))),
    "config-lr-infinity": lambda ws, model: _train_argv(
        ws, lambda d: d["train"].update(lr=float("inf"))),
    "model-param-nan": lambda ws, model: _model_argv(
        ws, model, lambda d: d["params"]["block0.w1"][0].__setitem__(0, float("nan"))),
    "model-tensor-missing-a-row": lambda ws, model: _model_argv(
        ws, model, lambda d: d["params"]["block0.w1"].pop()),
    "model-data-dim-zero": lambda ws, model: _model_argv(
        ws, model, lambda d: d["config"]["mlp"].update(data_dim=0)),
    "model-blocks-beyond-the-file": lambda ws, model: _model_argv(
        ws, model, lambda d: d["config"]["mlp"].update(n_blocks=10**5)),
    "model-param-beyond-the-float-range": lambda ws, model: _model_argv(
        ws, model, lambda d: d["params"]["block0.w1"][0].__setitem__(0, 10**400)),
    "model-meta-mean-beyond-the-float-range": lambda ws, model: _model_argv(
        ws, model, lambda d: d["training_meta"]["data_mean"].__setitem__(0, 10**400)),
    "model-nested-3000-deep": lambda ws, model: _sample_argv(
        ws, _deeply_nested(json.loads(model.read_text()), ws / "deep.json")),
    "config-nested-3000-deep": lambda ws, model: [
        "train", "--config", _deeply_nested(TINY_CONFIG, ws / "deep.json"),
        "--out", str(ws / "m.json")],
    "config-lr-beyond-the-float-range": lambda ws, model: _train_argv(
        ws, lambda d: d["train"].update(lr=10**400)),
    "tolerances-below-round-off": lambda ws, model: ["sample", "--model", str(model),
        "--solver", "dopri5", "--atol", "1e-300", "--rtol", "1e-300", "--out", str(ws / "out")],
    "benchmark-without-model": lambda ws, model: ["benchmark", "--out", str(ws / "out")],
    "benchmark-missing-model-path": lambda ws, model: [
        "benchmark", "--model", str(ws / "absent.json"), "--out", str(ws / "out")],
    "benchmark-hidden-without-config": lambda ws, model: [
        "benchmark", "--hidden", "8", "--out", str(ws / "out")],
    "benchmark-model-and-hidden": lambda ws, model: [
        "benchmark", "--model", str(model), "--config", str(ws / "cfg.json"), "--hidden", "8",
        "--out", str(ws / "out")],
    "train-out-under-a-file": lambda ws, model: [
        "train", "--config", str(ws / "cfg.json"), "--out", str(ws / "cfg.json" / "m.json")],
    "loss-csv-is-out": lambda ws, model: [
        "train", "--config", str(ws / "cfg.json"), "--out", str(ws / "m.json"),
        "--loss-csv", str(ws / "." / "m.json")],
    "train-out-is-a-directory": lambda ws, model: [
        "train", "--config", str(ws / "cfg.json"), "--out", str(ws)],
    "train-loss-csv-is-a-directory": lambda ws, model: [
        "train", "--config", str(ws / "cfg.json"), "--out", str(ws / "m.json"),
        "--loss-csv", str(ws)],
    "train-out-names-no-file": lambda ws, model: [
        "train", "--config", str(ws / "cfg.json"), "--out", str(ws / "newdir") + os.sep],
    "train-loss-csv-under-a-file": lambda ws, model: [
        "train", "--config", str(ws / "cfg.json"), "--out", str(ws / "m.json"),
        "--loss-csv", str(ws / "cfg.json" / "loss.csv")],
    "stability-resolution-past-the-ceiling": lambda ws, model: [
        "stability", "--resolution", str(TOO_LARGE), "--out", str(ws / "out")],
}


# a --steps below 1 is SolverSpec's error line, not argparse's usage block
STEPS_BELOW_ONE = ("steps-zero", "steps-negative", "jacobian-steps-zero")


def _exit_2_with_one_line(case, trained, monkeypatch, capsys):
    """Run MALFORMED_INPUT[case]; its one stderr line."""
    workspace, model = trained

    def no_training(tc):
        raise AssertionError("cfm.train called")

    monkeypatch.setattr(cli.cfm, "train", no_training)
    capsys.readouterr()
    argv = MALFORMED_INPUT[case](workspace, model)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert not captured.out  # no "training ..." or "trained ..." line
    # a failed run leaves no --out behind: the output directory is made
    # only at the first write, and train's model file only after training
    assert not (workspace / ("m.json" if argv[0] == "train" else "out")).exists()
    return captured.err


class TestMalformedInput:
    @pytest.mark.parametrize("case", MALFORMED_INPUT)
    def test_exit_2_with_one_line_message(self, case, trained, monkeypatch, capsys):
        _exit_2_with_one_line(case, trained, monkeypatch, capsys)

    @pytest.mark.parametrize("case", ["steps-past-the-step-budget",
                                      "jacobian-steps-past-the-step-budget",
                                      "dopri-trace-atol-nonpositive", *STEPS_BELOW_ONE])
    def test_bad_solver_flag_fails_before_the_model_loads(self, case, trained, monkeypatch,
                                                          capsys):
        def no_loading(path):
            raise AssertionError("cfm.load_model called")

        monkeypatch.setattr(cli.cfm, "load_model", no_loading)
        err = _exit_2_with_one_line(case, trained, monkeypatch, capsys)
        if case in STEPS_BELOW_ONE:
            assert err.startswith("error: ") and "needs n_steps >= 1" in err

    @pytest.mark.parametrize("hidden", [False, True], ids=["model", "hidden-sweep"])
    def test_bad_seed_env_leaves_no_output(self, hidden, trained, monkeypatch, capsys):
        workspace, model = trained
        monkeypatch.setenv("FMSOLVE_SEED", "abc")
        source = ["--config", str(workspace / "cfg.json"), "--hidden", "8"] if hidden \
            else ["--model", str(model)]
        capsys.readouterr()
        assert cli.main(["benchmark", *source, "--out", str(workspace / "out")]) == 2
        captured = capsys.readouterr()
        assert "FMSOLVE_SEED" in captured.err
        assert "training" not in captured.out
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize(
        "entry",
        [5, "rk4", {"method": "rk4"}, {"method": "euler", "steps": 1.5}, {"steps": 4},
         {"method": "dopri5", "h_init": 0.1}],
        ids=["number", "string", "missing-steps", "fractional-steps", "missing-method",
             "h-init"],
    )
    def test_solver_grid_errors_name_the_entry(self, entry, workspace):
        grid = [{"method": "rk4", "steps": 4}, entry]
        cfg = _edited(TINY_CONFIG, workspace / "grid.json", lambda d: d.update(solver_grid=grid))
        with pytest.raises(ValueError, match=r"^solver_grid\[1\]: "):
            cli.load_run_config(cfg)

    def test_empty_solver_grid_rejected(self, workspace):
        cfg = _edited(TINY_CONFIG, workspace / "grid.json", lambda d: d.update(solver_grid=[]))
        with pytest.raises(ValueError, match="solver_grid: expected a non-empty list"):
            cli.load_run_config(cfg)

    def test_model_syntax_error_names_the_file(self, workspace, capsys):
        path = workspace / "bad.json"
        path.write_text("{")
        assert cli.main(_sample_argv(workspace, str(path))) == 2
        assert capsys.readouterr().err == (
            f"error: model file {path}: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n")
        assert not (workspace / "out").exists()


COUNT_FLAGS = {
    # (subcommand and flags, the file the subcommand would write)
    "dopri-trace-bins": (["dopri-trace", "--n", "8", "--bins", "0"], "dopri_trace.csv"),
    "benchmark-projections": (["benchmark", "--n", "8", "--projections", "0"], "pareto.csv"),
    "jacobian-time-points": (["jacobian", "--n-samples", "4", "--time-points", "0"],
                             "spectrum.csv"),
}


class TestCountFlags:
    @pytest.mark.parametrize("case", COUNT_FLAGS)
    def test_rejected_before_any_work(self, case, trained, capsys):
        workspace, model = trained
        argv, written = COUNT_FLAGS[case]
        out = workspace / "counts"
        with pytest.raises(SystemExit) as exc_info:
            cli.main([*argv, "--model", str(model), "--out", str(out)])
        assert exc_info.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err
        assert not (out / written).exists()

    @pytest.mark.parametrize(
        "hidden, message",
        [("8,0", "expected an integer >= 1"), ("8,x", "invalid widths value"),
         ("8,8", "expected distinct widths")],
        ids=["zero-width", "non-integer-width", "duplicate-width"],
    )
    def test_hidden_rejected_before_training(self, hidden, message, workspace, capsys):
        out = workspace / "ablate"
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["benchmark", "--config", str(workspace / "cfg.json"), "--hidden", hidden,
                      "--n", "8", "--projections", "4", "--out", str(out)])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "training" not in captured.out
        assert not out.exists()


# the functions that do each directory subcommand's work
WORK_FUNCTIONS = [
    (cli.cfm, "train"), (cli.cfm, "sample"), (cli.analysis, "convergence_study"),
    (cli.analysis, "dopri5_tolerance_study"), (cli.analysis, "stability_demo"),
    (cli.analysis, "pareto_benchmark"), (cli.analysis, "spectrum_along_trajectory"),
    (cli, "stability_region_grid"),
]

DIRECTORY_COMMANDS = {
    "convergence": lambda ws, model: ["convergence"],
    "stability": lambda ws, model: ["stability", "--resolution", "21"],
    "sample": lambda ws, model: ["sample", "--model", str(model), "--solver", "rk4",
                                 "--steps", "2", "--n", "8"],
    "benchmark": lambda ws, model: ["benchmark", "--model", str(model), "--n", "8",
                                    "--projections", "4"],
    "benchmark-hidden": lambda ws, model: ["benchmark", "--config", str(ws / "cfg.json"),
                                           "--hidden", "8", "--n", "8", "--projections", "4"],
    "jacobian": lambda ws, model: ["jacobian", "--model", str(model), "--n-samples", "4",
                                   "--time-points", "2", "--steps", "2"],
    "dopri-trace": lambda ws, model: ["dopri-trace", "--model", str(model), "--n", "8"],
}


# --out values that cannot be made a directory, given an existing file
NOT_A_DIRECTORY = {
    "names-a-file": lambda taken: str(taken),
    "under-a-file": lambda taken: str(taken / "out"),
    "empty": lambda taken: "",
}


class TestOutDirectory:
    @pytest.mark.parametrize("out", NOT_A_DIRECTORY)
    @pytest.mark.parametrize("command", DIRECTORY_COMMANDS)
    def test_rejected_before_any_work(self, command, out, trained, monkeypatch, capsys):
        # an --out that cannot be made a directory fails before anything is
        # sampled, trained or studied, not at the first write
        workspace, model = trained
        for module, name in WORK_FUNCTIONS:
            def unreachable(*args, name=name, **kwargs):
                raise AssertionError(f"{name} called")
            monkeypatch.setattr(module, name, unreachable)
        taken = workspace / "taken"
        taken.write_text("kept")
        argv = [*DIRECTORY_COMMANDS[command](workspace, model), "--out", NOT_A_DIRECTORY[out](taken)]
        capsys.readouterr()
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1 and not captured.out
        assert taken.read_text() == "kept"


REQUIRED = "required"

# every settable flag of every subcommand and its default
FLAG_DEFAULTS = {
    "convergence": {"--dim": 1, "--out": "out"},
    "stability": {"--re-min": -5.0, "--re-max": 2.0, "--im-min": -4.0, "--im-max": 4.0,
                  "--resolution": 281, "--demo-t1": 4.0, "--out": "out"},
    "train": {"--config": REQUIRED, "--out": REQUIRED, "--loss-csv": None, "--seed": None},
    "sample": {"--model": REQUIRED, "--solver": REQUIRED, "--steps": None, "--atol": None,
               "--rtol": None, "--n": 2000, "--seed": 0, "--out": "out"},
    "benchmark": {"--model": None, "--config": None, "--hidden": None, "--n": 2000,
                  "--projections": 200, "--seed": None, "--out": "out"},
    "jacobian": {"--model": REQUIRED, "--n-samples": 200, "--time-points": 11, "--steps": 50,
                 "--seed": 0, "--out": "out"},
    "dopri-trace": {"--model": REQUIRED, "--atol": None, "--rtol": None, "--n": 2000,
                    "--bins": 10, "--seed": 0, "--out": "out"},
}


def test_parser_flags_and_defaults():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    found = {
        command: {a.option_strings[0]: REQUIRED if a.required else a.default
                  for a in parser._actions if a.dest != "help"}
        for command, parser in subparsers.items()
    }
    assert found == FLAG_DEFAULTS
    assert sum(map(len, found.values())) == 41


STABILITY_FLAGS = {
    "demo-t1-inf": ["--demo-t1", "inf"],
    "demo-t1-nan": ["--demo-t1", "nan"],
    "demo-t1-zero": ["--demo-t1", "0"],
    "demo-t1-negative": ["--demo-t1", "-1"],
    "re-reversed": ["--re-min", "3", "--re-max", "-3"],
    "im-empty": ["--im-min", "1", "--im-max", "1"],
    "re-min-nan": ["--re-min", "nan"],
    "im-max-inf": ["--im-max", "inf"],
    "re-span-beyond-the-float-range": ["--re-min=-1e308", "--re-max=1e308"],
}

# finite flags whose demo step count or stability polynomial passes the float range
FAR_STABILITY_FLAGS = {
    "demo-t1-1e308": ["--demo-t1", "1e308"],
    "re-1e100": ["--re-min=-1e100", "--re-max=1e100"],
    "im-1e52": ["--im-min=-1e52", "--im-max=1e52"],
}


class TestStabilityFlags:
    @pytest.mark.parametrize("case", STABILITY_FLAGS)
    def test_rejected_before_any_file(self, case, tmp_path, capsys):
        out = tmp_path / "stab"
        argv = ["stability", *STABILITY_FLAGS[case], "--resolution", "21", "--out", str(out)]
        assert cli.main(argv) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", FAR_STABILITY_FLAGS)
    def test_far_finite_flags_run(self, case, tmp_path, capsys):
        out = tmp_path / "stab"
        argv = ["stability", *FAR_STABILITY_FLAGS[case], "--resolution", "21", "--out", str(out)]
        assert cli.main(argv) == 0
        assert not capsys.readouterr().err
        # an overflowing |R(z)| is written as inf, outside the region
        assert "nan" not in (out / "stability_dopri5.csv").read_text()
        # each of the demo's three step sizes runs ceil(t1 / h) steps, at most 200
        _, rows = read_csv(out / "stability_demo.csv")
        assert len(rows) == (3 * 201 if case == "demo-t1-1e308" else 41 + 31 + 25)


class TestSvgOutput:
    def test_all_svgs_are_well_formed_xml(self, trained):
        import xml.etree.ElementTree as ET

        workspace, model = trained
        out = workspace / "svgcheck"
        cli.main(["stability", "--resolution", "41", "--out", str(out)])
        cli.main(["convergence", "--out", str(out)])
        cli.main(["sample", "--model", str(model), "--solver", "rk4", "--steps", "5",
                  "--n", "20", "--out", str(out)])
        svgs = list(out.glob("*.svg"))
        assert len(svgs) >= 7
        for path in svgs:
            ET.parse(path)  # raises on malformed markup

    @pytest.mark.parametrize("mean", [1e308, 1e16], ids=["mean-1e308", "mean-1e16"])
    def test_samples_at_a_large_offset_render(self, mean, trained, capsys):
        # the samples round to the offset or to its float neighbours: half a
        # unit did not widen the axes at 1e308 (ZeroDivisionError), and the
        # tick step at 1e16 was below the float spacing, so ticks never ended
        workspace, model = trained
        argv = _model_argv(workspace, model,
                           lambda d: d["training_meta"].update(data_mean=[mean, mean]))
        capsys.readouterr()
        assert cli.main([*argv, "--n", "8"]) == 0
        assert not capsys.readouterr().err
        ET.parse(workspace / "out" / "samples.svg")

    def test_samples_overflowing_the_float_range_exit_3(self, trained, capsys):
        workspace, model = trained
        argv = _model_argv(workspace, model, lambda d: d["training_meta"].update(
            data_mean=[1e308, 1e308], data_std=[1e308, 1e308]))
        capsys.readouterr()
        assert cli.main([*argv, "--n", "8"]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "overflow" in err
        assert not (workspace / "out" / "samples.csv").exists()


# 10**17 float64 entries are 711 PiB, past the address space of any 64-bit
# machine: the allocation request fails, whatever the kernel's overcommit
# policy, before any memory is touched
TOO_LARGE = 10**17


def _one_step_on_too_many_points(config):
    # one optimizer step, so the training-step ceiling lets it through
    config["dataset"]["n"] = config["train"]["batch_size"] = TOO_LARGE
    config["train"]["epochs"] = 1


TOO_LARGE_FOR_MEMORY = {
    "sample-n": lambda ws, model: ["sample", "--model", str(model), "--solver", "rk4",
                                   "--steps", "2", "--n", str(TOO_LARGE)],
    "benchmark-n": lambda ws, model: ["benchmark", "--model", str(model), "--n", str(TOO_LARGE),
                                      "--projections", "4"],
    "benchmark-projections": lambda ws, model: ["benchmark", "--model", str(model), "--n", "8",
                                                "--projections", str(TOO_LARGE)],
    "jacobian-time-points": lambda ws, model: ["jacobian", "--model", str(model),
                                               "--n-samples", "4", "--time-points", str(TOO_LARGE)],
    "dopri-trace-bins": lambda ws, model: ["dopri-trace", "--model", str(model), "--n", "8",
                                           "--bins", str(TOO_LARGE)],
    "convergence-dim": lambda ws, model: ["convergence", "--dim", str(TOO_LARGE)],
    "train-dataset-n": lambda ws, model: [
        "train", "--config", _edited(TINY_CONFIG, ws / "big.json", _one_step_on_too_many_points)],
}


class TestInputsTooLargeForMemory:
    @pytest.mark.parametrize("case", TOO_LARGE_FOR_MEMORY)
    def test_exit_2_with_one_line_message(self, case, trained, capsys):
        # each exited 1 with numpy's _ArrayMemoryError traceback
        workspace, model = trained
        argv = TOO_LARGE_FOR_MEMORY[case](workspace, model)
        out = workspace / "out"
        # train's --out is a model file in the directory out
        before = set(workspace.rglob("*"))
        capsys.readouterr()
        assert cli.main([*argv, "--out", str(out / "m.json" if argv[0] == "train" else out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: input too large for memory: ")
        assert not [p for p in set(workspace.rglob("*")) - before if p.is_file()]
        assert not out.exists()

    @pytest.mark.parametrize("n_blocks", [10**13, 10**30], ids=["1e13", "1e30"])
    def test_block_count_fails_at_once(self, n_blocks, workspace, capsys):
        # the parameter layout was listed block by block before anything was
        # allocated: exit 2 only after about 27 s under a 4 GB address space
        cfg = _edited(TINY_CONFIG, workspace / "blocks.json",
                      lambda d: d["train"]["mlp"].update(n_blocks=n_blocks))
        model = workspace / "m.json"
        capsys.readouterr()
        start = time.perf_counter()
        assert cli.main(["train", "--config", cfg, "--out", str(model)]) == 2
        assert time.perf_counter() - start < 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not model.exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("render failed")


# the last render step of each subcommand: the chart of its last figure,
# or train's loss curve
LAST_RENDER_STEP = {
    "convergence": (svg, "line_chart"),
    "stability": (svg, "line_chart"),
    "sample": (svg, "scatter_chart"),
    "benchmark": (svg, "line_chart"),
    "benchmark-hidden": (svg, "line_chart"),
    "jacobian": (svg, "line_chart"),
    "dopri-trace": (svg, "line_chart"),
    "train": (cli, "csv_text"),
}


class TestFailedRenderLeavesNothing:
    @pytest.mark.parametrize("command", LAST_RENDER_STEP)
    def test_exit_2_and_no_file(self, command, trained, monkeypatch, capsys):
        # every output is rendered before the first one is written, so a
        # failure in the last render leaves neither a file nor a directory
        workspace, model = trained
        out = workspace / "new"
        if command == "train":
            argv = ["train", "--config", str(workspace / "cfg.json"), "--out", str(out / "m.json")]
        else:
            argv = [*DIRECTORY_COMMANDS[command](workspace, model), "--out", str(out)]
        monkeypatch.setattr(*LAST_RENDER_STEP[command], _out_of_memory)
        before = set(workspace.rglob("*"))
        capsys.readouterr()
        assert cli.main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: input too large for memory: ")
        assert set(workspace.rglob("*")) == before

    def test_train_model_encoding_fails_with_nothing_written(self, trained, monkeypatch, capsys):
        # the third json.dumps is the first tensor's first row, after the
        # document around the tensors is encoded; a model file written while
        # it is encoded would be left cut short in its new directory
        workspace, _ = trained
        out = workspace / "new"
        dumps, calls = cli.cfm.json.dumps, []

        def dumps_until_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise MemoryError("encode failed")
            return dumps(*args, **kwargs)

        monkeypatch.setattr(cli.cfm.json, "dumps", dumps_until_third)
        before = set(workspace.rglob("*"))
        capsys.readouterr()
        argv = ["train", "--config", str(workspace / "cfg.json"), "--out", str(out / "m.json")]
        assert cli.main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: input too large for memory: encode failed"]
        assert set(workspace.rglob("*")) == before


FAR_PARAMETER_COMMANDS = {
    "sample-rk4": ["sample", "--solver", "rk4", "--steps", "5", "--n", "8"],
    "sample-dopri5": ["sample", "--solver", "dopri5", "--n", "8"],
    "dopri-trace": ["dopri-trace", "--n", "8"],
    "jacobian": ["jacobian", "--n-samples", "8", "--time-points", "3", "--steps", "5"],
}


class TestFarParameters:
    @pytest.mark.parametrize("command", FAR_PARAMETER_COMMANDS)
    def test_input_weight_of_1e155_exits_3(self, command, trained, capsys):
        # a finite weight whose network pass overflows: the pass runs once with
        # float errors ignored, and the solver or differencer reports the failure
        workspace, model = trained
        path = _edited(json.loads(model.read_text()), workspace / "far.json",
                       lambda d: d["params"]["in.w"][0].__setitem__(0, 1e155))
        name, *flags = FAR_PARAMETER_COMMANDS[command]
        capsys.readouterr()
        assert cli.main([name, "--model", path, *flags, "--out", str(workspace / "out")]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: ")
        assert not (workspace / "out").exists()

    def test_field_near_the_float_range_exits_3(self, trained, capsys):
        # a finite first slope near 1e308 overflows dopri5's stage sums: the
        # solver reports the failure, and no float warning escapes it
        workspace, model = trained
        path = _edited(json.loads(model.read_text()), workspace / "near.json",
                       lambda d: d["params"].__setitem__("out.b", [1e308, 1e308]))
        capsys.readouterr()
        assert cli.main(["sample", "--model", path, "--solver", "dopri5", "--atol", "1e300",
                         "--n", "8", "--out", str(workspace / "out")]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: ")
        assert not (workspace / "out").exists()

    def test_input_weight_of_1e10_stops_dopri5_promptly(self, trained, capsys):
        # the field stays finite but holds dopri5's step at its stability
        # boundary, about 1e-7: the trace took all 100,000 attempts
        workspace, model = trained
        path = _edited(json.loads(model.read_text()), workspace / "stiff.json",
                       lambda d: d["params"]["in.w"][0].__setitem__(0, 1e10))
        capsys.readouterr()
        start = time.perf_counter()
        assert cli.main(["dopri-trace", "--model", path, "--n", "8",
                         "--out", str(workspace / "out")]) == 3
        assert time.perf_counter() - start < 5
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: stability-bound at t=")


# the commands that read a model file, at sizes that keep a case near 0.05 s
MODEL_COMMANDS = {
    "sample": ["--solver", "dopri5", "--n", "8"],
    "benchmark": ["--n", "8", "--projections", "4"],
    "jacobian": ["--n-samples", "4", "--time-points", "2", "--steps", "3"],
    "dopri-trace": ["--n", "8"],
}


class TestEditedModelFilesThroughTheCli:
    BUDGET = 300
    SECONDS = 10  # per case

    def test_exit_codes_hold(self, trained, capsys):
        # each case edits the model file once (test_cfm's generator: a key
        # deleted, a value from its pool, a tensor reshaped, a foreign entry,
        # a repeated name, other key order or whitespace, a damaged character)
        # and runs one command on it.  Exit 0, 2 or 3, never a traceback; one
        # stderr line on failure (benchmark warns of failed specs and exits
        # 0); no output directory on a non-zero exit; a time bound
        workspace, model = trained
        commands = random.Random(20)
        failures = []
        texts = edited_model_texts(json.loads(model.read_text()), seed=20, budget=self.BUDGET)
        for i, text in enumerate(texts):
            path, out = workspace / "edited.json", workspace / f"out{i}"
            path.write_text(text)
            name = commands.choice(sorted(MODEL_COMMANDS))
            capsys.readouterr()
            start = time.perf_counter()
            try:
                code = cli.main([name, "--model", str(path), *MODEL_COMMANDS[name],
                                 "--out", str(out)])
            except Exception as exc:  # every escape is a finding
                code = repr(exc)
            seconds = time.perf_counter() - start
            err = capsys.readouterr().err.strip().splitlines()
            if (code not in (0, 2, 3) or code and len(err) != 1 or (code and out.exists())
                    or seconds > self.SECONDS):
                failures.append((i, name, code, err, round(seconds, 2), text[:200]))
        assert not failures, failures[:3]


# the config fuzzer's value pool: each case puts one in place of one value of a config
CONFIG_VALUES = [None, True, False, 0, -1, 1.5, 1e308, -1e308, 1e-320, float("nan"),
                 float("inf"), float("-inf"), "x", [], {}, 10**13, 10**30]
FUZZED_CONFIG = {**TINY_CONFIG, "solver_grid": [
    {"method": "rk4", "steps": 2}, {"method": "dopri5", "atol": 1e-3, "rtol": 1e-3}]}
# the commands that read a config, at sizes that keep a case near 0.01 s
CONFIG_COMMANDS = {
    "train": lambda cfg, out: ["train", "--config", cfg, "--out", str(out / "m.json")],
    "benchmark": lambda cfg, out: ["benchmark", "--config", cfg, "--hidden", "8", "--n", "8",
                                   "--projections", "4", "--out", str(out)],
}


def _places(node, path=()):
    """The key and index paths of every value below a JSON document's root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield (*path, key)
        yield from _places(child, (*path, key))


def _replace_at(path, value):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


class TestEditedConfigFilesThroughTheCli:
    BUDGET = 300
    SECONDS = 10  # per case

    def test_exit_codes_hold(self, workspace, capsys):
        # each case replaces one value anywhere in the config (a solver_grid
        # included) by one from the pool and runs one command on it, with the
        # invariants of TestEditedModelFilesThroughTheCli; train writes its
        # model file into the directory out
        rng = random.Random(1)
        places = list(_places(FUZZED_CONFIG))
        failures = []
        for i in range(self.BUDGET):
            place, value = rng.choice(places), rng.choice(CONFIG_VALUES)
            name = rng.choice(sorted(CONFIG_COMMANDS))
            cfg = _edited(FUZZED_CONFIG, workspace / "edited.json", _replace_at(place, value))
            out = workspace / f"out{i}"
            capsys.readouterr()
            start = time.perf_counter()
            try:
                code = cli.main(CONFIG_COMMANDS[name](cfg, out))
            except Exception as exc:  # every escape is a finding
                code = repr(exc)
            seconds = time.perf_counter() - start
            err = capsys.readouterr().err.strip().splitlines()
            if (code not in (0, 2, 3) or code and len(err) != 1 or (code and out.exists())
                    or seconds > self.SECONDS):
                failures.append((i, name, place, value, code, err, round(seconds, 2)))
        assert not failures, failures[:3]


def _reversed_keys(node):
    if not isinstance(node, dict):
        return node
    return {k: _reversed_keys(node[k]) for k in reversed(list(node))}


class TestDeterminism:
    def test_reindented_model_file_samples_the_same_bytes(self, trained):
        # the model file's layout is not part of the model: other key order
        # and indentation load the same parameters
        workspace, model = trained
        reindented = workspace / "reindented.json"
        reindented.write_text(json.dumps(_reversed_keys(json.loads(model.read_text())), indent=1))
        samples = []
        for path, name in ((model, "compact"), (reindented, "reindented")):
            assert cli.main(["sample", "--model", str(path), "--solver", "rk4", "--steps", "5",
                             "--n", "64", "--out", str(workspace / name)]) == 0
            samples.append((workspace / name / "samples.csv").read_bytes())
        assert samples[0] == samples[1]

    def test_sample_csvs_byte_identical(self, trained):
        workspace, model = trained
        outs = []
        for name in ("r1", "r2"):
            out = workspace / name
            cli.main(["sample", "--model", str(model), "--solver", "euler", "--steps", "10",
                      "--n", "40", "--seed", "3", "--out", str(out)])
            outs.append(out)
        for fname in ("samples.csv", "trace.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
