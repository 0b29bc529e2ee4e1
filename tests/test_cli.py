import csv
import json

import numpy as np
import pytest

from fmsolve import cli

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

    def test_non_2d_model_rejected(self, workspace):
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
        code = cli.main(["jacobian", "--model", str(model), "--out", str(workspace / "x")])
        assert code == 2


class TestDopriTraceCmd:
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
    "steps-for-dopri5": lambda ws, model: _benchmark_argv(
        ws, model, {"method": "dopri5", "steps": 10}),
    "atol-for-euler": lambda ws, model: _benchmark_argv(
        ws, model, {"method": "euler", "steps": 10, "atol": 1e-4}),
    "steps-flag-for-dopri5": lambda ws, model: ["sample", "--model", str(model),
        "--solver", "dopri5", "--steps", "10", "--out", str(ws / "out")],
    "atol-flag-for-rk4": lambda ws, model: ["sample", "--model", str(model),
        "--solver", "rk4", "--steps", "2", "--atol", "0.5", "--out", str(ws / "out")],
    "config-output-dir": lambda ws, model: _train_argv(
        ws, lambda d: d.update(output_dir="/nonexistent/where")),
    "fractional-seed": lambda ws, model: _train_argv(ws, lambda d: d.update(seed=1.7)),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", MALFORMED_INPUT)
    def test_exit_2_with_one_line_message(self, case, trained, capsys):
        workspace, model = trained
        capsys.readouterr()
        assert cli.main(MALFORMED_INPUT[case](workspace, model)) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


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


class TestDeterminism:
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
