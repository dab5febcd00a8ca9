import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from deferlab.cli import (
    CONFIG_SCHEMA,
    DATA_SETTINGS,
    _bench_values,
    _config_text,
    build_parser,
    load_model_file,
    main,
    parse_config_file,
)
from deferlab.core import HalfspacePair, load_dataset_csv
from deferlab.train import TrainedSystem


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_synthetic_round_trip(self, tmp_path):
        out = tmp_path / "data.csv"
        code = run_cli("gen", "--d", "3", "--n", "50", "--seed", "7", "--out", str(out))
        assert code == 0
        ds = load_dataset_csv(out)
        assert ds.n == 50 and ds.d == 3
        meta = (str(out) + ".meta")
        text = open(meta).read()
        assert "seed=7" in text and "planted_rejector=" in text

    def test_grouped_preset(self, tmp_path):
        out = tmp_path / "grouped.csv"
        code = run_cli("gen", "--preset", "grouped", "--K", "10", "--C", "10",
                       "--n", "80", "--d", "4", "--out", str(out))
        assert code == 0
        ds = load_dataset_csv(out)
        # K = C means the expert is perfect
        assert np.mean(ds.human_preds == ds.labels) == 1.0

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEFERLAB_SEED", "123")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("gen", "--d", "2", "--n", "20", "--out", str(a))
        run_cli("gen", "--d", "2", "--n", "20", "--out", str(b))
        assert a.read_text() == b.read_text()
        assert "seed=123" in open(str(a) + ".meta").read()

    @pytest.mark.parametrize("argv,config", [
        (["--C", "7"], None), (["--blob-std", "9"], None),
        (["--preset", "grouped", "--pm", "0.1"], None),
        (["--preset", "grouped", "--std-scale", "0.5"], None),
        ([], "[data]\nkind=grouped\nK=3\n"), ([], "[data]\nexpert_k=3\n"),
    ])
    def test_settings_of_the_other_kind_are_usage_errors(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "data.csv"
        assert run_cli("gen", "--d", "2", "--n", "20", "--seed", "1", *argv,
                       "--out", str(out)) == 1
        assert "does not apply to kind=" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("bench", *argv, "--out-dir", str(tmp_path / "o")) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--U", "nan"], "U must be"), (["--U", "inf"], "U must be"),
        (["--std-scale", "nan"], "std_scale must be"), (["--margin", "nan"], "margin must"),
        (["--preset", "grouped", "--U", "nan"], "U must be finite"),
        (["--preset", "grouped", "--blob-std", "inf"], "blob_std must be finite"),
    ])
    def test_nan_and_infinite_floats_are_usage_errors(self, tmp_path, capsys, argv, message):
        out = tmp_path / "data.csv"
        assert run_cli("gen", "--d", "2", "--n", "10", *argv, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestMilpCmd:
    def test_solve_and_record(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli("gen", "--d", "2", "--n", "16", "--seed", "3", "--margin", "0.2",
                "--std-scale", "0.3", "--out", str(data))
        rec = tmp_path / "sol.json"
        weights = tmp_path / "pair.csv"
        code = run_cli("milp", "--data", str(data), "--out-record", str(rec),
                       "--out-weights", str(weights))
        assert code == 0
        record = json.loads(rec.read_text())
        assert record["status"] == "proven_optimal"
        assert record["train_loss"] == 0.0  # realizable instance
        pair = load_model_file(weights)
        assert isinstance(pair, HalfspacePair)

    def test_no_unclosed_file_under_dev_mode(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli("gen", "--d", "2", "--n", "16", "--seed", "3", "--out", str(data))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "deferlab.cli",
             "milp", "--data", str(data), "--out-record", str(tmp_path / "r.json"),
             "--out-weights", str(tmp_path / "w.csv")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize("gap", [None, "0.3"])
    def test_summary_prints_bound_and_gap(self, tmp_path, capsys, gap):
        data = tmp_path / "d.csv"
        run_cli("gen", "--d", "2", "--n", "12", "--seed", "2", "--pm", "0.2", "--out", str(data))
        capsys.readouterr()
        rec = tmp_path / "r.json"
        code = run_cli("milp", "--data", str(data), *(["--gap", gap] if gap else []),
                       "--out-record", str(rec), "--out-weights", str(tmp_path / "w.csv"))
        assert code == 0
        summary = dict(field.split("=") for field in capsys.readouterr().out.split())
        record = json.loads(rec.read_text())
        assert summary["bound"] == f"{record['best_bound']:.6f}"
        assert summary["gap"] == f"{record['objective'] - record['best_bound']:.6f}"
        assert (float(summary["gap"]) > 0.0) == (gap is not None)
        assert summary["lp_iterations"] == str(record["lp_iterations"])
        assert record["lp_iterations"] > 0
        assert summary["heuristic_s"] == f"{record['heuristic_s']:.3f}"
        assert 0.0 < record["heuristic_s"] <= record["wall_time_s"]

    def test_summary_and_record_count_proposals(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run_cli("gen", "--d", "2", "--n", "12", "--seed", "2", "--pm", "0.2", "--out", str(data))
        capsys.readouterr()
        rec = tmp_path / "r.json"
        code = run_cli("milp", "--data", str(data),
                       "--out-record", str(rec), "--out-weights", str(tmp_path / "w.csv"))
        assert code == 0
        summary = dict(field.split("=") for field in capsys.readouterr().out.split())
        record = json.loads(rec.read_text())
        assert summary["proposals"] == str(record["proposals"])
        assert isinstance(record["proposals"], int) and record["proposals"] > 0

    def test_flags_accepted(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli("gen", "--d", "2", "--n", "12", "--seed", "1", "--out", str(data))
        code = run_cli("milp", "--data", str(data), "--beta", "0.5",
                       "--time-limit", "60", "--gap", "0.05",
                       "--out-record", str(tmp_path / "r.json"),
                       "--out-weights", str(tmp_path / "w.csv"))
        assert code == 0

    def test_negative_gap_rejected(self, tmp_path, capsys):
        data, rec = tmp_path / "d.csv", tmp_path / "r.json"
        run_cli("gen", "--d", "2", "--n", "8", "--seed", "1", "--out", str(data))
        code = run_cli("milp", "--data", str(data), "--gap", "-1",
                       "--out-record", str(rec), "--out-weights", str(tmp_path / "w.csv"))
        assert code == 1
        assert "abs_gap must be nonnegative" in capsys.readouterr().err
        assert not rec.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--time-limit", "nan", "time_limit_s must be nonnegative"),
        ("--gap", "nan", "abs_gap must be nonnegative"),
        ("--gap", "inf", "abs_gap must be nonnegative"),
        ("--gamma", "nan", "gamma must be"),
        ("--gamma", "inf", "gamma must be"),
        ("--box", "nan", "box must be"),
        ("--box", "inf", "box must be"),
        ("--lambda-reg", "nan", "lambda_reg must be"),
        ("--lambda-reg", "inf", "lambda_reg must be"),
    ])
    def test_nan_and_infinite_settings_rejected(self, tmp_path, capsys, flag, value, message):
        data, rec = tmp_path / "d.csv", tmp_path / "r.json"
        run_cli("gen", "--d", "2", "--n", "8", "--seed", "1", "--out", str(data))
        code = run_cli("milp", "--data", str(data), flag, value,
                       "--out-record", str(rec), "--out-weights", str(tmp_path / "w.csv"))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not rec.exists()

    def test_infinite_time_limit_is_no_limit(self, tmp_path):
        data, rec = tmp_path / "d.csv", tmp_path / "r.json"
        run_cli("gen", "--d", "2", "--n", "8", "--seed", "1", "--out", str(data))
        assert run_cli("milp", "--data", str(data), "--time-limit", "inf",
                       "--out-record", str(rec), "--out-weights", str(tmp_path / "w.csv")) == 0
        assert json.loads(rec.read_text())["status"] == "proven_optimal"

    def test_large_multiclass_problem_not_searched(self, tmp_path):
        # 120 points of 3 classes make 600 LP rows, above EXACT_ROWS_MAX
        data, rec = tmp_path / "g.csv", tmp_path / "r.json"
        assert run_cli("gen", "--preset", "grouped", "--C", "3", "--K", "1", "--n", "120",
                       "--d", "2", "--blob-std", "3", "--seed", "1", "--out", str(data)) == 0
        assert run_cli("milp", "--data", str(data), "--time-limit", "5",
                       "--out-record", str(rec), "--out-weights", str(tmp_path / "w.csv")) == 0
        record = json.loads(rec.read_text())
        assert (record["nodes_explored"], record["best_bound"]) == (0, 0.0)


class TestTrainEvalRoundTrip:
    def test_pipeline_consumes_own_files(self, tmp_path):
        data = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        run_cli("gen", "--d", "3", "--n", "300", "--seed", "5", "--margin", "0.2",
                "--std-scale", "0.3", "--out", str(data))
        run_cli("gen", "--d", "3", "--n", "200", "--seed", "6", "--margin", "0.2",
                "--std-scale", "0.3", "--out", str(test))
        model = tmp_path / "model.csv"
        code = run_cli("train", "--data", str(data), "--method", "rs", "--alpha-grid", "1.0",
                       "--epochs", "40", "--seed", "0", "--out", str(model))
        assert code == 0
        curve = tmp_path / "curve.csv"
        code = run_cli("eval", "--data", str(test), "--model", str(model),
                       "--curve-out", str(curve))
        assert code == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "threshold,coverage,system_acc"
        assert len(lines) >= 3

    def test_two_stage_model_round_trip(self, tmp_path):
        data = tmp_path / "train.csv"
        run_cli("gen", "--d", "2", "--n", "150", "--seed", "2", "--out", str(data))
        model = tmp_path / "cc.csv"
        code = run_cli("train", "--data", str(data), "--method", "confidence",
                       "--epochs", "10", "--seed", "0", "--out", str(model))
        assert code == 0
        system = load_model_file(model)
        assert isinstance(system, TrainedSystem)
        assert system.aux_model is not None
        assert system.score_kind == "confidence"

    def test_explicit_alpha_grid_is_trained(self, tmp_path):
        # ce's own grid is (0, 0.1, 0.5, 1); the rs grid given by flag must
        # be the one trained, even though it is rs's unset default
        data = tmp_path / "train.csv"
        run_cli("gen", "--d", "4", "--n", "300", "--seed", "7", "--out", str(data))
        models = {}
        for name, extra in (("unset", []), ("own", ["--alpha-grid", "0.0,0.1,0.5,1.0"]),
                            ("rs_grid", ["--alpha-grid", "0.0,0.25,0.5,0.75,1.0"])):
            models[name] = tmp_path / f"{name}.csv"
            assert run_cli("train", "--data", str(data), "--method", "ce", "--epochs", "5",
                           "--seed", "1", "--out", str(models[name]), *extra) == 0
        assert models["unset"].read_bytes() == models["own"].read_bytes()
        assert models["unset"].read_bytes() != models["rs_grid"].read_bytes()

    def test_perfect_expert_always_defer(self, tmp_path):
        # gen --preset grouped --K 10 --C 10, then eval an always-defer pair
        data = tmp_path / "grouped.csv"
        run_cli("gen", "--preset", "grouped", "--K", "10", "--C", "10",
                "--n", "100", "--d", "3", "--out", str(data))
        pair_file = tmp_path / "defer_all.csv"
        pair_file.write_text(
            "halfspace_pair,10,3\n" +
            "\n".join("0.0,0.0,0.0,0.0" for _ in range(10)) +  # classifier rows
            "\n0.0,0.0,0.0,1.0\n"  # rejector: positive bias defers everything
        )
        out = subprocess.run(
            [sys.executable, "-m", "deferlab.cli", "eval", "--data", str(data),
             "--model", str(pair_file)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "system_accuracy=1.0" in out.stdout
        assert "coverage=0.0" in out.stdout

    def test_eval_milp_weights(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli("gen", "--d", "2", "--n", "20", "--seed", "3", "--out", str(data))
        run_cli("milp", "--data", str(data), "--out-record", str(tmp_path / "r.json"),
                "--out-weights", str(tmp_path / "w.csv"))
        code = run_cli("eval", "--data", str(data), "--model", str(tmp_path / "w.csv"))
        assert code == 0

    def test_multiclass_milp_weights(self, tmp_path, capsys):
        data, rec, weights = tmp_path / "g.csv", tmp_path / "r.json", tmp_path / "w.csv"
        assert run_cli("gen", "--preset", "grouped", "--C", "3", "--K", "1", "--n", "12",
                       "--d", "2", "--seed", "4", "--out", str(data)) == 0
        assert run_cli("milp", "--data", str(data), "--out-record", str(rec),
                       "--out-weights", str(weights)) == 0
        record = json.loads(rec.read_text())
        assert record["status"] == "proven_optimal"
        assert 0.0 < record["train_loss"] < 1.0
        pair = load_model_file(weights)
        assert isinstance(pair, HalfspacePair)
        assert pair.classifier_weights.shape == (3, 3) and pair.rejector_weights.shape == (3,)
        assert len(weights.read_text().splitlines()) == 1 + 3 + 1  # header, M rows, R
        capsys.readouterr()
        assert run_cli("eval", "--data", str(data), "--model", str(weights)) == 0
        metrics = dict(line.split("=") for line in capsys.readouterr().out.split())
        assert float(metrics["system_accuracy"]) == pytest.approx(1.0 - record["train_loss"])


def _edit_line(text, index, old, new):
    lines = text.splitlines()
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new, 1)
    return "\n".join(lines) + "\n"


class TestModelFileValidation:
    """A malformed model file is a usage error (exit 1) that names the file."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("models")
        out = {"data": root / "d.csv", "other_d": root / "d4.csv"}
        run_cli("gen", "--d", "3", "--n", "60", "--seed", "1", "--out", str(out["data"]))
        run_cli("gen", "--d", "4", "--n", "60", "--seed", "1", "--out", str(out["other_d"]))
        for method in ("rs", "confidence"):
            out[method] = root / f"{method}.csv"
            assert run_cli("train", "--data", str(out["data"]), "--method", method,
                           "--epochs", "3", "--out", str(out[method])) == 0
        return out

    @pytest.mark.parametrize("source,edit,message", [
        ("confidence", lambda t: "\n".join(t.splitlines()[:2]) + "\n", "needs 4 lines, got 2"),
        ("rs", lambda t: _edit_line(t, 0, "linear", "quadratic"), "architecture 'quadratic'"),
        ("rs", lambda t: _edit_line(t, 0, "linear,3,3,0", "linear,3,3,7"), "hidden_units=7"),
        ("rs", lambda t: _edit_line(t, 0, "linear,3,3,0", "one_hidden,3,3,0"), "hidden_units=0"),
        ("rs", lambda t: _edit_line(t, 1, ",", ",1.0,"), "has 12 parameters, got 13"),
        ("rs", lambda t: _edit_line(t, 0, ",gap,2,", ",gap,3,"), "expected 3 to 4"),
        ("rs", lambda t: _edit_line(t, 0, ",gap,", ",margin,"), "unknown score kind"),
        ("rs", lambda t: _edit_line(t, 0, ",gap,2,rs", ",gap,2,bogus"),
         "unknown method 'bogus' with score kind 'gap'"),
        ("rs", lambda t: _edit_line(t, 0, ",gap,2,rs", ",defer_head,2,rs"),
         "score kind 'defer_head' does not match method 'rs', which defers on 'gap'"),
        ("rs", lambda t: _edit_line(t, 0, ",gap,2,rs", ",gap,2"), "header has 9 fields"),
        ("confidence", lambda t: _edit_line(t, 2, "aux,linear,3,1", "aux,linear,1,2"),
         "expected 3 to 1"),
        ("confidence", lambda t: _edit_line(t, 2, "aux,", "extra,"), "malformed aux header"),
    ])
    def test_malformed_score_model(self, files, tmp_path, capsys, source, edit, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(edit(files[source].read_text()))
        assert run_cli("eval", "--data", str(files["data"]), "--model", str(bad)) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    def test_malformed_halfspace_pair(self, files, tmp_path, capsys):
        bad = tmp_path / "pair.csv"
        bad.write_text("halfspace_pair,2,3\n0.0,0.0,0.0,1.0\n0.0,0.0,1.0\n")
        assert run_cli("eval", "--data", str(files["data"]), "--model", str(bad)) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "d + 1 = 4 values" in err

    def test_model_and_data_dimensions_differ(self, files, capsys):
        assert run_cli("eval", "--data", str(files["other_d"]),
                       "--model", str(files["rs"])) == 1
        err = capsys.readouterr().err
        assert str(files["rs"]) in err and "d=3" in err

    def test_model_and_data_classes_differ(self, files, tmp_path, capsys):
        grouped = tmp_path / "grouped.csv"
        run_cli("gen", "--preset", "grouped", "--K", "3", "--C", "3",
                "--n", "60", "--d", "3", "--seed", "2", "--out", str(grouped))
        assert run_cli("eval", "--data", str(grouped), "--model", str(files["rs"])) == 1
        err = capsys.readouterr().err
        assert str(files["rs"]) in err and str(grouped) in err and "C=2" in err
        pair = tmp_path / "pair.csv"
        pair.write_text("halfspace_pair,2,3\n0.0,0.0,0.0,1.0\n0.0,0.0,0.0,1.0\n")
        assert run_cli("eval", "--data", str(grouped), "--model", str(pair)) == 1
        err = capsys.readouterr().err
        assert str(pair) in err and str(grouped) in err and "C=2" in err

    def test_valid_files_still_load(self, files):
        for method in ("rs", "confidence"):
            assert run_cli("eval", "--data", str(files["data"]),
                           "--model", str(files[method])) == 0


class TestBench:
    def test_bench_outputs(self, tmp_path):
        cfgfile = tmp_path / "bench.cfg"
        cfgfile.write_text(
            "[data]\nkind=synthetic\nd=3\nn=200\nstd_scale=0.3\nmargin=0.2\n"
            "p_h0=0.3\nseed=11\n"
            "[method]\nmethods=rs,selective\nalpha_grid=1.0\n"
            "[train]\nepochs=10\nbatch_size=64\nlr=0.1\n"
            "[eval]\ntrials=2\nsplit=0.7,0.1,0.2\n"
        )
        out = tmp_path / "run"
        code = run_cli("bench", "--config", str(cfgfile), "--out-dir", str(out))
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "curve_rs.csv").exists()
        assert (out / "curve_selective.csv").exists()
        assert (out / "plot.svg").exists()
        resolved = (out / "resolved_config.cfg").read_text()
        assert "[data]" in resolved and "epochs=10" in resolved
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + methods x trials

    @pytest.mark.parametrize("split", ["0.5,0.1,0.1", "0.7,0.3", "0.9,0.2,0.1", "nan,0.5,0.5",
                                       "20,5,4", "0.9,0.1,0"])
    def test_invalid_split_is_a_usage_error(self, tmp_path, capsys, split):
        cfgfile = tmp_path / "bench.cfg"
        cfgfile.write_text(f"[data]\nd=2\nn=30\n[eval]\ntrials=1\nsplit={split}\n")
        out = tmp_path / "run"
        assert run_cli("bench", "--config", str(cfgfile), "--out-dir", str(out)) == 1
        assert "[eval] split: split (" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("methods,message", [
        ("bogus", "unknown method id 'bogus'"),
        ("rs,rs", "method id 'rs' is given more than once"),
        ("rs,milp,selective,milp", "method id 'milp' is given more than once"),
    ])
    def test_bad_methods_are_usage_errors(self, tmp_path, capsys, methods, message):
        out = tmp_path / "run"
        argv = ["bench", "--d", "2", "--n", "30", "--trials", "1", "--epochs", "2",
                "--methods", methods, "--out-dir", str(out)]
        assert run_cli(*argv) == 1
        assert f"error: [method] methods: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_reproducible_from_resolved_config(self, tmp_path):
        # each run replays from its own resolved config: same results and
        # curves, and the replay resolves to the same config (a fixed point)
        runs = {
            "grouped": ["--preset", "grouped", "--n", "60", "--d", "2", "--C", "3", "--K", "1",
                        "--methods", "rs", "--trials", "1", "--epochs", "3", "--seed", "4"],
            "synthetic": ["--methods", "rs,milp", "--trials", "2", "--seed", "9", "--d", "2",
                          "--n", "30", "--epochs", "5", "--beta", "0.6", "--alpha-grid", "0.5",
                          "--hidden", "3"],
        }
        for name, flags in runs.items():
            first, replay = tmp_path / name, tmp_path / (name + "-replay")
            assert run_cli("bench", *flags, "--no-plot", "--out-dir", str(first)) == 0
            resolved = first / "resolved_config.cfg"
            assert run_cli("bench", "--config", str(resolved), "--no-plot",
                           "--out-dir", str(replay)) == 0
            files = sorted(p.name for p in first.iterdir())
            assert files == sorted(p.name for p in replay.iterdir())
            assert "results.csv" in files and any(f.startswith("curve_") for f in files)
            for f in files:
                assert (first / f).read_bytes() == (replay / f).read_bytes(), (name, f)


# every [section] key with a value other than its default, per data kind
NON_DEFAULT = {
    ("data", "kind"): "grouped", ("data", "seed"): "5", ("data", "d"): "3", ("data", "n"): "50",
    ("data", "distribution"): "uniform", ("data", "U"): "4.0", ("data", "K"): "3",
    ("data", "std_scale"): "0.5", ("data", "margin"): "0.1", ("data", "p_m"): "0.05",
    ("data", "p_h0"): "0.2", ("data", "p_h1"): "0.1", ("data", "C"): "4",
    ("data", "expert_k"): "2", ("data", "blob_std"): "1.5",
    ("method", "methods"): "rs,ce", ("method", "alpha_grid"): "0.5,1.0",
    ("solver", "gamma"): "0.001", ("solver", "box"): "2.0", ("solver", "lambda_reg"): "0.01",
    ("solver", "beta"): "0.5", ("solver", "time_limit"): "7.5", ("solver", "gap"): "0.05",
    ("train", "epochs"): "7", ("train", "batch_size"): "16", ("train", "lr"): "0.05",
    ("train", "hidden_units"): "3",
    ("eval", "trials"): "2", ("eval", "split"): "0.6,0.2,0.2",
}

# every option of each subcommand as the parser had it before the settings
# table: option -> (dest, type, default, choices, required)
FLAG_SURFACE = {
    "bench": {
        "--C": ("C", "int", None, None, False),
        "--K": ("K", "int", None, None, False),
        "--U": ("U", "float", None, None, False),
        "--alpha-grid": ("alpha_grid", None, None, None, False),
        "--batch-size": ("batch_size", "int", None, None, False),
        "--beta": ("beta", "float", None, None, False),
        "--blob-std": ("blob_std", "float", None, None, False),
        "--box": ("box", "float", None, None, False),
        "--config": ("config", None, None, None, False),
        "--d": ("d", "int", None, None, False),
        "--distribution": ("distribution", None, None, ("uniform", "gaussian_mixture"), False),
        "--epochs": ("epochs", "int", None, None, False),
        "--gamma": ("gamma", "float", None, None, False),
        "--gap": ("gap", "float", None, None, False),
        "--hidden": ("hidden", "int", None, None, False),
        "--lambda-reg": ("lambda_reg", "float", None, None, False),
        "--lr": ("lr", "float", None, None, False),
        "--margin": ("margin", "float", None, None, False),
        "--methods": ("methods", None, None, None, False),
        "--n": ("n", "int", None, None, False),
        "--no-plot": ("no_plot", None, False, None, False),
        "--out-dir": ("out_dir", None, None, None, True),
        "--ph0": ("ph0", "float", None, None, False),
        "--ph1": ("ph1", "float", None, None, False),
        "--pm": ("pm", "float", None, None, False),
        "--preset": ("preset", None, None, ("synthetic", "grouped"), False),
        "--seed": ("seed", "int", None, None, False),
        "--std-scale": ("std_scale", "float", None, None, False),
        "--time-limit": ("time_limit", "float", None, None, False),
        "--trials": ("trials", "int", None, None, False),
    },
    "bound": {
        "--d": ("d", "int", None, None, True),
        "--delta": ("delta", "float", None, None, True),
        "--km": ("km", "float", None, None, True),
        "--kr": ("kr", "float", None, None, True),
        "--n": ("n", "int", None, None, True),
        "--perr": ("perr", "float", None, None, True),
        "--train-loss": ("train_loss", "float", 0.0, None, False),
    },
    "eval": {
        "--curve-grid": ("curve_grid", "int", 50, None, False),
        "--curve-out": ("curve_out", None, None, None, False),
        "--data": ("data", None, None, None, True),
        "--model": ("model", None, None, None, True),
    },
    "gen": {
        "--C": ("C", "int", None, None, False),
        "--K": ("K", "int", None, None, False),
        "--U": ("U", "float", None, None, False),
        "--blob-std": ("blob_std", "float", None, None, False),
        "--config": ("config", None, None, None, False),
        "--d": ("d", "int", None, None, False),
        "--distribution": ("distribution", None, None, ("uniform", "gaussian_mixture"), False),
        "--margin": ("margin", "float", None, None, False),
        "--meta": ("meta", None, None, None, False),
        "--n": ("n", "int", None, None, False),
        "--out": ("out", None, None, None, True),
        "--ph0": ("ph0", "float", None, None, False),
        "--ph1": ("ph1", "float", None, None, False),
        "--pm": ("pm", "float", None, None, False),
        "--preset": ("preset", None, None, ("synthetic", "grouped"), False),
        "--seed": ("seed", "int", None, None, False),
        "--std-scale": ("std_scale", "float", None, None, False),
    },
    "milp": {
        "--beta": ("beta", "float", None, None, False),
        "--box": ("box", "float", None, None, False),
        "--config": ("config", None, None, None, False),
        "--data": ("data", None, None, None, True),
        "--gamma": ("gamma", "float", None, None, False),
        "--gap": ("gap", "float", None, None, False),
        "--lambda-reg": ("lambda_reg", "float", None, None, False),
        "--out-record": ("out_record", None, None, None, True),
        "--out-weights": ("out_weights", None, None, None, True),
        "--time-limit": ("time_limit", "float", None, None, False),
    },
    "train": {
        "--alpha-grid": ("alpha_grid", None, None, None, False),
        "--batch-size": ("batch_size", "int", None, None, False),
        "--config": ("config", None, None, None, False),
        "--data": ("data", None, None, None, True),
        "--epochs": ("epochs", "int", None, None, False),
        "--fit-tau": ("fit_tau", None, False, None, False),
        "--hidden": ("hidden", "int", None, None, False),
        "--lr": ("lr", "float", None, None, False),
        "--method": ("method", None, None,
                     ("rs", "rs2", "ce", "ova", "moe", "confidence", "selective", "triage"), True),
        "--out": ("out", None, None, None, True),
        "--seed": ("seed", "int", None, None, False),
        "--val-data": ("val_data", None, None, None, False),
    },
}


def _resolved_text(tmp_path, body):
    """The resolved config `bench` would write for a config file with this body."""
    path = tmp_path / "settings.cfg"
    path.write_text(body)
    args = build_parser().parse_args(["bench", "--config", str(path), "--out-dir", "unused"])
    return _config_text(_bench_values(args, parse_config_file(path)))


class TestSettingsTable:
    def test_every_key_changes_the_resolved_config_and_replays(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DEFERLAB_SEED", raising=False)
        schema = {(section, key) for section, keys in CONFIG_SCHEMA.items() for key in keys}
        assert schema == set(NON_DEFAULT)
        assert _resolved_text(tmp_path, "") != _resolved_text(tmp_path, "[data]\nkind=grouped\n")
        for kind, (_, rows) in DATA_SETTINGS.items():
            own = {row.key for row in rows}
            base = f"[data]\nkind={kind}\n"
            base_text = _resolved_text(tmp_path, base)
            for (section, key), value in NON_DEFAULT.items():
                if section == "data" and key not in own:
                    continue  # kind, or a key of the other kind
                line = f"{key}={value}\n"
                text = _resolved_text(tmp_path, base + (line if section == "data"
                                                        else f"[{section}]\n{line}"))
                assert text != base_text and "\n" + line in text, (kind, section, key)
                assert _resolved_text(tmp_path, text) == text, (kind, section, key)

    def test_flag_surface_is_unchanged(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        surface = {
            name: {a.option_strings[0]: (a.dest, a.type.__name__ if a.type else None, a.default,
                                         None if a.choices is None else tuple(a.choices),
                                         a.required)
                   for a in parser._actions if not isinstance(a, argparse._HelpAction)}
            for name, parser in sub.choices.items()
        }
        assert surface == FLAG_SURFACE

    @pytest.mark.parametrize("section,key", [("train", "seed"), ("eval", "curve_grid"),
                                             ("method", "alpha")])
    def test_removed_keys_are_rejected(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"[{section}]\n{key}=3\n")
        assert run_cli("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 1
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestBound:
    def test_prints_hand_value(self, tmp_path, capsys):
        code = run_cli("bound", "--d", "2", "--n", "100", "--delta", "0.1",
                       "--km", "1", "--kr", "1", "--perr", "0.5", "--train-loss", "0")
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "3.1138"

    @pytest.mark.parametrize("flag", ["--train-loss", "--km", "--kr", "--perr", "--delta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nan_and_infinite_inputs_are_usage_errors(self, capsys, flag, value):
        values = {"--train-loss": "0", "--km": "1", "--kr": "1", "--perr": "0.1", "--delta": "0.1"}
        values[flag] = value
        argv = [f"{k}={v}" for k, v in values.items()] + ["--d", "2", "--n", "100"]
        assert run_cli("bound", *argv) == 1
        captured = capsys.readouterr()
        assert f"{flag} must be finite" in captured.err and captured.out == ""


class TestErrors:
    def test_usage_error_exit_1(self):
        assert run_cli("train", "--data", "x.csv") == 1  # missing --method/--out

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y,h\n1.0,0,1\nnan,1,0\n")
        code = run_cli("eval", "--data", str(bad), "--model", str(bad))
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("[data]\nwidgets=7\n")
        with pytest.raises(Exception):
            parse_config_file(cfgfile)
        code = run_cli("bench", "--config", str(cfgfile), "--out-dir", str(tmp_path / "o"))
        assert code == 1

    def test_unknown_section_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("[deploy]\ntarget=prod\n")
        code = run_cli("bench", "--config", str(cfgfile), "--out-dir", str(tmp_path / "o"))
        assert code == 1

    def test_missing_data_file(self, tmp_path):
        code = run_cli("milp", "--data", str(tmp_path / "nope.csv"),
                       "--out-record", str(tmp_path / "r"), "--out-weights", str(tmp_path / "w"))
        assert code == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_exit_2(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli("gen", "--d", "2", "--n", "60", "--seed", "1", "--out", str(data))
        code = run_cli("train", "--data", str(data), "--method", "rs", "--alpha-grid", "1.0",
                       "--epochs", "5", "--lr", "1e307", "--seed", "0",
                       "--out", str(tmp_path / "m.csv"))
        assert code == 2


class TestTrainSettingChecks:
    """train refuses settings it would otherwise ignore without a word."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "d.csv"
        assert run_cli("gen", "--d", "2", "--n", "60", "--seed", "1", "--out", str(path)) == 0
        return path

    def _train(self, data, out, *extra):
        return run_cli("train", "--data", str(data), "--epochs", "3", "--seed", "0",
                       "--out", str(out), *extra)

    def test_negative_batch_size(self, data, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert self._train(data, out, "--method", "rs2", "--batch-size", "-5") != 0
        assert "batch_size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_nan_or_infinite_learning_rate(self, data, tmp_path, capsys, lr):
        # such a rate used to train and then raise TrainingDiverged (exit 2)
        out = tmp_path / "m.csv"
        assert self._train(data, out, "--method", "rs", "--lr", lr) == 1
        assert "learning_rate must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["rs2", "ova", "moe", "confidence", "selective", "triage"])
    @pytest.mark.parametrize("flag,value", [("--alpha", "0.3"), ("--alpha-grid", "0.0,1.0")])
    def test_alpha_for_a_method_without_one(self, data, tmp_path, capsys, method, flag, value):
        out = tmp_path / "m.csv"
        assert self._train(data, out, "--method", method, flag, value) == 1
        # --alpha is no flag at all, nor a prefix of --alpha-grid
        want = ("unrecognized arguments: --alpha 0.3" if flag == "--alpha"
                else f"does not apply to method={method}")
        assert want in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_from_config_for_a_method_without_one(self, data, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[method]\nalpha_grid=0.3\n")
        out = tmp_path / "m.csv"
        assert self._train(data, out, "--method", "ova", "--config", str(cfgfile)) == 1
        assert "alpha_grid does not apply to method=ova" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["rs", "ce"])
    def test_alpha_with_alpha_grid(self, data, tmp_path, capsys, method):
        # a one-alpha grid trains one alpha; --alpha is gone, alone or beside a grid
        out = tmp_path / "m.csv"
        for extra in (["--alpha", "0.5"], ["--alpha", "0.5", "--alpha-grid", "0.0,1.0"]):
            assert self._train(data, out, "--method", method, *extra) == 1
            assert "unrecognized arguments: --alpha 0.5" in capsys.readouterr().err
            assert not out.exists()
        assert self._train(data, out, "--method", method, "--alpha-grid", "0.5") == 0
        assert self._train(data, out, "--method", method, "--alpha-grid", "0.0,1.0") == 0


class TestConfigParsing:
    def test_sections_and_comments(self, tmp_path):
        cfgfile = tmp_path / "ok.cfg"
        cfgfile.write_text(
            "# comment\n[data]\nd=4  # inline comment\nn=100\n\n[train]\nepochs=7\n"
        )
        cfg = parse_config_file(cfgfile)
        assert cfg["data"]["d"] == "4"
        assert cfg["train"]["epochs"] == "7"

    def test_key_outside_section(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("d=4\n")
        with pytest.raises(Exception, match="line 1"):
            parse_config_file(cfgfile)
