import json
import os
import subprocess
import sys

import numpy as np
import pytest

from deferlab.cli import load_model_file, main, parse_config_file
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

    def test_flags_accepted(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli("gen", "--d", "2", "--n", "12", "--seed", "1", "--out", str(data))
        code = run_cli("milp", "--data", str(data), "--beta", "0.5",
                       "--time-limit", "60", "--gap", "0.05",
                       "--out-record", str(tmp_path / "r.json"),
                       "--out-weights", str(tmp_path / "w.csv"))
        assert code == 0


class TestTrainEvalRoundTrip:
    def test_pipeline_consumes_own_files(self, tmp_path):
        data = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        run_cli("gen", "--d", "3", "--n", "300", "--seed", "5", "--margin", "0.2",
                "--std-scale", "0.3", "--out", str(data))
        run_cli("gen", "--d", "3", "--n", "200", "--seed", "6", "--margin", "0.2",
                "--std-scale", "0.3", "--out", str(test))
        model = tmp_path / "model.csv"
        code = run_cli("train", "--data", str(data), "--method", "rs", "--alpha", "1.0",
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

    def test_reproducible_from_resolved_config(self, tmp_path):
        args = ["bench", "--methods", "selective", "--trials", "1", "--seed", "9",
                "--d", "3", "--n", "150", "--epochs", "5"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*args, "--out-dir", str(out1)) == 0
        assert run_cli(*args, "--out-dir", str(out2)) == 0
        assert (out1 / "results.csv").read_text() == (out2 / "results.csv").read_text()


class TestBound:
    def test_prints_hand_value(self, tmp_path, capsys):
        code = run_cli("bound", "--d", "2", "--n", "100", "--delta", "0.1",
                       "--km", "1", "--kr", "1", "--perr", "0.5", "--train-loss", "0")
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "3.1138"


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
        code = run_cli("train", "--data", str(data), "--method", "rs", "--alpha", "1.0",
                       "--epochs", "5", "--lr", "1e307", "--seed", "0",
                       "--out", str(tmp_path / "m.csv"))
        assert code == 2


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
