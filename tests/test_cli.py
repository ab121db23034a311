"""Command-line surface: verbs, flags, exit codes, JSON parity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stnet
from stnet import arch, cli

MICRO_ARCH = """\
name = micro
t = 2
n = 2
height = 12
width = 12
num_classes = 3
head = txb
txb_channels = 8
tm_after = 1
enable_superimage = true
enable_tm = true
enable_txb = true
stages.0.kind = conv
stages.0.channels = 6
stages.0.stride = 1
stages.0.repeat = 1
stages.1.kind = basic
stages.1.channels = 8
stages.1.stride = 2
stages.1.repeat = 1
"""

MICRO_SYNTH = """\
classes = left_right, right_left, static_a
clips_per_class = 4
frames = 8
height = 12
width = 12
object_scale = 4
noise = 8
"""


@pytest.fixture
def micro_files(tmp_path):
    spec = tmp_path / "micro.arch"
    spec.write_text(MICRO_ARCH)
    synth = tmp_path / "synth.cfg"
    synth.write_text(MICRO_SYNTH)
    return spec, synth


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_txb_head_total(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "--spec", "txb-head-irv2")
        assert code == 0
        assert "4,620,688" in out

    def test_resnet50_with_overrides(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "--spec", "stnet-resnet50",
                               "--t", "25", "--n", "5", "--res", "256")
        assert code == 0
        assert "33,153,232" in out

    def test_json_matches_table_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "--spec", "stnet-toy", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_params"] == sum(l["params"] for l in doc["layers"])
        code, table, _ = run_cli(capsys, "describe", "--spec", "stnet-toy")
        assert f"{doc['total_params']:,}" in table

    def test_unknown_preset_lists_available(self, capsys):
        code, _, err = run_cli(capsys, "describe", "--spec", "no-such-preset")
        assert code == 1
        assert "stnet-resnet50" in err


class TestGenData:
    def test_same_seed_same_bytes(self, capsys, tmp_path, micro_files):
        _, synth = micro_files
        a, b = tmp_path / "a.stvd", tmp_path / "b.stvd"
        code1, out, _ = run_cli(capsys, "gen-data", "--config", str(synth),
                                "--out", str(a), "--seed", "7")
        code2, _, _ = run_cli(capsys, "gen-data", "--config", str(synth),
                              "--out", str(b), "--seed", "7")
        assert code1 == code2 == 0
        assert "seed: 7" in out
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_default(self, capsys, tmp_path, micro_files, monkeypatch):
        _, synth = micro_files
        monkeypatch.setenv("STNET_SEED", "123")
        code, out, _ = run_cli(capsys, "gen-data", "--config", str(synth),
                               "--out", str(tmp_path / "c.stvd"))
        assert code == 0
        assert "seed: 123" in out


class TestTrainEvalAblate:
    def test_train_then_eval(self, capsys, tmp_path, micro_files):
        spec, synth = micro_files
        ds = tmp_path / "ds.stvd"
        assert run_cli(capsys, "gen-data", "--config", str(synth),
                       "--out", str(ds), "--seed", "1")[0] == 0
        ckpt = tmp_path / "model.stnc"
        code, out, _ = run_cli(capsys, "train", "--spec", str(spec),
                               "--data", str(ds), "--out", str(ckpt),
                               "--epochs", "2", "--batch-size", "4",
                               "--lr", "0.02", "--seed", "1")
        assert code == 0
        assert "seed: 1" in out and "final loss" in out
        assert ckpt.exists() and (tmp_path / "model.stnc.arch").exists()

        code, out, _ = run_cli(capsys, "eval", "--model", str(ckpt),
                               "--data", str(ds), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 12
        assert 0.0 <= doc["top1"] <= 1.0
        code, table, _ = run_cli(capsys, "eval", "--model", str(ckpt),
                                 "--data", str(ds))
        assert code == 0
        assert f"{doc['top1']:.4f}" in table

    def test_eval_without_arch_file(self, capsys, tmp_path, micro_files):
        spec, synth = micro_files
        ds = tmp_path / "ds.stvd"
        run_cli(capsys, "gen-data", "--config", str(synth), "--out", str(ds))
        code, _, err = run_cli(capsys, "eval", "--model",
                               str(tmp_path / "ghost.stnc"), "--data", str(ds))
        assert code == 1
        assert "architecture" in err

    def test_ablate_writes_four_row_report(self, capsys, tmp_path, micro_files):
        spec, synth = micro_files
        ds = tmp_path / "ds.stvd"
        run_cli(capsys, "gen-data", "--config", str(synth), "--out", str(ds),
                "--seed", "2")
        report = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "ablate", "--data", str(ds),
                               "--spec", str(spec), "--out", str(report),
                               "--epochs", "1", "--batch-size", "4", "--seed", "2")
        assert code == 0
        doc = json.loads(report.read_text())
        assert [tuple(r["toggles"].values()) for r in doc] == [
            (False, False, False), (True, False, False),
            (True, True, False), (True, True, True)]
        assert "superimage" in out  # table printed


class TestGradcheckCommand:
    def test_single_op(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--op", "relu",
                               "--instances", "2", "--seed", "0")
        assert code == 0
        assert "relu" in out and "PASS" in out

    def test_unknown_op(self, capsys):
        code, _, err = run_cli(capsys, "gradcheck", "--op", "bogus")
        assert code == 1
        assert "unknown op" in err


def test_unknown_verb_and_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["disassemble"])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["describe", "--spec", "stnet-toy", "--frobnicate"])
    assert exc.value.code != 0


def test_console_script_runs():
    # The child imports the stnet this suite imported, installed or not.
    src = str(Path(stnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "stnet.cli", "describe", "--spec", "txb-head-irv2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "4,620,688" in proc.stdout


def test_config_file_with_flag_precedence(capsys, tmp_path, micro_files):
    spec, synth = micro_files
    ds = tmp_path / "ds.stvd"
    run_cli(capsys, "gen-data", "--config", str(synth), "--out", str(ds))
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("epochs = 5\nbatch_size = 4\nlr = 0.01\nseed = 9\n")
    ckpt = tmp_path / "m.stnc"
    code, out, _ = run_cli(capsys, "train", "--spec", str(spec),
                           "--data", str(ds), "--config", str(train_cfg),
                           "--out", str(ckpt), "--epochs", "1")
    assert code == 0
    assert "seed: 9" in out            # from the file
    assert out.count("epoch ") == 1    # flag overrode the file's 5 epochs


def test_config_line_without_equals_names_file_and_line(capsys, tmp_path, micro_files):
    spec, synth = micro_files
    ds = tmp_path / "ds.stvd"
    run_cli(capsys, "gen-data", "--config", str(synth), "--out", str(ds))
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("# comment\n\nepochs = 1\nbatch_size 4\n")
    code, _, err = run_cli(capsys, "train", "--spec", str(spec), "--data", str(ds),
                           "--config", str(train_cfg), "--out", str(tmp_path / "m.stnc"))
    assert code == 1
    assert f"{train_cfg}: line 4:" in err


def test_non_finite_config_lr_rejected_before_training(capsys, tmp_path, micro_files):
    spec, synth = micro_files
    ds = tmp_path / "ds.stvd"
    run_cli(capsys, "gen-data", "--config", str(synth), "--out", str(ds))
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("epochs = 1\nbatch_size = 4\nlr = nan\n")
    ckpt = tmp_path / "m.stnc"
    code, out, err = run_cli(capsys, "train", "--spec", str(spec), "--data", str(ds),
                             "--config", str(train_cfg), "--out", str(ckpt))
    assert code == 1
    assert "lr: must be finite and > 0, got nan" in err
    assert "final loss" not in out and not ckpt.exists()


@pytest.mark.parametrize("command, line, message", [
    ("train", "epochs = abc", "epochs: expected an integer, got 'abc'"),
    ("train", "lr = fast", "lr: expected a number, got 'fast'"),
    ("train", "lr_steps = 1,x", "lr_steps: expected an integer, got 'x'"),
    ("gen-data", "clips_per_class = 1.5", "clips_per_class: expected an integer, got '1.5'"),
], ids=["epochs", "lr", "lr_steps", "clips_per_class"])
def test_bad_config_value_names_file_and_key(capsys, tmp_path, micro_files,
                                             command, line, message):
    spec, _ = micro_files
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"seed = 1\n{line}\n")
    data_args = ["--spec", str(spec), "--data", str(tmp_path / "ds.stvd")] \
        if command == "train" else []
    code, _, err = run_cli(capsys, command, *data_args, "--config", str(bad),
                           "--out", str(tmp_path / "out"))
    assert code == 1
    assert f"{bad}: {message}" in err
