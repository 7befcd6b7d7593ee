import hashlib
import json
import os
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from sigfuse.cli import main
from sigfuse.data import FeatureBank, load_bank, save_bank, write_pgm
from sigfuse.model import PROFILES, build_net, save_model
from sigfuse.nn import make_rng


def run(argv):
    return main(argv)


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run(["synth", "--out-dir", str(out), "--latent-dim", "6",
                "--view", "fv:10:0.05", "--view", "cnn:8:0.15", "--view", "lbp:6:0.4",
                "--attributes", "4", "--train-count", "120", "--val-count", "40",
                "--test-count", "40", "--seed", "5"])
    assert code == 0
    return out


def train_args(synth_dir, out, regime="dedicated:fv", extra=()):
    return ["train", "--regime", regime,
            "--attrs", str(synth_dir / "attrs.txt"),
            "--split-file", str(synth_dir / "partition.txt"),
            "--bank", f"fv={synth_dir / 'fv.fbnk'}",
            "--bank", f"cnn={synth_dir / 'cnn.fbnk'}",
            "--bank", f"lbp={synth_dir / 'lbp.fbnk'}",
            "--profile", "desk", "--epochs", "3", "--batch-size", "32",
            "--lr", "0.05", "--seed", "1", "--out", str(out), *extra]


class TestSynth:
    def test_writes_expected_artifacts(self, synth_dir):
        for name in ("attrs.txt", "partition.txt", "fv.fbnk", "cnn.fbnk",
                     "lbp.fbnk", "manifest.json"):
            assert (synth_dir / name).exists()

    def test_rerun_identical(self, synth_dir, tmp_path):
        other = tmp_path / "data2"
        run(["synth", "--out-dir", str(other), "--latent-dim", "6",
             "--view", "fv:10:0.05", "--view", "cnn:8:0.15", "--view", "lbp:6:0.4",
             "--attributes", "4", "--train-count", "120", "--val-count", "40",
             "--test-count", "40", "--seed", "5"])
        for name in ("attrs.txt", "fv.fbnk", "cnn.fbnk", "lbp.fbnk"):
            assert (synth_dir / name).read_bytes() == (other / name).read_bytes()

    def test_invalid_spec_is_usage_error(self, tmp_path):
        code = run(["synth", "--out-dir", str(tmp_path / "x"),
                    "--view", "fv:0:0.1"])
        assert code == 2


class TestTrain:
    def test_writes_model_log_manifest(self, synth_dir, tmp_path):
        out = tmp_path / "model.hnet"
        assert run(train_args(synth_dir, out, "multistage:fv")) == 0
        assert out.exists()
        assert out.with_suffix(".hnet.log.csv").exists()
        manifest = json.loads(out.with_suffix(".hnet.manifest.json").read_text())
        assert manifest["config"]["regime"] == "multistage:fv"
        assert manifest["artifacts"]["model_sha256"]

    def test_unknown_regime_usage_error(self, synth_dir, tmp_path):
        code = run(train_args(synth_dir, tmp_path / "m.hnet", "boosting"))
        assert code == 2

    def test_manifest_replay_byte_identical(self, synth_dir, tmp_path):
        out1 = tmp_path / "m1.hnet"
        assert run(train_args(synth_dir, out1, "moddrop")) == 0
        manifest = out1.with_suffix(".hnet.manifest.json")
        out2 = tmp_path / "m2.hnet"
        assert run(["train", "--from-manifest", str(manifest),
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flag,value", [("--lr", "-1"), ("--batch-size", "0")])
    def test_invalid_config_usage_error(self, synth_dir, tmp_path, flag, value):
        assert run(train_args(synth_dir, tmp_path / "m.hnet", extra=(flag, value))) == 2

    def test_diverged_training_runtime_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "m.hnet"
        with np.errstate(all="ignore"):
            code = run(train_args(synth_dir, out, "multistage:fv", extra=("--lr", "1e6")))
        assert code == 4
        assert "layer parameters must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_bank_is_data_error(self, synth_dir, tmp_path):
        args = train_args(synth_dir, tmp_path / "m.hnet")
        idx = args.index(f"fv={synth_dir / 'fv.fbnk'}")
        args[idx] = f"fv={synth_dir / 'nope.fbnk'}"
        assert run(args) == 3


class TestEval:
    def test_seven_row_report(self, synth_dir, tmp_path):
        out = tmp_path / "model.hnet"
        assert run(train_args(synth_dir, out, "allfeat")) == 0
        prefix = tmp_path / "report"
        args = ["eval", "--model", str(out),
                "--attrs", str(synth_dir / "attrs.txt"),
                "--split-file", str(synth_dir / "partition.txt"),
                "--bank", f"fv={synth_dir / 'fv.fbnk'}",
                "--bank", f"cnn={synth_dir / 'cnn.fbnk'}",
                "--bank", f"lbp={synth_dir / 'lbp.fbnk'}",
                "--split", "test", "--out-prefix", str(prefix)]
        assert run(args) == 0
        csv_text = (tmp_path / "report.csv").read_text()
        mean_rows = [l for l in csv_text.splitlines() if ",mean_ap," in l]
        assert len(mean_rows) == 7
        first = (tmp_path / "report.csv").read_bytes()
        assert run(args) == 0
        assert (tmp_path / "report.csv").read_bytes() == first

    def test_missing_kind_bank_named(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "model.hnet"
        assert run(train_args(synth_dir, out, "allfeat")) == 0
        args = ["eval", "--model", str(out),
                "--attrs", str(synth_dir / "attrs.txt"),
                "--split-file", str(synth_dir / "partition.txt"),
                "--bank", f"fv={synth_dir / 'fv.fbnk'}",
                "--bank", f"cnn={synth_dir / 'cnn.fbnk'}",
                "--split", "test", "--out-prefix", str(tmp_path / "r")]
        assert run(args) == 3
        assert "lbp" in capsys.readouterr().err


class TestExtractLbp:
    def test_bank_dim_and_determinism(self, tmp_path):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = make_rng(44)
        for i in range(3):
            write_pgm(img_dir / f"face_{i}.pgm",
                      rng.integers(0, 256, size=(218, 178)).astype(np.uint8))
        out = tmp_path / "lbp.fbnk"
        assert run(["extract-lbp", "--images", str(img_dir), "--cell-size", "20",
                    "--out", str(out)]) == 0
        bank = load_bank(out)
        assert bank.dim == 4640 and len(bank.entries) == 3
        first = out.read_bytes()
        assert run(["extract-lbp", "--images", str(img_dir), "--cell-size", "20",
                    "--out", str(out)]) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("exists", [True, False])
    def test_dir_without_images_is_data_error(self, tmp_path, capsys, exists):
        img_dir = tmp_path / "empty"
        if exists:
            img_dir.mkdir()
            (img_dir / "notes.txt").write_text("not an image")
        out = tmp_path / "e.fbnk"
        assert run(["extract-lbp", "--images", str(img_dir), "--out", str(out)]) == 3
        assert f"no .pgm images in {img_dir}" in capsys.readouterr().err
        assert not out.exists()

    def test_inconsistent_sizes_rejected(self, tmp_path):
        img_dir = tmp_path / "mixed"
        img_dir.mkdir()
        write_pgm(img_dir / "a.pgm", np.zeros((40, 40), dtype=np.uint8))
        write_pgm(img_dir / "b.pgm", np.zeros((41, 40), dtype=np.uint8))
        assert run(["extract-lbp", "--images", str(img_dir), "--cell-size", "10",
                    "--out", str(tmp_path / "x.fbnk")]) == 3


class TestServeQuery:
    def test_loopback_roundtrip(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "model.hnet"
        assert run(train_args(synth_dir, out, "allfeat")) == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "sigfuse.cli", "serve", "--model", str(out),
             "--port", "0"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            endpoint = line.strip().rsplit(" ", 1)[-1]
            args = ["query", "--model", str(out), "--endpoint", endpoint,
                    "--mask", "fv,lbp",
                    "--bank", f"fv={synth_dir / 'fv.fbnk'}",
                    "--bank", f"lbp={synth_dir / 'lbp.fbnk'}",
                    "--id", "synth_000000"]
            assert run(args) == 0
            captured = capsys.readouterr()
            assert "FxL" in captured.err
            scores = [float(l.split()[1]) for l in captured.out.splitlines()
                      if l.startswith("attr_")]
            assert len(scores) == 4
            assert all(0 < s < 1 for s in scores)
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_query_missing_bank_for_mask(self, synth_dir, tmp_path):
        out = tmp_path / "model.hnet"
        assert run(train_args(synth_dir, out, "allfeat")) == 0
        args = ["query", "--model", str(out), "--endpoint", "127.0.0.1:1",
                "--mask", "fv,lbp",
                "--bank", f"fv={synth_dir / 'fv.fbnk'}",
                "--id", "synth_000000"]
        assert run(args) == 3

    def test_serve_requires_model(self):
        assert run(["serve"]) == 2


class TestPortArguments:
    """A port outside 0..65535 (serve) or 1..65535 (query) is a usage
    error, whether it comes from a flag, the environment or an endpoint."""

    @pytest.fixture
    def model(self, tmp_path):
        path = tmp_path / "m.hnet"
        save_model(build_net([("fv", 4)], PROFILES["desk"], seed=0), path)
        return path

    @pytest.mark.parametrize("flag, env", [
        ("99999", None), ("65536", None), ("-1", None), ("abc", None),
        (None, "abc"), (None, "99999"), (None, "-5"), (None, "1.5"),
    ])
    def test_serve(self, model, monkeypatch, capsys, flag, env):
        if env is not None:
            monkeypatch.setenv("SIGFUSE_PORT", env)
        argv = ["serve", "--model", str(model)] + (["--port", flag] if flag else [])
        assert run(argv) == 2
        assert "expected a port in 0..65535" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:99999", "127.0.0.1:0",
                                          "127.0.0.1:abc", "127.0.0.1:", "127.0.0.1:-1"])
    def test_query_endpoint(self, model, tmp_path, capsys, endpoint):
        bank = tmp_path / "fv.fbnk"
        save_bank(FeatureBank("fv", 4, {"a": np.zeros(4, dtype=np.float32)}), bank)
        assert run(["query", "--model", str(model), "--endpoint", endpoint,
                    "--mask", "fv", "--bank", f"fv={bank}", "--id", "a"]) == 2
        assert "expected a port in 1..65535" in capsys.readouterr().err


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2


class TestNonFiniteConfig:
    @pytest.mark.parametrize("flag", ["--lr", "--momentum", "--weight-decay"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_usage_error_before_training(self, synth_dir, tmp_path, monkeypatch, capsys,
                                         flag, value):
        import sigfuse.cli as cli
        monkeypatch.setattr(cli, "run_schedule",
                            lambda *a, **kw: pytest.fail("training started"))
        out = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, out, "allfeat", extra=(flag, value))) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestExitClasses:
    """Bad arguments and argument files are usage errors (exit 2), found
    before any data is read or anything trains."""

    def test_non_integer_seed_env(self, synth_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIGFUSE_SEED", "abc")
        args = train_args(synth_dir, tmp_path / "m.hnet")
        del args[args.index("--seed"):args.index("--seed") + 2]
        assert run(args) == 2
        assert "SIGFUSE_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("view", ["fv:abc:0.1", "fv:10:abc", "fv:1.5:0.1",
                                      "fv:10:nan", "fv:10:inf"])
    def test_non_numeric_view(self, tmp_path, capsys, view):
        assert run(["synth", "--out-dir", str(tmp_path / "x"), "--view", view]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("images", [0, 1])
    @pytest.mark.parametrize("cell", ["0", "-3"])
    def test_non_positive_cell_size(self, tmp_path, monkeypatch, capsys, images, cell):
        import sigfuse.cli as cli
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        for i in range(images):
            write_pgm(img_dir / f"face_{i}.pgm", np.zeros((20, 20), dtype=np.uint8))
        monkeypatch.setattr(cli.data_mod, "read_pgm",
                            lambda path: pytest.fail("an image was read"))
        out = tmp_path / "x.fbnk"
        assert run(["extract-lbp", "--images", str(img_dir), "--cell-size", cell,
                    "--out", str(out)]) == 2
        assert "--cell-size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "\xff"])
    def test_config_that_is_not_a_json_object(self, synth_dir, tmp_path, text):
        config = tmp_path / "c.json"
        config.write_bytes(text.encode("latin-1"))
        assert run(train_args(synth_dir, tmp_path / "m.hnet",
                              extra=("--config", str(config)))) == 2

    def test_config_value_of_wrong_type(self, synth_dir, tmp_path, monkeypatch):
        import sigfuse.cli as cli
        monkeypatch.setattr(cli, "run_schedule",
                            lambda *a, **kw: pytest.fail("training started"))
        config = tmp_path / "c.json"
        config.write_text('{"momentum": "high"}')
        assert run(train_args(synth_dir, tmp_path / "m.hnet",
                              extra=("--config", str(config)))) == 2

    @pytest.fixture
    def manifest(self, synth_dir, tmp_path):
        out = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, out, extra=("--epochs", "1"))) == 0
        return json.loads(out.with_suffix(".hnet.manifest.json").read_text())

    @pytest.mark.parametrize("drop", ["config", "attrs", "banks", "lr", "regime", "profile"])
    def test_manifest_lacking_a_field(self, manifest, tmp_path, capsys, drop):
        if drop == "config":
            del manifest["config"]
        else:
            del manifest["config"][drop]
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "replay.hnet"
        assert run(["train", "--from-manifest", str(path), "--out", str(out)]) == 2
        assert drop in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_that_is_not_json(self, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text("not json")
        assert run(["train", "--from-manifest", str(path),
                    "--out", str(tmp_path / "m.hnet")]) == 2


class TestConfigValueTypes:
    """regime, profile, attrs and split must be strings and banks an object
    of kind name -> path; another type, from --config or from a replayed
    manifest, is a usage error naming the key, found before any data is
    read."""

    BAD = [("profile", ["desk"]), ("banks", ["fv"]), ("banks", {"fv": 3}),
           ("banks", {"fv": ""}), ("regime", 5), ("attrs", 5), ("split", ["p.txt"])]

    @pytest.fixture
    def config(self, synth_dir, monkeypatch):
        import sigfuse.cli as cli
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("data was read"))
        return {"regime": "dedicated:fv", "profile": "desk", "seed": 1, "lr": 0.05,
                "batch_size": 32, "epochs": 1, "momentum": 0.9, "weight_decay": 0.0,
                "attrs": str(synth_dir / "attrs.txt"),
                "split": str(synth_dir / "partition.txt"),
                "banks": {k: str(synth_dir / f"{k}.fbnk") for k in ("fv", "cnn", "lbp")}}

    @pytest.mark.parametrize("source", ["--config", "--from-manifest"])
    @pytest.mark.parametrize("key, value", BAD)
    def test_usage_error_naming_the_key(self, config, tmp_path, capsys, source, key, value):
        config[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config if source == "--config" else {"config": config}))
        out = tmp_path / "m.hnet"
        assert run(["train", source, str(path), "--out", str(out)]) == 2
        assert f"config {key} " in capsys.readouterr().err
        assert not out.exists()


class TestEmptyOrUnknownInputs:
    """A query mask that names no kind of the model, and a synth run with
    no examples, are usage errors found before anything is read or
    written."""

    @pytest.mark.parametrize("mask, named", [("zz", "zz"), ("fv,zz", "zz"),
                                             ("", "nonempty"), (" , ", "nonempty")])
    def test_query_mask(self, tmp_path, monkeypatch, capsys, mask, named):
        import sigfuse.cli as cli
        model = tmp_path / "m.hnet"
        save_model(build_net([("fv", 4)], PROFILES["desk"], seed=0), model)
        bank = tmp_path / "zz.fbnk"
        save_bank(FeatureBank("zz", 4, {"a": np.zeros(4, dtype=np.float32)}), bank)
        monkeypatch.setattr(cli, "load_bank", lambda path: pytest.fail("a bank was read"))
        assert run(["query", "--model", str(model), "--endpoint", "127.0.0.1:1",
                    "--mask", mask, "--bank", f"zz={bank}", "--id", "a"]) == 2
        err = capsys.readouterr().err
        assert "--mask" in err and named in err

    @pytest.mark.parametrize("counts", [("0", "0", "0"), ("-1", "1", "0"), ("5", "-1", "0")])
    def test_synth_without_examples(self, tmp_path, capsys, counts):
        out = tmp_path / "x"
        assert run(["synth", "--out-dir", str(out), "--train-count", counts[0],
                    "--val-count", counts[1], "--test-count", counts[2]]) == 2
        assert "split counts" in capsys.readouterr().err
        assert not out.exists()


class TestNumericConfigTypes:
    """seed, epochs and batch_size must be integers and lr, momentum and
    weight_decay numbers; a JSON boolean is neither. Another type, from
    --config or from a replayed manifest, is a usage error naming the key,
    found before any data is read."""

    BAD = [("epochs", True), ("seed", False), ("batch_size", True), ("lr", True),
           ("momentum", False), ("weight_decay", True), ("epochs", 2.0), ("seed", "1"),
           ("lr", "0.1"), ("batch_size", None),
           pytest.param("lr", 10 ** 400, id="lr-int-beyond-float")]

    @pytest.fixture
    def config(self, synth_dir, monkeypatch):
        import sigfuse.cli as cli
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("data was read"))
        return {"regime": "dedicated:fv", "profile": "desk", "seed": 1, "lr": 0.05,
                "batch_size": 32, "epochs": 1, "momentum": 0.9, "weight_decay": 0,
                "attrs": str(synth_dir / "attrs.txt"),
                "split": str(synth_dir / "partition.txt"),
                "banks": {k: str(synth_dir / f"{k}.fbnk") for k in ("fv", "cnn", "lbp")}}

    @pytest.mark.parametrize("source", ["--config", "--from-manifest"])
    @pytest.mark.parametrize("key, value", BAD)
    def test_usage_error_naming_the_key(self, config, tmp_path, capsys, source, key, value):
        config[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config if source == "--config" else {"config": config}))
        out = tmp_path / "m.hnet"
        assert run(["train", source, str(path), "--out", str(out)]) == 2
        assert f"config {key} must be " in capsys.readouterr().err
        assert not list(tmp_path.glob("m.hnet*"))

    def test_booleans_beside_flags(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"epochs": true, "seed": false}')
        args = train_args(synth_dir, tmp_path / "m.hnet", extra=("--config", str(config)))
        for flag in ("--epochs", "--seed"):
            del args[args.index(flag):args.index(flag) + 2]
        assert run(args) == 2
        assert "config seed must be an integer, got False" in capsys.readouterr().err
        assert not list(tmp_path.glob("m.hnet*"))


def rewrite_split_labels(synth_dir, split_id: str, *, empty: bool):
    """Move the examples of split `split_id` (0 train, 1 val, 2 test) to
    another split, or clear every attribute of them."""
    partition = synth_dir / "partition.txt"
    pairs = [line.split() for line in partition.read_text().splitlines()]
    chosen = {i for i, s in pairs if s == split_id}
    if empty:
        other = "0" if split_id == "2" else "2"
        partition.write_text("".join(f"{i} {other if s == split_id else s}\n"
                                     for i, s in pairs))
        return
    attrs = synth_dir / "attrs.txt"
    head, names, *rows = attrs.read_text().splitlines()
    rows = [row.split()[0] + " -1" * len(names.split()) if row.split()[0] in chosen else row
            for row in rows]
    attrs.write_text("\n".join([head, names, *rows]) + "\n")


class TestUndefinedValidation:
    """A val split without examples or without a positive label is a data
    error (exit 3) found before the net is built; so is such an eval split."""

    @pytest.mark.parametrize("empty", [True, False])
    def test_train_exits_3_before_building_the_net(self, synth_dir, tmp_path, monkeypatch,
                                                   capsys, empty):
        import sigfuse.training as training
        monkeypatch.setattr(training, "build_net", lambda *a: pytest.fail("net was built"))
        rewrite_split_labels(synth_dir, "1", empty=empty)
        out = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, out, "allfeat")) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "split 'val'" in err
        assert not list(tmp_path.glob("m.hnet*"))

    @pytest.mark.parametrize("empty, named", [(True, "split 'test' has no examples"),
                                              (False, "undefined AP")])
    def test_eval_exits_3(self, synth_dir, tmp_path, capsys, empty, named):
        model = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, model, "allfeat", extra=("--epochs", "1"))) == 0
        rewrite_split_labels(synth_dir, "2", empty=empty)
        prefix = tmp_path / "report"
        assert run(["eval", "--model", str(model),
                    "--attrs", str(synth_dir / "attrs.txt"),
                    "--split-file", str(synth_dir / "partition.txt"),
                    "--bank", f"fv={synth_dir / 'fv.fbnk'}",
                    "--bank", f"cnn={synth_dir / 'cnn.fbnk'}",
                    "--bank", f"lbp={synth_dir / 'lbp.fbnk'}",
                    "--split", "test", "--out-prefix", str(prefix)]) == 3
        assert named in capsys.readouterr().err
        assert not list(tmp_path.glob("report*"))


class TestKindLimit:
    """`train` with more than 8 banks is a usage error found before any
    file is read: the attribute, split and bank paths here do not exist."""

    def test_nine_bank_flags(self, tmp_path, capsys):
        args = ["train", "--regime", "allfeat", "--attrs", str(tmp_path / "none.txt"),
                "--split-file", str(tmp_path / "none.txt"), "--out", str(tmp_path / "m.hnet")]
        for i in range(9):
            args += ["--bank", f"k{i}={tmp_path / f'k{i}.fbnk'}"]
        assert run(args) == 2
        assert "9 kinds; a net holds at most 8" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_nine_banks_in_a_config(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "regime": "allfeat", "attrs": str(tmp_path / "none.txt"),
            "split": str(tmp_path / "none.txt"),
            "banks": {f"k{i}": str(tmp_path / f"k{i}.fbnk") for i in range(9)}}))
        assert run(["train", "--config", str(config), "--out", str(tmp_path / "m.hnet")]) == 2
        assert "9 kinds; a net holds at most 8" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


class TestFinalGuard:
    """An exception of no mapped class exits 4 with one `error:` line naming
    its type, never a traceback and exit 1."""

    @pytest.mark.parametrize("exc, line", [
        (KeyError("attrs"), "error: KeyError: 'attrs'"),
        (TypeError("bad\noperand"), "error: TypeError: bad operand"),
        (RuntimeError("boom"), "error: RuntimeError: boom"),
    ])
    def test_unmapped_exception_exits_4(self, tmp_path, monkeypatch, capsys, exc, line):
        import sigfuse.cli as cli

        def raising(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_synth", raising)
        assert run(["synth", "--out-dir", str(tmp_path / "d")]) == 4
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert "Traceback" not in captured.out + captured.err


class TestRefusedBeforeAnyRead:
    """Every train setting and the regime are checked before any file is
    read: the data paths here do not exist, and reading one fails."""

    @pytest.mark.parametrize("regime, extra, env, named", [
        ("allfeat", ("--lr", "nan"), None, "config lr must be finite"),
        ("allfeat", ("--batch-size", "0"), None, "config batch_size must be >= 1"),
        ("allfeat", ("--seed", "-1"), None, "config seed must be >= 0"),
        ("allfeat", (), "-1", "config seed must be >= 0"),
        ("nope", (), None, "unknown regime 'nope'"),
        ("dedicated:zz", (), None, "no bank for kind 'zz'"),
    ])
    def test_usage_error(self, tmp_path, monkeypatch, capsys, regime, extra, env, named):
        import sigfuse.cli as cli
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("data was read"))
        args = train_args(tmp_path / "absent", tmp_path / "m.hnet", regime, extra)
        if env is not None:
            monkeypatch.setenv("SIGFUSE_SEED", env)
            del args[args.index("--seed"):args.index("--seed") + 2]
        assert run(args) == 2
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_synth_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["synth", "--out-dir", str(out), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteBankVector:
    """A bank file holding a NaN vector is a data error (exit 3), blamed
    on the data, whether it is read to train or to evaluate."""

    @staticmethod
    def poison(path, img_id):
        from sigfuse.data import bank_to_bytes
        bank = load_bank(path)
        bank.matrix = bank.matrix.copy()
        bank.matrix[bank.rows[img_id], 0] = np.nan
        path.write_bytes(bank_to_bytes(bank))

    def test_train(self, synth_dir, tmp_path, capsys):
        self.poison(synth_dir / "cnn.fbnk", "synth_000000")  # a train example
        out = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, out, "allfeat")) == 3
        assert "entry 'synth_000000' contains non-finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_eval(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, model, "allfeat", extra=("--epochs", "1"))) == 0
        self.poison(synth_dir / "lbp.fbnk", "synth_000199")  # a test example
        prefix = tmp_path / "report"
        assert run(["eval", "--model", str(model), "--attrs", str(synth_dir / "attrs.txt"),
                    "--split-file", str(synth_dir / "partition.txt"),
                    *(f"--bank={k}={synth_dir / k}.fbnk" for k in ("fv", "cnn", "lbp")),
                    "--out-prefix", str(prefix)]) == 3
        assert "entry 'synth_000199' contains non-finite values" in capsys.readouterr().err
        assert not prefix.with_suffix(".csv").exists()


class TestSynthNoiseBeyondFloat32:
    """A view noise whose values do not fit float32 is a usage error that
    names the view and its noise, with no numpy warning and no file."""

    @pytest.mark.parametrize("noise", ["1e300", "1.7e308"])
    def test_usage_error(self, tmp_path, capsys, noise):
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would make this exit 4
            code = run(["synth", "--out-dir", str(out), "--view", "cnn:4:0.1",
                        "--view", f"fv:10:{noise}"])
        assert code == 2
        assert (f"usage error: view 'fv' noise {float(noise):g} takes values beyond "
                "float32 range") in capsys.readouterr().err
        assert not out.exists()

    def test_large_noise_that_fits(self, tmp_path):
        assert run(["synth", "--out-dir", str(tmp_path / "x"), "--view", "fv:10:1e30",
                    "--train-count", "8", "--val-count", "4", "--test-count", "4"]) == 0


def first_matrix_at(data) -> int:
    """Offset of the first matrix's u32 row count in an HNET file: past the
    magic, version, kind count and each kind's name and dim."""
    pos = 10
    for _ in range(struct.unpack_from("<I", data, 6)[0]):
        pos += 2 + struct.unpack_from("<H", data, pos)[0] + 4
    return pos


class TestExitClassTable:
    """Each malformed input exits with its class (2 usage, 3 data) and
    one line naming what is wrong, before any connection is made."""

    @pytest.fixture
    def paths(self, tmp_path):
        """A desk model of kinds fv (dim 4) and cnn (dim 3), banks of the
        right and wrong kind and dim, broken copies of the model, configs
        missing a regime or naming an unknown profile, and a PGM whose
        header holds a word."""
        p = {k: tmp_path / k for k in ("m.hnet", "fv.fbnk", "lbp.fbnk", "fv5.fbnk",
                                        "huge.hnet", "bias2.hnet", "bias63.hnet",
                                        "noregime.json", "huge.json", "pgm")}
        save_model(build_net([("fv", 4), ("cnn", 3)], PROFILES["desk"], seed=0), p["m.hnet"])
        for name, kind, dim in (("fv.fbnk", "fv", 4), ("lbp.fbnk", "lbp", 4),
                                ("fv5.fbnk", "fv", 5)):
            save_bank(FeatureBank(kind, dim, {"a": np.ones(dim)}), p[name])
        data = p["m.hnet"].read_bytes()
        bias = first_matrix_at(data) + 8 + 4 * 4 * 64  # fv layer 1 is 4 x 64
        for name, at, shape in (("huge.hnet", first_matrix_at(data), (16385, 16384)),
                                ("bias2.hnet", bias, (2, 32)), ("bias63.hnet", bias, (1, 63))):
            broken = bytearray(data)
            struct.pack_into("<II", broken, at, *shape)
            p[name].write_bytes(broken)
        absent = {"attrs": str(tmp_path / "none.txt"), "split": str(tmp_path / "none.txt"),
                  "banks": {"fv": str(tmp_path / "none.fbnk")}}
        p["noregime.json"].write_text(json.dumps(absent))
        p["huge.json"].write_text(json.dumps({**absent, "regime": "allfeat",
                                              "profile": "huge"}))
        p["pgm"].mkdir()
        (p["pgm"] / "a.pgm").write_bytes(b"P5\nabc 10\n255\n" + bytes(100))
        return {k: str(v) for k, v in p.items()}

    @staticmethod
    def query(p, model="m.hnet", mask="fv", bank="fv.fbnk", img="a", endpoint="127.0.0.1:1"):
        return ["query", "--model", p[model], "--endpoint", endpoint, "--mask", mask,
                "--bank", f"fv={p[bank]}", "--id", img]

    @staticmethod
    def eval(p, *banks):
        return ["eval", "--model", p["m.hnet"], "--attrs", p["noregime.json"],
                "--split-file", p["noregime.json"], *banks, "--out-prefix", p["m.hnet"]]

    CASES = [
        ("bank-without-equals", lambda p: TestExitClassTable.eval(p, "--bank", "fv"),
         2, "--bank expects name=path, got 'fv'"),
        ("eval-without-bank", lambda p: TestExitClassTable.eval(p),
         2, "at least one --bank name=path is required"),
        ("config-without-regime",
         lambda p: ["train", "--config", p["noregime.json"], "--out", p["huge.hnet"]],
         2, "--regime is required"),
        ("config-profile-huge",
         lambda p: ["train", "--config", p["huge.json"], "--out", p["huge.hnet"]],
         2, "unknown profile 'huge'"),
        ("synth-view-without-noise",
         lambda p: ["synth", "--out-dir", p["pgm"], "--view", "a:1"],
         2, "--view expects name:dim:noise, got 'a:1'"),
        ("query-endpoint-without-host", lambda p: TestExitClassTable.query(p, endpoint=":7040"),
         2, "--endpoint expects host:port, got ':7040'"),
        ("query-id-not-in-bank", lambda p: TestExitClassTable.query(p, img="zz"),
         3, "image 'zz' not in bank 'fv'"),
        ("query-kind-not-supplied", lambda p: TestExitClassTable.query(p, mask="fv,cnn"),
         3, "no --bank supplied for kind 'cnn'"),
        ("query-bank-of-another-kind", lambda p: TestExitClassTable.query(p, bank="lbp.fbnk"),
         3, "stores kind 'lbp', expected 'fv'"),
        ("query-bank-of-another-dim", lambda p: TestExitClassTable.query(p, bank="fv5.fbnk"),
         3, "bank 'fv' has dim 5, model branch expects 4"),
        ("hnet-matrix-beyond-limit", lambda p: TestExitClassTable.query(p, model="huge.hnet"),
         3, "matrix 16385x16384 exceeds size limit"),
        ("hnet-bias-of-two-rows", lambda p: TestExitClassTable.query(p, model="bias2.hnet"),
         3, "bias must be a single row"),
        ("hnet-bias-of-another-length",
         lambda p: TestExitClassTable.query(p, model="bias63.hnet"),
         3, "bias length 63 does not match weight columns 64"),
        ("serve-bias-of-two-rows",
         lambda p: ["serve", "--model", p["bias2.hnet"], "--port", "0"],
         3, "bias must be a single row"),
        ("pgm-header-word",
         lambda p: ["extract-lbp", "--images", p["pgm"], "--out", p["huge.hnet"]],
         3, "PGM header token b'abc' is not a decimal integer"),
    ]

    @pytest.mark.parametrize("argv, code, named", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_exit_class(self, paths, capsys, argv, code, named):
        before = sorted(os.listdir(os.path.dirname(paths["m.hnet"])))
        assert run(argv(paths)) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error: " if code == 2 else "data error: ")
        assert named in err and err.count("\n") == 1
        assert sorted(os.listdir(os.path.dirname(paths["m.hnet"]))) == before


class TestArtifactModes:
    """Every file a command writes gets mode 0o666 less the umask, as a
    plain `open` would give it, and is replaced in one step."""

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask-022", "umask-027"])
    def test_umask_applies(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            data = tmp_path / "data"
            assert run(["synth", "--out-dir", str(data), "--latent-dim", "4",
                        "--view", "fv:6:0.1", "--view", "cnn:4:0.2", "--attributes", "3",
                        "--train-count", "60", "--val-count", "20", "--test-count", "20"]) == 0
            banks = [f"--bank=fv={data / 'fv.fbnk'}", f"--bank=cnn={data / 'cnn.fbnk'}"]
            inputs = ["--attrs", str(data / "attrs.txt"),
                      "--split-file", str(data / "partition.txt"), *banks]
            assert run(["train", "--regime", "allfeat", *inputs, "--epochs", "1",
                        "--out", str(tmp_path / "m.hnet")]) == 0
            assert run(["eval", "--model", str(tmp_path / "m.hnet"), *inputs,
                        "--out-prefix", str(tmp_path / "report")]) == 0
            (tmp_path / "pgm").mkdir()
            write_pgm(tmp_path / "pgm" / "a.pgm", np.zeros((20, 20), np.uint8))
            assert run(["extract-lbp", "--images", str(tmp_path / "pgm"), "--cell-size", "10",
                        "--out", str(tmp_path / "lbp.fbnk")]) == 0
        finally:
            os.umask(old)
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".pgm")
        assert written == ["data/attrs.txt", "data/cnn.fbnk", "data/fv.fbnk",
                           "data/manifest.json", "data/partition.txt", "lbp.fbnk",
                           "m.hnet", "m.hnet.log.csv", "m.hnet.manifest.json",
                           "report.csv", "report.md"]
        for name in written:
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


class TestSynthManifest:
    """The synth manifest hashes exactly the files that run wrote."""

    def test_rerun_into_a_used_directory(self, synth_dir):
        (synth_dir / "notes.txt").write_text("not written by synth")
        assert run(["synth", "--out-dir", str(synth_dir), "--view", "a:4:0.1",
                    "--train-count", "8", "--val-count", "4", "--test-count", "4"]) == 0
        artifacts = json.loads((synth_dir / "manifest.json").read_text())["artifacts"]
        assert sorted(artifacts) == ["a.fbnk", "attrs.txt", "partition.txt"]
        for name, digest in artifacts.items():
            assert hashlib.sha256((synth_dir / name).read_bytes()).hexdigest() == digest

    def test_hash_of_a_file_many_blocks_long(self, tmp_path):
        from sigfuse.cli import _sha256
        path = tmp_path / "big"
        payload = make_rng(3).integers(0, 256, (5 << 19) + 7).astype(np.uint8).tobytes()
        path.write_bytes(payload)
        assert _sha256(path) == hashlib.sha256(payload).hexdigest()


class TestExtractLbpInputClasses:
    """A PGM with no pixels is a data error (3); a cell larger than the
    images is a usage error (2), found before any descriptor is computed."""

    @pytest.mark.parametrize("width, height", [(0, 30), (30, 0), (0, 0)])
    def test_pgm_without_pixels(self, tmp_path, capsys, width, height):
        img_dir = tmp_path / "pgm"
        img_dir.mkdir()
        (img_dir / "a.pgm").write_bytes(b"P5\n%d %d\n255\n" % (width, height))
        out = tmp_path / "x.fbnk"
        assert run(["extract-lbp", "--images", str(img_dir), "--cell-size", "10",
                    "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (f"data error: PGM image of width {width} and height {height} "
                       "has no pixels\n")
        assert not out.exists()

    @pytest.mark.parametrize("shape, cell", [((30, 30), 40), ((40, 30), 31), ((30, 40), 31)])
    def test_cell_larger_than_the_images(self, tmp_path, monkeypatch, capsys, shape, cell):
        import sigfuse.cli as cli
        img_dir = tmp_path / "pgm"
        img_dir.mkdir()
        for i in range(3):
            write_pgm(img_dir / f"face_{i}.pgm", np.full(shape, 7 * i, dtype=np.uint8))
        monkeypatch.setattr(cli.data_mod, "lbp_extract",
                            lambda *a: pytest.fail("a descriptor was computed"))
        out = tmp_path / "x.fbnk"
        assert run(["extract-lbp", "--images", str(img_dir), "--cell-size", str(cell),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"usage error: --cell-size {cell} is larger than the "
                       f"{shape[0]}x{shape[1]} images\n")
        assert not out.exists()

    def test_cell_as_large_as_the_images(self, tmp_path):
        img_dir = tmp_path / "pgm"
        img_dir.mkdir()
        write_pgm(img_dir / "a.pgm", np.arange(600).reshape(20, 30) % 251)
        out = tmp_path / "x.fbnk"
        assert run(["extract-lbp", "--images", str(img_dir), "--cell-size", "20",
                    "--out", str(out)]) == 0
        assert load_bank(out).dim == 58


def eval_args(synth_dir, model, prefix, split="test"):
    return ["eval", "--model", str(model), "--attrs", str(synth_dir / "attrs.txt"),
            "--split-file", str(synth_dir / "partition.txt"),
            *(f"--bank={k}={synth_dir / k}.fbnk" for k in ("fv", "cnn", "lbp")),
            "--split", split, "--out-prefix", str(prefix)]


class TestLogThroughTheAtomicWriter:
    """The epoch log is written like every other artifact: into a missing
    directory, and whole or not at all."""

    def test_log_into_a_missing_directory(self, synth_dir, tmp_path):
        out, log = tmp_path / "m.hnet", tmp_path / "logs" / "deep" / "m.csv"
        assert run(train_args(synth_dir, out, extra=("--log", str(log)))) == 0
        assert log.read_text().splitlines()[0] == "epoch,stage,train_loss,val_map"
        manifest = json.loads(out.with_name("m.hnet.manifest.json").read_text())
        assert manifest["outputs"]["log"] == str(log)
        assert manifest["artifacts"]["log_sha256"] == hashlib.sha256(
            log.read_bytes()).hexdigest()

    def test_a_write_that_fails_partway_leaves_no_file(self, tmp_path, monkeypatch):
        import csv
        from sigfuse.training import write_logs
        rows = [{"epoch": e, "stage": "s", "train_loss": 0.5, "val_map": 0.25}
                for e in range(3)]
        path = tmp_path / "log.csv"
        write_logs(rows[:1], path)
        old = path.read_bytes()

        def fail_after_first(self, rows):
            self.writerow(rows[0])
            raise OSError("disk full")

        monkeypatch.setattr(csv.DictWriter, "writerows", fail_after_first)
        with pytest.raises(OSError, match="disk full"):
            write_logs(rows, path)
        with pytest.raises(OSError, match="disk full"):
            write_logs(rows, tmp_path / "new.csv")
        assert os.listdir(tmp_path) == ["log.csv"]
        assert path.read_bytes() == old


class TestReportNames:
    """An eval prefix keeps its dots: each report is the prefix's name
    plus .csv or .md."""

    def test_dotted_prefixes_give_four_files(self, synth_dir, tmp_path):
        model = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, model, "allfeat", extra=("--epochs", "1"))) == 0
        assert run(eval_args(synth_dir, model, tmp_path / "r.test")) == 0
        assert run(eval_args(synth_dir, model, tmp_path / "r.val", "val")) == 0
        names = ["r.test.csv", "r.test.md", "r.val.csv", "r.val.md"]
        assert sorted(p.name for p in tmp_path.glob("r.*")) == names
        assert len({(tmp_path / n).read_bytes() for n in names}) == 4

    def test_a_plain_prefix(self, synth_dir, tmp_path):
        model = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, model, "allfeat", extra=("--epochs", "1"))) == 0
        assert run(eval_args(synth_dir, model, tmp_path / "out" / "report")) == 0
        assert sorted(os.listdir(tmp_path / "out")) == ["report.csv", "report.md"]


class TestManifestKeyOrder:
    def test_train(self, synth_dir, tmp_path):
        out = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, out)) == 0
        manifest = json.loads((tmp_path / "m.hnet.manifest.json").read_text())
        assert list(manifest) == ["command", "config", "outputs", "artifacts", "created"]
        assert manifest["command"] == "train"
        assert manifest["outputs"] == {"model": str(out),
                                       "log": str(tmp_path / "m.hnet.log.csv")}
        assert list(manifest["artifacts"]) == ["model_sha256", "log_sha256"]
        assert list(manifest["config"]) == [
            "lr", "batch_size", "epochs", "seed", "momentum", "weight_decay",
            "regime", "profile", "attrs", "split", "banks"]

    def test_synth(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert list(manifest) == ["command", "config", "artifacts", "created"]
        assert manifest["command"] == "synth"
        assert manifest["config"] == {"latent_dim": 6, "attributes": 4,
                                      "views": [["fv", 10, 0.05], ["cnn", 8, 0.15],
                                                ["lbp", 6, 0.4]],
                                      "counts": [120, 40, 40], "seed": 5}
        assert list(manifest["config"]) == ["latent_dim", "attributes", "views",
                                            "counts", "seed"]
        assert list(manifest["artifacts"]) == ["attrs.txt", "cnn.fbnk", "fv.fbnk",
                                               "lbp.fbnk", "partition.txt"]


class TestServeClosesItsSocket:
    def test_on_keyboard_interrupt(self, tmp_path, monkeypatch):
        import socket
        import sigfuse.cli as cli
        from sigfuse.model import load_trunk
        from sigfuse.protocol import SignatureServer
        model = tmp_path / "m.hnet"
        save_model(build_net([("fv", 4)], PROFILES["desk"], seed=0), model)
        servers = []

        def serve(path, host, port):  # as protocol.serve, but leaves BLAS alone
            servers.append(SignatureServer(load_trunk(path), host, port))
            return servers[-1]

        def interrupt(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "serve", serve)
        monkeypatch.setattr(SignatureServer, "service_actions", interrupt)
        assert run(["serve", "--model", str(model), "--port", "0"]) == 0
        endpoint = servers[0].server_address
        assert servers[0].socket.fileno() == -1
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(endpoint, timeout=2)


class TestNamedTwice:
    """A synth view or a --bank kind given twice is a usage error, and
    nothing is written or read."""

    def test_synth_view(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["synth", "--out-dir", str(out), "--view", "fv:4:0.1",
                    "--view", "fv:6:0.2"]) == 2
        assert capsys.readouterr().err == "usage error: view 'fv' is named twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "query"])
    def test_bank_kind(self, tmp_path, capsys, command):
        model = tmp_path / "absent.hnet"  # the flags are refused before any read
        banks = ["--bank", f"fv={tmp_path / 'a.fbnk'}", "--bank", f"fv={tmp_path / 'b.fbnk'}"]
        argv = {"train": ["train", "--regime", "allfeat", "--attrs", "a", "--split-file", "s",
                          *banks, "--out", str(tmp_path / "x.hnet")],
                "eval": ["eval", "--model", str(model), "--attrs", "a", "--split-file", "s",
                         *banks, "--out-prefix", str(tmp_path / "r")],
                "query": ["query", "--model", str(model), "--endpoint", "127.0.0.1:1",
                          "--mask", "fv", *banks, "--id", "a"]}[command]
        assert run(argv) == 2
        assert capsys.readouterr().err == "usage error: --bank names kind 'fv' twice\n"
        assert os.listdir(tmp_path) == []


def save_named(path, names):
    """An HNET whose kind table is `names`, written past the checks that
    `build_net` makes: every branch shares one branch's layers."""
    from sigfuse.model import FeatureKind, HybridNet
    base = build_net([("a", 10)], PROFILES["desk"], seed=0)
    kinds = [FeatureKind(i, name, 10) for i, name in enumerate(names)]
    save_model(HybridNet(kinds, [base.branches[0]] * len(kinds), base.trunk), path)


class TestKindTableExitCodes:
    """An HNET with more than 8 kinds, none, or a name given twice is a
    data error for every command that loads one; a kind named '' is a
    usage error, and nothing is written."""

    def test_serve_nine_kinds(self, tmp_path, capsys, monkeypatch):
        from sigfuse import protocol

        def served(self, *args, **kwargs):
            raise AssertionError("a 9-kind model was served")

        # should the model load, fail at once and leave this process's BLAS alone
        monkeypatch.setattr(protocol, "_pin_blas_to_one_thread", lambda: "")
        monkeypatch.setattr(protocol.SignatureServer, "serve_forever", served)
        model = tmp_path / "nine.hnet"
        save_named(model, [f"k{i}" for i in range(9)])
        assert run(["serve", "--model", str(model), "--port", "0"]) == 3
        assert "at most 8 feature kinds" in capsys.readouterr().err

    def test_query_nine_kinds(self, tmp_path, capsys):
        model = tmp_path / "nine.hnet"
        save_named(model, [f"k{i}" for i in range(9)])
        assert run(["query", "--model", str(model), "--endpoint", "127.0.0.1:1",
                    "--mask", "k8", "--bank", f"k8={tmp_path / 'k8.fbnk'}",
                    "--id", "a"]) == 3
        assert "at most 8 feature kinds" in capsys.readouterr().err

    @pytest.mark.parametrize("names,error", [(["fv", "cnn", "fv"], "'fv' is named twice"),
                                             ([], "at least one feature kind")])
    def test_eval(self, synth_dir, tmp_path, capsys, names, error):
        model = tmp_path / "odd.hnet"
        save_named(model, names)
        prefix = tmp_path / "report"
        assert run(eval_args(synth_dir, model, prefix)) == 3
        assert error in capsys.readouterr().err
        assert not list(tmp_path.glob("report*"))

    def test_synth_view_named_empty(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["synth", "--out-dir", str(out), "--view", ":4:0.1"]) == 2
        assert capsys.readouterr().err == "usage error: view names must be non-empty\n"
        assert not out.exists()

    def test_extract_lbp_kind_empty(self, tmp_path, capsys):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        write_pgm(img_dir / "a.pgm", np.zeros((20, 20), dtype=np.uint8))
        out = tmp_path / "x.fbnk"
        assert run(["extract-lbp", "--images", str(img_dir), "--cell-size", "10",
                    "--kind", "", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "usage error: --kind must be non-empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["imgs"]


class TestRefusalExitCodes:
    """The exit class of three refusals the CLI reaches: a bad synthetic
    spec is a usage error, an attribute file of one line a data error and
    a server that closes without replying a runtime error."""

    def test_synth_latent_dim_zero_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["synth", "--out-dir", str(out), "--latent-dim", "0"]) == 2
        assert "latent dim and attribute count must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_one_line_attribute_file_is_a_data_error(self, synth_dir, tmp_path, capsys):
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("120\n")
        args = train_args(synth_dir, tmp_path / "m.hnet")
        args[args.index("--attrs") + 1] = str(attrs)
        assert run(args) == 3
        assert "needs a count line and a name line" in capsys.readouterr().err
        assert not (tmp_path / "m.hnet").exists()

    def test_query_against_a_server_that_closes_is_a_runtime_error(
            self, synth_dir, tmp_path, mute_server, capsys):
        model = tmp_path / "m.hnet"
        save_model(build_net([("fv", 10)], PROFILES["desk"], 0), model)
        host, port = mute_server
        assert run(["query", "--model", str(model), "--endpoint", f"{host}:{port}",
                    "--mask", "fv", "--bank", f"fv={synth_dir / 'fv.fbnk'}",
                    "--id", "synth_000000"]) == 4
        assert "server closed without responding" in capsys.readouterr().err


class TestDivergedTrain:
    """A net trained past float32's range (finite in float64) is refused
    by the HNET writer: `train` exits 4, says why, and writes nothing."""

    def test_exit_4_and_no_artifact(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out" / "diverged.hnet"
        args = ["train", "--regime", "allfeat", "--attrs", str(synth_dir / "attrs.txt"),
                "--split-file", str(synth_dir / "partition.txt"),
                "--bank", f"fv={synth_dir / 'fv.fbnk'}",
                "--bank", f"cnn={synth_dir / 'cnn.fbnk'}",
                "--epochs", "1", "--seed", "1", "--lr", "1e20", "--out", str(out)]
        with np.errstate(all="ignore"):  # the training itself overflows
            code = run(args)
        assert code == 4
        err = capsys.readouterr().err
        assert "float32" in err and "layer" in err
        assert not out.parent.exists() or list(out.parent.iterdir()) == []


def drop_split_id(synth_dir, kind: str, split_id: str) -> str:
    """Rewrite bank `kind` without the first image of split `split_id`
    (0 train, 1 val, 2 test), and return that image's id."""
    pairs = [line.split() for line in (synth_dir / "partition.txt").read_text().splitlines()]
    dropped = next(i for i, s in pairs if s == split_id)
    bank = load_bank(synth_dir / f"{kind}.fbnk")
    del bank.entries[dropped]
    save_bank(bank, synth_dir / f"{kind}.fbnk")
    return dropped


class TestBankMissingASplitId:
    """A bank that lacks an image of the train, val or test split is a
    data error (exit 3), found before any batch is trained."""

    @pytest.mark.parametrize("kind, split_id", [("fv", "0"), ("cnn", "1"), ("lbp", "1")])
    def test_train_exits_3_before_any_batch(self, synth_dir, tmp_path, monkeypatch,
                                            capsys, kind, split_id):
        import sigfuse.training as training
        calls = []
        monkeypatch.setattr(training, "net_backward", lambda *a: calls.append(a))
        dropped = drop_split_id(synth_dir, kind, split_id)
        assert run(train_args(synth_dir, tmp_path / "m.hnet", "allfeat")) == 3
        err = capsys.readouterr().err
        assert f"bank {kind!r} missing features for 1 images (first: {dropped!r})" in err
        assert calls == []
        assert not list(tmp_path.glob("m.hnet*"))

    def test_dedicated_trains_past_a_gap_in_another_kind(self, synth_dir, tmp_path):
        drop_split_id(synth_dir, "cnn", "0")
        assert run(train_args(synth_dir, tmp_path / "m.hnet", "dedicated:fv",
                              extra=("--epochs", "1"))) == 0

    def test_eval_exits_3(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, model, "allfeat", extra=("--epochs", "1"))) == 0
        dropped = drop_split_id(synth_dir, "lbp", "2")
        prefix = tmp_path / "report"
        assert run(eval_args(synth_dir, model, prefix)) == 3
        assert f"bank 'lbp' missing features for 1 images (first: {dropped!r})" \
            in capsys.readouterr().err
        assert not list(tmp_path.glob("report*"))


class TestModelOutputsAgainstTheTable:
    """`eval` with a table of another attribute count than the model's
    outputs is a data error (exit 3), found before any bank is read."""

    def test_eval_exits_3_before_any_bank(self, tmp_path, monkeypatch, capsys):
        import sigfuse.cli as cli
        wide, narrow = tmp_path / "wide", tmp_path / "narrow"
        for out, count in ((wide, "8"), (narrow, "4")):
            assert run(["synth", "--out-dir", str(out), "--latent-dim", "6",
                        "--view", "fv:10:0.05", "--attributes", count, "--train-count", "120",
                        "--val-count", "40", "--test-count", "40", "--seed", "5"]) == 0
        model = tmp_path / "m.hnet"
        assert run(["train", "--regime", "allfeat", "--attrs", str(wide / "attrs.txt"),
                    "--split-file", str(wide / "partition.txt"),
                    "--bank", f"fv={wide / 'fv.fbnk'}", "--epochs", "1",
                    "--out", str(model)]) == 0
        capsys.readouterr()
        loaded = []
        monkeypatch.setattr(cli, "load_bank", lambda path: loaded.append(path))
        attrs = narrow / "attrs.txt"
        assert run(["eval", "--model", str(model), "--attrs", str(attrs),
                    "--split-file", str(narrow / "partition.txt"),
                    "--bank", f"fv={narrow / 'fv.fbnk'}",
                    "--out-prefix", str(tmp_path / "report")]) == 3
        assert capsys.readouterr().err == (f"data error: attribute file {attrs} names 4 "
                                           f"attributes, the model scores 8\n")
        assert loaded == []
        assert not list(tmp_path.glob("report*"))


class TestAttributeNamedTwice:
    """An attribute file whose names line repeats a name is a data error
    naming the line and the name, for `train` and for `eval`."""

    @staticmethod
    def repeat_first_name(synth_dir):
        path = synth_dir / "attrs.txt"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace("attr_01", "attr_00")
        path.write_text("".join(lines))

    def test_train(self, synth_dir, tmp_path, capsys):
        self.repeat_first_name(synth_dir)
        assert run(train_args(synth_dir, tmp_path / "m.hnet", "allfeat")) == 3
        assert capsys.readouterr().err == \
            "data error: line 2: attribute 'attr_00' is named twice\n"
        assert not list(tmp_path.glob("m.hnet*"))

    def test_eval(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.hnet"
        assert run(train_args(synth_dir, model, "allfeat", extra=("--epochs", "1"))) == 0
        self.repeat_first_name(synth_dir)
        capsys.readouterr()
        assert run(eval_args(synth_dir, model, tmp_path / "report")) == 3
        assert capsys.readouterr().err == \
            "data error: line 2: attribute 'attr_00' is named twice\n"
        assert not list(tmp_path.glob("report*"))

    def test_line_number_counts_blank_lines(self):
        from sigfuse.data import DataFormatError, parse_attr_file
        with pytest.raises(DataFormatError, match=r"^line 4: attribute 'b' is named twice$"):
            parse_attr_file("1\n\n\na b c b\nimg 1 1 1 1\n")


class TestServeEnvironment:
    """`serve` takes its model from --model, else from SIGFUSE_MODEL; a
    model that is missing, absent or cut exits with its class, and no
    case here binds a socket."""

    @pytest.fixture(autouse=True)
    def no_server(self, monkeypatch):
        from sigfuse import protocol

        def bound(*args, **kwargs):
            raise AssertionError("a socket was bound")

        monkeypatch.setattr(protocol, "_pin_blas_to_one_thread", lambda: "")
        monkeypatch.setattr(protocol, "SignatureServer", bound)
        monkeypatch.delenv("SIGFUSE_MODEL", raising=False)
        monkeypatch.delenv("SIGFUSE_PORT", raising=False)

    def test_no_model_anywhere(self, capsys):
        assert run(["serve"]) == 2
        assert capsys.readouterr().err == \
            "usage error: provide --model or set SIGFUSE_MODEL\n"

    def test_env_names_a_missing_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIGFUSE_MODEL", str(tmp_path / "absent.hnet"))
        assert run(["serve", "--port", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "absent.hnet" in err

    def test_env_names_a_cut_model(self, tmp_path, monkeypatch, capsys):
        model = tmp_path / "cut.hnet"
        save_model(build_net([("fv", 4)], PROFILES["desk"], seed=0), model)
        model.write_bytes(model.read_bytes()[:2000])
        monkeypatch.setenv("SIGFUSE_MODEL", str(model))
        assert run(["serve", "--port", "0"]) == 3
        assert run(["serve", "--model", str(model), "--port", "0"]) == 3
        errs = capsys.readouterr().err.splitlines()
        assert len(errs) == 2 and errs[0] == errs[1]
        assert errs[0].startswith("data error: ")

    def test_flag_wins_over_env(self, tmp_path, monkeypatch, capsys):
        import sigfuse.cli as cli
        served = []

        class Spy:
            endpoint = ("127.0.0.1", 7040)

            def __init__(self, path, host, port):
                served.append((path, host, port))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def serve_forever(self):
                pass

        monkeypatch.setattr(cli, "serve", Spy)
        monkeypatch.setenv("SIGFUSE_MODEL", str(tmp_path / "env.hnet"))
        flag = str(tmp_path / "flag.hnet")
        assert run(["serve", "--model", flag, "--port", "0"]) == 0
        assert served == [(flag, "127.0.0.1", 0)]
        assert capsys.readouterr().out == f"serving {flag} on 127.0.0.1:7040\n"


class TestNotUtf8Text:
    """A byte that is not UTF-8 in the attribute file or the partition
    file is a data error (exit 3) naming the file and the line, for
    `train` and for `eval`; no model or report is written."""

    FILES = {"attrs.txt": "attribute file", "partition.txt": "partition file"}

    @staticmethod
    def stamp_0xff(path, line: int) -> None:
        """Overwrite the first byte of `path`'s 1-based `line` with 0xff."""
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1][1:]
        path.write_bytes(b"".join(lines))

    @pytest.mark.parametrize("name", FILES)
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_exits_3_naming_file_and_line(self, synth_dir, tmp_path, capsys, command, name):
        model = tmp_path / "m.hnet"
        if command == "eval":
            assert run(train_args(synth_dir, model, "allfeat", extra=("--epochs", "1"))) == 0
        path = synth_dir / name
        self.stamp_0xff(path, 7)
        capsys.readouterr()
        argv = (train_args(synth_dir, model, "allfeat") if command == "train"
                else eval_args(synth_dir, model, tmp_path / "report"))
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {self.FILES[name]} {path}, line 7: "
                              f"not UTF-8"), err
        assert not list(tmp_path.glob("report*"))
        if command == "train":
            assert not list(tmp_path.glob("m.hnet*"))

    def test_lines_are_numbered_as_the_parsers_number_them(self, tmp_path):
        from sigfuse.cli import _read_utf8
        from sigfuse.data import DataFormatError
        path = tmp_path / "attrs.txt"
        path.write_bytes(b"2\r\n\na b\rimg0 1 1\x0c\xffimg 1 1\n")
        with pytest.raises(DataFormatError, match=r", line 5: not UTF-8 \(invalid start "
                                                  r"byte at byte 17\)$"):
            _read_utf8(path, "attribute file")


class TestKindNameRule:
    """A kind name a u16-length FBNK string cannot hold (more than 65535
    UTF-8 bytes, or a non-UTF-8 byte from the command line, which Python
    decodes to a lone surrogate) is a usage error found before any image
    is read or any file is written."""

    @pytest.mark.parametrize("kind, error", [
        ("k" * 70000, "--kind of 70000 UTF-8 bytes exceeds the u16 length"),
        ("\udcff", "--kind is not UTF-8: character 0 is '\\udcff'"),
    ], ids=["70000-chars", "byte-ff"])
    def test_extract_lbp_kind(self, tmp_path, monkeypatch, capsys, kind, error):
        import sigfuse.data as data_mod

        def no_read(path):
            raise AssertionError(f"read {path}")

        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        write_pgm(img_dir / "a.pgm", np.zeros((20, 20), dtype=np.uint8))
        monkeypatch.setattr(data_mod, "read_pgm", no_read)
        assert run(["extract-lbp", "--images", str(img_dir), "--cell-size", "10",
                    "--kind", kind, "--out", str(tmp_path / "x.fbnk")]) == 2
        assert capsys.readouterr().err == f"usage error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["imgs"]

    def test_synth_view_name(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["synth", "--out-dir", str(out), "--view", "\udcff:4:0.1"]) == 2
        assert capsys.readouterr().err == ("usage error: view name is not UTF-8: "
                                           "character 0 is '\\udcff'\n")
        assert not out.exists()


class TestServeStopsOnSigterm:
    """SIGTERM, which `kill` and service managers send, stops `serve` as
    SIGINT does: exit 0 with the listening socket closed."""

    def test_exit_zero_and_socket_closed(self, tmp_path):
        import signal
        import socket
        model = tmp_path / "m.hnet"
        save_model(build_net([("fv", 4)], PROFILES["desk"], seed=0), model)
        proc = subprocess.Popen(
            [sys.executable, "-m", "sigfuse.cli", "serve", "--model", str(model),
             "--port", "0"], stdout=subprocess.PIPE, text=True)
        try:
            host, port = proc.stdout.readline().split()[-1].rsplit(":", 1)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=5) == 0
        finally:
            proc.kill()
            proc.wait()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, int(port)), timeout=2)

    def test_previous_handler_is_restored(self, tmp_path, monkeypatch):
        import signal
        import sigfuse.cli as cli
        handlers = []

        class Spy:
            endpoint = ("127.0.0.1", 7040)

            def __init__(self, path, host, port):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def serve_forever(self):
                handlers.append(signal.getsignal(signal.SIGTERM))

        def mine(signum, frame):
            pass

        monkeypatch.setattr(cli, "serve", Spy)
        previous = signal.signal(signal.SIGTERM, mine)
        try:
            assert run(["serve", "--model", str(tmp_path / "m.hnet"), "--port", "0"]) == 0
            assert signal.getsignal(signal.SIGTERM) is mine
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert handlers == [signal.default_int_handler]
