import json
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
