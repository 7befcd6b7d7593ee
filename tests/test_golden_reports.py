"""Golden corpus, end to end through `sigfuse.cli.main`: each regime's desk
model trained by `sigfuse train` and replayed from its manifest, the CSV
and markdown sweep reports that `sigfuse eval` writes for it on the test
and val splits, the float64 bytes of every mask's per-attribute APs and
scores, and the HNET bytes of a seeded net wider than `desk`.

Trained bytes depend on the BLAS kernel and numpy's SIMD dispatch level,
so every failure message names both where the pins were taken and where
the test ran. A hash that changes here is a defect, not a value to update.
"""

import hashlib

import pytest

from sigfuse import cli, evaluate
from sigfuse.model import Profile, build_net, model_from_bytes, model_to_bytes

# the `environment` fixture's string where these pins were taken
PINNED_ON = ("blas: libscipy_openblas64_-32a4b2a6.so core=SkylakeX threads=2; "
             "numpy: 2.4.6 dispatch=X86_V3,X86_V4,AVX512_ICL,AVX512_SPR")
REGIMES = ["dedicated:cnn", "allfeat", "moddrop", "multistage:fv", "allfeatinit"]

# sha256 of the model `sigfuse train` writes for each regime
MODEL_SHA256 = {
    "dedicated:cnn": "ac8c718672a328aa26049cdb52c143406b5325cbdc4ed29253b7433e6fc14879",
    "allfeat": "9fce0fea98291ac8edc5cbea9f7b9c3913249e8d01b80d4227cc22d044d071f4",
    "moddrop": "de20bfb6bdfd7f62f644206173497b1f1d0303219602e2e6b83ef77a17c48509",
    "multistage:fv": "903e72e03eba371180fc6728d0e099f3298ff527f5d14eb9d6e1283e554afd48",
    "allfeatinit": "3b890c3ee64d0e65fcfd5b3ea94d5b5f5615a7f5f9efd5b3eeea69155ab32532",
}
# (regime, split) -> sha256 of the eval report's .csv, its .md, and the
# float64 bytes of every mask's per-attribute APs and of its scores, in
# mask order. APs rank scores, so a last-bit change to a signature can
# leave them as they were; the scores cannot.
REPORT_SHA256 = {
    ("dedicated:cnn", "test"): (
        "c85cde5af1d826e657a743f8984b579a688f6b21ca31742d96dffa3c13486beb",
        "08d8c3dde755f3eb4d402d487ae31f71d9aa9addf0e160a02e21d4e60e9a0387",
        "4fd4889efa718a62f3615eee72dae92688660b6b19bc665da39eeb7aa7897da2",
        "d49366c9883772495f1f9d2e9e33875187c0d4fca82d86aec63fa4ec2f8d828f"),
    ("dedicated:cnn", "val"): (
        "a4ee37ca30bae37db9ccc7d0ed4a560fd746bd9c65ebe8903d897344113de8aa",
        "8e1417c78ee0cc2dbae3ef14d0f33d23bd9474dad053a3583b537e179f597cbe",
        "6b9be4517507770756825e486c96c0e9c144b6bf3e9e25a5169f34c2c84e3f72",
        "00e0d123a48b78d613af7470dd132c2255f7827a2f10dd10cd1273e56274d5de"),
    ("allfeat", "test"): (
        "825249e9c9b9f0da6eb56a6909214b7f2a91bd72e3f99fcb5ba3539300e24d16",
        "4a688bc4d3bb26a290425d489dd64e23d2b8abeb8bc0b2e067cb0304ab2ebf8a",
        "89cfd73b10e3d8997809a692c2255d429c7dc35c4c2fe78fadef64660b1a20a5",
        "deafa6489252b8e05415aae5edb2b657c442a4c733f084588f602e6f1f0fa6ee"),
    ("allfeat", "val"): (
        "49e7aa1d5b6c4d1843c93bd492332306afb652d5fa2b334a7f83e27fa4664216",
        "9cd3a63215e8ae330f3d7b63c9fc5e65ec756d5aa4be46f453f5e1c17c77ebb5",
        "044c385898eb105582f27e9a5fed64e9f44339c6d201a474151d511991f6da8d",
        "f281c5d28c46874df9fc384c5a1d01acf026ea63ece5f51c84b0412e02c0d014"),
    ("moddrop", "test"): (
        "1bfd1c0a401327012bb76aa77c175eecd3b23c41e339f85980ea675600a19768",
        "f5c15b1b3b0378a47ee6bec0db4d5e6069c4e4fa8999136e9bef3c733bf12b4e",
        "30e4076e7feb35853eb3f3c9263121d91c5087ca6540753e8fba8ba33bb813fb",
        "564193a28bd4072136d1941dc786af0d1b290fb64883c5bada142512e4d0ac5a"),
    ("moddrop", "val"): (
        "1611712876d86a1c2b60dde85369c4c2649b0e775429d1efcce45a7736341313",
        "6c5859fe39698bc37e6de460e64fb5dec4d2634e7d43fda37891853a724be03c",
        "67ff6f3480a3deae1bb2baa5c463f3066abfef1ffeeec3676d4c87b072b53c9a",
        "a33c32f2e733faaa6176d3bac4debaa5374ea17a990f897369e0c93822dca629"),
    ("multistage:fv", "test"): (
        "c26d52cf0c3f288e713a5c3dc8c3f77c9ed55a8f4c64b840ddcb9eecc9b460cc",
        "57aff605d39fad2993aa3df0ad62a2111b5c9ff46862388f7170a7cd5f998ea7",
        "aedfa87ef5faf9e02527207dfea29f8a5503e0d6afc14db8ef5ce344808a0e15",
        "57422c38bd6bef4f664e96729f3091f73dec55c7b820794f0b202f293822e4bf"),
    ("multistage:fv", "val"): (
        "3d085d878fb5c15933c5c5bd07d18612e012d415e74a48fd903d44a6ff3adc17",
        "f5daae321987ea428972aa67c2d9db40f0f8fff1db5b3110e62ca6f2fc93671c",
        "ad58e06e18e48e850fcfb29b3a404ae757084c08ac6262d661bc7cacec819303",
        "b140a58c1b6857b9f169ea5cb282ce00877cabf8a06086ceac7250a064dcbabe"),
    ("allfeatinit", "test"): (
        "f802d85bb0c23ef4a7f9480fd43d8ab5520c577eb50b27dc6315a167a2c5e1ba",
        "b3049dfe9296f5cd96ae3a7284822dea6feaf4e2d4b45ac9b47579738a726d6e",
        "0f3872fa3adfbacf7ecee5865c1c79703a13397cc35399e8f6f75b5a7b6077d7",
        "cec8a601ed69ec84e5680af66b4ede16d976bd59cf1fbfba579f47a960264a63"),
    ("allfeatinit", "val"): (
        "40d63bd74d7e0d5baddfd83229cba05ae60bc7169eb96e0ade1d4e0052758d7e",
        "afec19f48735d5c888d11d41eae6030bdaf7357af8f25ab326bbb8e99548f17f",
        "175c34805fb1a4a8cf069ef65ae5d1f0abbc9924051e47a38f7f0da97cd736a6",
        "f8689b7043805995739f10983e9fc38128e3bb5bec14201b7c379b3ade90064b"),
}
# a seeded net wider than desk: fv's first layer holds 300 x 256 = 76,800
# weights, more than one of the HNET writer's 65,536-float chunks
WIDE_KINDS = [("fv", 300), ("cnn", 40)]
WIDE_PROFILE = Profile(256, 64, 64, 48, 10)
WIDE_SHA256 = "57e26a7a387f306e3f8eff2858059e8ea2a56f0ea3bfc2c6ab17c500c2aa2e39"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestCliGolden:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        """A synthetic set of three kinds, and one model per regime."""
        d = tmp_path_factory.mktemp("golden")
        assert cli.main(["synth", "--out-dir", str(d / "data"), "--latent-dim", "6",
                         "--view", "fv:10:0.05", "--view", "cnn:8:0.15",
                         "--view", "lbp:6:0.4", "--attributes", "4", "--train-count", "120",
                         "--val-count", "40", "--test-count", "40", "--seed", "5"]) == 0
        for i, regime in enumerate(REGIMES):
            assert cli.main(["train", "--regime", regime, *self.data(d), "--epochs", "2",
                             "--batch-size", "32", "--lr", "0.05", "--momentum", "0.9",
                             "--weight-decay", "1e-3", "--seed", "1",
                             "--out", str(d / f"m{i}.hnet")]) == 0
        return d

    @pytest.fixture
    def where(self, environment):
        return f"pinned on {PINNED_ON}; run on {environment}"

    @staticmethod
    def data(d):
        return ["--attrs", str(d / "data" / "attrs.txt"),
                "--split-file", str(d / "data" / "partition.txt"),
                *(f"--bank={k}={d / 'data' / k}.fbnk" for k in ("fv", "cnn", "lbp"))]

    @pytest.mark.parametrize("regime", REGIMES)
    def test_train_and_replay(self, workdir, where, regime):
        model = workdir / f"m{REGIMES.index(regime)}.hnet"
        replay = workdir / f"replay{REGIMES.index(regime)}.hnet"
        assert sha256(model.read_bytes()) == MODEL_SHA256[regime], where
        assert cli.main(["train", "--from-manifest", f"{model}.manifest.json",
                         "--out", str(replay)]) == 0
        assert replay.read_bytes() == model.read_bytes(), where
        assert (workdir / f"{replay.name}.log.csv").read_bytes() == \
            (workdir / f"{model.name}.log.csv").read_bytes()

    @pytest.mark.parametrize("regime, split", list(REPORT_SHA256))
    def test_reports(self, workdir, tmp_path, monkeypatch, where, regime, split):
        real, scored = evaluate.scores_to_aps, []  # (scores, (aps, mean)) per mask

        def scores_to_aps(scores, labels):
            scored.append((scores, real(scores, labels)))
            return scored[-1][1]

        monkeypatch.setattr(evaluate, "scores_to_aps", scores_to_aps)
        prefix = tmp_path / "report"
        model = workdir / f"m{REGIMES.index(regime)}.hnet"
        assert cli.main(["eval", "--model", str(model), *self.data(workdir),
                         "--split", split, "--out-prefix", str(prefix)]) == 0
        got = (sha256((tmp_path / "report.csv").read_bytes()),
               sha256((tmp_path / "report.md").read_bytes()),
               sha256(b"".join(aps.astype("<f8").tobytes() for _, (aps, _) in scored)),
               sha256(b"".join(scores.astype("<f8").tobytes() for scores, _ in scored)))
        assert got == REPORT_SHA256[regime, split], where

    def test_wide_hnet(self, where):
        net = build_net(WIDE_KINDS, WIDE_PROFILE, seed=11)
        assert net.branches[0].layer1.weights.size > 1 << 16
        data = model_to_bytes(net)
        assert sha256(data) == WIDE_SHA256, where
        assert model_to_bytes(model_from_bytes(data)) == data
