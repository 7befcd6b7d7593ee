"""Golden corpus: sha256 of seeded UFSG request frames and of the exact
UFSR reply bytes that an in-process `SignatureServer` sends back, and of
the synthetic dataset files, FBNK banks and stacked split matrices.

A fixed seed must give byte-identical wire frames and files, so a hash
that changes here is a change to a format, not a value to update.
"""

import hashlib
import socket

import numpy as np
import pytest

from sigfuse.data import (Dataset, FeatureBank, SyntheticSpec, ViewSpec, bank_to_bytes,
                          format_attr_file, format_split_file, load_bank, save_bank,
                          synth_generate)
from sigfuse.model import PROFILES, build_net
from sigfuse.nn import make_rng
from sigfuse.protocol import SignatureServer, client_query, encode_request

POOL_SIZE = 64
POOL_FRAMES_SHA256 = "3c7f0e173e597b9278ffc1b4e39622aa5722d934d60ff5e98328fe6eaa6483d0"
POOL_REPLIES_SHA256 = "52e45303ae132d2198948ec903951e29ee2e292429e7a80f1246ec812e244d44"
CLIENT_SCORES_SHA256 = "05f68568c0ce091f34f57d4f597555f7e12cba5a48f6b0d0f1838b4e685418ec"

# the 8-byte replies with no scores: status 1, 2 and 3
BAD_FRAME = "eec4dad7bc57dbe231ce0c74a3ff304df12b96083e23a455f76c60c7970e8785"
DIM_MISMATCH = "ec77fc324fde1a801a3b3f22d4475eeca30ead14e128c63077654d15fa46405b"
SERVER_ERROR = "5aaa9f1a56c69caeb233d8a3051779f76207557a989aec5e7f54824a192dd729"

# case -> sha256 of every byte the server sent on that one connection
REPLY_SHA256 = {
    "dim-mismatch": DIM_MISMATCH,
    "dim-zero": DIM_MISMATCH,
    "non-finite": SERVER_ERROR,
    "bad-magic": BAD_FRAME,
    "garbage-header": BAD_FRAME,
    "bad-version": BAD_FRAME,
    "empty-mask": BAD_FRAME,
    "truncated-header": BAD_FRAME,
    "header-only": BAD_FRAME,
    "truncated-payload": BAD_FRAME,
    "trailing-garbage": "297efe6d8f989bff37fd761b5747f0592ca4cb3adc840571952d61f0267880fd",
    "three-frames": "c680d198ed6840199c16a02b6d22ec76dc5d2b3af1345140135c1e3b50bf80b3",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def server():
    srv = SignatureServer(build_net([("fv", 6), ("cnn", 5), ("lbp", 4)],
                                    PROFILES["desk"], seed=8))
    srv.serve_in_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def exchange(endpoint, payload: bytes) -> bytes:
    """Send `payload` on one connection, half-close, return all replies."""
    with socket.create_connection(endpoint, timeout=5) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def pool(dim: int) -> list[bytes]:
    sigs = make_rng(81).standard_normal((POOL_SIZE, dim))
    return [encode_request(sig, 1 + i % 7) for i, sig in enumerate(sigs)]


def case_payload(case: str, dim: int) -> bytes:
    frames = pool(dim)
    ok = frames[0]
    nan = make_rng(82).standard_normal(dim)
    nan[0], nan[-1] = np.nan, np.inf
    return {
        "dim-mismatch": encode_request(np.ones(dim + 3), 2),
        "dim-zero": encode_request(np.zeros(0), 1),
        "non-finite": encode_request(nan, 3),
        "bad-magic": b"X" + ok[1:],
        "garbage-header": b"GARBAGE-" + b"\x00" * 8,
        "bad-version": ok[:4] + b"\x02" + ok[5:],
        "empty-mask": ok[:5] + b"\x00" + ok[6:],
        "truncated-header": ok[:5],
        "header-only": ok[:8],
        "truncated-payload": ok[:11],
        "trailing-garbage": ok + b"\x00\x01\x02",
        "three-frames": b"".join(frames[1:4]),
    }[case]


class TestWireGolden:
    def test_request_pool(self, server):
        assert sha256(b"".join(pool(server.net.signature_dim))) == POOL_FRAMES_SHA256

    def test_ok_replies(self, server):
        replies = [exchange(server.endpoint, f) for f in pool(server.net.signature_dim)]
        assert all(r[:6] == b"UFSR\x01\x00" for r in replies)
        assert sha256(b"".join(replies)) == POOL_REPLIES_SHA256

    @pytest.mark.parametrize("case", sorted(REPLY_SHA256))
    def test_reply(self, server, case):
        reply = exchange(server.endpoint, case_payload(case, server.net.signature_dim))
        assert sha256(reply) == REPLY_SHA256[case]

    def test_client_query_scores(self, server):
        net = server.net
        rng = make_rng(83)
        masks = [["fv"], ["cnn", "lbp"], ["lbp", "fv"], net.kind_names()]
        scores = []
        for mask in masks:
            feats = {k: rng.standard_normal(net.kind_by_name(k).input_dim) for k in mask}
            scores.append(client_query(feats, mask, net, server.endpoint).tobytes())
        assert sha256(b"".join(scores)) == CLIENT_SCORES_SHA256


# synth_generate(SYNTH_SPEC): attrs.txt, partition.txt and each bank's FBNK bytes
SYNTH_SPEC = SyntheticSpec(latent_dim=8, views=(ViewSpec("fv", 24, 0.1), ViewSpec("cnn", 16, 0.2),
                                                ViewSpec("lbp", 12, 0.4)),
                           n_attributes=8, n_train=300, n_val=100, n_test=100, seed=5)
SYNTH_ATTRS = "465f460f09b5b330bfb147984711928ac1151f37b78748ae244f5f691fad97d4"
SYNTH_SPLIT = "bea34f94846b927b1d5c27d2b899b9ab4a341290435a0c1e112dfef56fa214df"
SYNTH_BANKS = {
    "fv": "4942d09fc1ab411cd2761c4834400f9a2f792ef1d0b78c4f82d66128ca1ca1e2",
    "cnn": "cbb1fe41f6a29ba683d85a4cccec9f42c2ae338d8487e8ef82dba46a0f29f950",
    "lbp": "77b41eb5144dde7cda503e767e2474d39d75d995f2e320fb2f88f7664ef91d91",
}
# Dataset.arrays(split) on the synthetic data: ids, each kind's matrix, labels
SYNTH_STACKED = {
    "train": "f083f3868e22ff4d3c695088e0ccaa8c96bd48b1f5f74f3cefe29b180c32cc56",
    "val": "32eceaba2108edfa0e75cb7b84e6f0d9dd3e7cb088c457fc638efb1ceca67b6f",
    "test": "804138151fba98edae1ed750eb2cb76e4ee3492f165248f7932581426343d9b1",
}
# a bank filled through `add`, before and after a save_bank -> load_bank trip
ADDED_IDS = ["a", "", "synth_000001", "é", "画像_07", "x" * 300, "mixed-Länge"]
ADDED_BANK = "9a29e7be9905f4bc1b24c3a1317fbdc5267fdee2dbb4f228337bb6de45eea8c5"


def added_bank() -> FeatureBank:
    bank = FeatureBank("lbp_é", 5, {})
    for img_id, vec in zip(ADDED_IDS, make_rng(91).standard_normal((len(ADDED_IDS), 5))):
        bank.add(img_id, vec)
    return bank


class TestDataGolden:
    @pytest.fixture(scope="class")
    def synth(self):
        return synth_generate(SYNTH_SPEC)

    def test_attr_and_split_files(self, synth):
        table, _ = synth
        assert sha256(format_attr_file(table).encode()) == SYNTH_ATTRS
        assert sha256(format_split_file(table.splits).encode()) == SYNTH_SPLIT

    def test_synth_banks(self, synth):
        _, banks = synth
        assert {name: sha256(bank_to_bytes(bank)) for name, bank in banks.items()} == SYNTH_BANKS

    @pytest.mark.parametrize("split", sorted(SYNTH_STACKED))
    def test_stacked_split(self, synth, split):
        ids, xs, y = Dataset(*synth).arrays(split)
        stacked = [("\n".join(ids)).encode(), *(x.tobytes() for x in xs.values()), y.tobytes()]
        assert sha256(b"".join(stacked)) == SYNTH_STACKED[split]

    def test_added_bank_and_its_round_trip(self, tmp_path):
        bank = added_bank()
        assert sha256(bank_to_bytes(bank)) == ADDED_BANK
        save_bank(bank, tmp_path / "b.fbnk")
        again = load_bank(tmp_path / "b.fbnk")
        assert list(again.entries) == ADDED_IDS
        assert sha256(bank_to_bytes(again)) == ADDED_BANK
