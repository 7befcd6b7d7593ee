"""Golden wire corpus: sha256 of seeded UFSG request frames and of the
exact UFSR reply bytes that an in-process `SignatureServer` sends back.

A fixed seed must give byte-identical wire frames, so a hash that changes
here is a change to the protocol, not a value to update.
"""

import hashlib
import socket

import numpy as np
import pytest

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
