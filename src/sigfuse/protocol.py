"""Client-server signature transport.

Request frame:  magic "UFSG" | version u8 | mask u8 | dim u16 LE | dim x f32 LE
Response frame: magic "UFSR" | version u8 | status u8 | count u16 LE | count x f32 LE

Both grammars are length-determined, so concatenated frames split
unambiguously. The mask byte is informational only: the server scores
whatever signature arrives and never looks at which features built it.
Statuses: 0 ok, 1 bad frame, 2 dimension mismatch, 3 server error.
"""

from __future__ import annotations

import ctypes
import socket
import socketserver
import struct
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (HybridNet, encode_signature, load_model, mask_to_bits,
                    trunk_forward)

REQUEST_MAGIC = b"UFSG"
RESPONSE_MAGIC = b"UFSR"
PROTOCOL_VERSION = 1

STATUS_OK = 0
STATUS_BAD_FRAME = 1
STATUS_DIM_MISMATCH = 2
STATUS_SERVER_ERROR = 3

# seconds between shutdown checks of a server run by `serve_in_background`;
# `shutdown()` waits up to this long
BACKGROUND_POLL_S = 0.05

_REQ_HEADER = struct.Struct("<4sBBH")
_RESP_HEADER = struct.Struct("<4sBBH")


class FrameError(ValueError):
    """Malformed frame; `code` names the specific failure."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ProtocolError(RuntimeError):
    """Non-OK status returned by the server."""

    def __init__(self, status: int):
        super().__init__(f"server returned status {status}")
        self.status = status


@dataclass
class SignatureRequest:
    version: int
    mask_bits: int
    values: np.ndarray  # float32, length dim


@dataclass
class ScoreResponse:
    version: int
    status: int
    scores: np.ndarray  # float32; empty unless status == 0


def encode_request(signature: np.ndarray, mask_bits: int) -> bytes:
    values = np.asarray(signature, dtype="<f4").reshape(-1)
    if values.size > 0xFFFF:
        raise ValueError(f"signature dim {values.size} exceeds the u16 limit")
    if not 0 < mask_bits <= 0xFF:
        raise ValueError(f"mask byte must be in 1..255, got {mask_bits}")
    return _REQ_HEADER.pack(REQUEST_MAGIC, PROTOCOL_VERSION, mask_bits,
                            values.size) + values.tobytes()


def decode_request(data: bytes) -> SignatureRequest:
    if len(data) < _REQ_HEADER.size:
        raise FrameError("truncated", f"frame shorter than header ({len(data)} bytes)")
    magic, version, mask_bits, dim = _REQ_HEADER.unpack_from(data)
    if magic != REQUEST_MAGIC:
        raise FrameError("bad-magic", f"bad request magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise FrameError("bad-version", f"unsupported protocol version {version}")
    if mask_bits == 0:
        raise FrameError("empty-mask", "mask byte must be nonzero")
    expected = _REQ_HEADER.size + 4 * dim
    if len(data) != expected:
        raise FrameError("length-mismatch",
                         f"frame is {len(data)} bytes, dim {dim} implies {expected}")
    values = np.frombuffer(data, dtype="<f4", count=dim, offset=_REQ_HEADER.size)
    return SignatureRequest(version, mask_bits, values.copy())


def encode_response(status: int, scores: np.ndarray | None = None) -> bytes:
    if status == STATUS_OK:
        values = np.asarray(scores, dtype="<f4").reshape(-1)
    else:
        values = np.empty(0, dtype="<f4")
    if values.size > 0xFFFF:
        raise ValueError(f"score count {values.size} exceeds the u16 limit")
    return _RESP_HEADER.pack(RESPONSE_MAGIC, PROTOCOL_VERSION, status,
                             values.size) + values.tobytes()


def decode_response(data: bytes) -> ScoreResponse:
    if len(data) < _RESP_HEADER.size:
        raise FrameError("truncated", f"frame shorter than header ({len(data)} bytes)")
    magic, version, status, count = _RESP_HEADER.unpack_from(data)
    if magic != RESPONSE_MAGIC:
        raise FrameError("bad-magic", f"bad response magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise FrameError("bad-version", f"unsupported protocol version {version}")
    expected = _RESP_HEADER.size + 4 * count
    if len(data) != expected:
        raise FrameError("length-mismatch",
                         f"frame is {len(data)} bytes, count {count} implies {expected}")
    if status != STATUS_OK and count != 0:
        raise FrameError("nonempty-error", "error responses must carry no scores")
    values = np.frombuffer(data, dtype="<f4", count=count, offset=_RESP_HEADER.size)
    return ScoreResponse(version, status, values.copy())


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            if chunks:
                raise FrameError("truncated", "connection closed mid-frame")
            return b""
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def score_signature(net: HybridNet, values: np.ndarray) -> tuple[int, np.ndarray]:
    """Server-side scoring; refuses non-finite payloads."""
    if values.size != net.signature_dim:
        return STATUS_DIM_MISMATCH, np.empty(0)
    if not np.all(np.isfinite(values)):
        return STATUS_SERVER_ERROR, np.empty(0)
    return STATUS_OK, trunk_forward(values.astype(np.float64), net.trunk)


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        net = self.server.net
        sock = self.request
        while True:
            try:
                header = _recv_exact(sock, _REQ_HEADER.size)
                if not header:
                    return
                magic, version, mask_bits, dim = _REQ_HEADER.unpack_from(header)
                payload = _recv_exact(sock, 4 * dim)
                if len(payload) != 4 * dim:
                    raise FrameError("truncated", "connection closed mid-frame")
                request = decode_request(header + payload)
            except FrameError:
                try:
                    sock.sendall(encode_response(STATUS_BAD_FRAME))
                except OSError:
                    pass
                return
            except OSError:
                return
            try:
                status, scores = score_signature(net, request.values)
            except Exception:
                status, scores = STATUS_SERVER_ERROR, np.empty(0)
            try:
                sock.sendall(encode_response(status, scores))
            except OSError:
                return


class SignatureServer(socketserver.ThreadingTCPServer):
    """Concurrent score server; the loaded model is shared immutable state."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, net: HybridNet, host: str = "127.0.0.1", port: int = 0):
        self.net = net
        super().__init__((host, port), _Handler)

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.socket.getsockname()[:2]

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True,
                                  kwargs={"poll_interval": BACKGROUND_POLL_S})
        thread.start()
        return thread


def _pin_blas_to_one_thread() -> str:
    """Run the OpenBLAS that numpy loaded on one thread; return a line
    naming the library and its thread count, or why it was left alone.

    OpenBLAS splits gemv and gemm over output elements, never over the
    reduction, so a score has the same bits at any thread count.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))  # the copy numpy already loaded
        except OSError as exc:
            return f"blas: cannot open {lib.name} ({exc}); thread count left as is"
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            setter = getattr(handle, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                getter = getattr(handle, name.replace("_set_", "_get_"))
                getter.argtypes, getter.restype = [], ctypes.c_int
                return f"blas: {lib.name} threads={getter()}"
    return f"blas: no OpenBLAS thread setter in {libs}; thread count left as is"


def serve(model_path, host: str = "127.0.0.1", port: int = 0) -> SignatureServer:
    """Start a serving process's server: load the model, run BLAS on one
    thread and bind. Requests already run concurrently, one handler thread
    each, so a 1-row trunk matvec spread over more BLAS threads only takes
    cores from the other requests. The BLAS line goes to stderr.
    `SignatureServer` itself leaves the process's BLAS threads alone.
    """
    net = load_model(model_path)
    print(_pin_blas_to_one_thread(), file=sys.stderr, flush=True)
    return SignatureServer(net, host, port)


def client_query(features: dict, mask, net: HybridNet,
                 endpoint: tuple[str, int], timeout: float = 10.0) -> np.ndarray:
    """Branch-encode the masked features locally, merge them into one
    signature, transmit a single frame and return the decoded scores."""
    signature = encode_signature(features, mask, net)
    frame = encode_request(signature, mask_to_bits(mask, net))
    with socket.create_connection(endpoint, timeout=timeout) as sock:
        sock.sendall(frame)
        header = _recv_exact(sock, _RESP_HEADER.size)
        if not header:
            raise FrameError("truncated", "server closed without responding")
        _, _, _, count = _RESP_HEADER.unpack_from(header)
        payload = _recv_exact(sock, 4 * count)
        response = decode_response(header + payload)
    if response.status != STATUS_OK:
        raise ProtocolError(response.status)
    return response.scores
