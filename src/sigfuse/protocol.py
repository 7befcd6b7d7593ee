"""Client-server signature transport.

Requests and replies share one frame layout and one codec:
magic 4s | version u8 | byte u8 | count u16 LE | count x f32 LE.
Byte 5 is the mask in a request (magic "UFSG", payload the signature)
and the status in a reply ("UFSR", payload the scores). Frames are
length-determined, so concatenated frames split unambiguously. The mask
byte is informational only: the server scores whatever signature arrives
and never looks at which features built it.
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

from .model import (HybridNet, encode_signature, load_trunk, mask_to_bits,
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
# seconds a handler waits on each read or write of its connection; a
# client that stalls longer, mid-frame or between frames, is disconnected
READ_TIMEOUT_S = 10.0

_HEADER = struct.Struct("<4sBBH")
# per magic: what error messages call the frame, its payload and its count
_NAMES = {REQUEST_MAGIC: ("request", "signature", "dim"),
          RESPONSE_MAGIC: ("response", "score", "count")}


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
    mask_bits: int
    values: np.ndarray  # float32, length dim


@dataclass
class ScoreResponse:
    status: int
    scores: np.ndarray  # float32; empty unless status == 0


def _encode(magic: bytes, byte: int, values) -> bytes:
    values = np.asarray(values, dtype="<f4").reshape(-1)
    if values.size > 0xFFFF:
        _, payload, count = _NAMES[magic]
        raise ValueError(f"{payload} {count} {values.size} exceeds the u16 limit")
    return _HEADER.pack(magic, PROTOCOL_VERSION, byte, values.size) + values.tobytes()


def _decode(magic: bytes, data: bytes) -> tuple[int, np.ndarray]:
    """Byte 5 and the values of `data`, one whole frame that must carry `magic`."""
    if len(data) < _HEADER.size:
        raise FrameError("truncated", f"frame shorter than header ({len(data)} bytes)")
    got, version, byte, count = _HEADER.unpack_from(data)
    name, _, count_name = _NAMES[magic]
    if got != magic:
        raise FrameError("bad-magic", f"bad {name} magic {got!r}")
    if version != PROTOCOL_VERSION:
        raise FrameError("bad-version", f"unsupported protocol version {version}")
    expected = _HEADER.size + 4 * count
    if len(data) != expected:
        raise FrameError("length-mismatch",
                         f"frame is {len(data)} bytes, {count_name} {count} implies {expected}")
    return byte, np.frombuffer(data, dtype="<f4", count=count, offset=_HEADER.size).copy()


def _read_frame(sock: socket.socket) -> bytes:
    """One whole frame from `sock`, its length taken from its header, or
    b"" when the peer closed before the frame's first byte."""
    frame, size = b"", _HEADER.size
    while len(frame) < size:
        chunk = sock.recv(size - len(frame))
        if not chunk:
            if frame:
                raise FrameError("truncated", "connection closed mid-frame")
            return b""
        frame += chunk
        if len(frame) == _HEADER.size:
            size += 4 * _HEADER.unpack(frame)[3]
    return frame


def encode_request(signature: np.ndarray, mask_bits: int) -> bytes:
    if not 0 < mask_bits <= 0xFF:
        raise ValueError(f"mask byte must be in 1..255, got {mask_bits}")
    return _encode(REQUEST_MAGIC, mask_bits, signature)


def decode_request(data: bytes) -> SignatureRequest:
    mask_bits, values = _decode(REQUEST_MAGIC, data)
    if mask_bits == 0:
        raise FrameError("empty-mask", "mask byte must be nonzero")
    return SignatureRequest(mask_bits, values)


def encode_response(status: int, scores: np.ndarray | None = None) -> bytes:
    return _encode(RESPONSE_MAGIC, status, scores if status == STATUS_OK else ())


def decode_response(data: bytes) -> ScoreResponse:
    status, scores = _decode(RESPONSE_MAGIC, data)
    if status != STATUS_OK and scores.size:
        raise FrameError("nonempty-error", "error responses must carry no scores")
    return ScoreResponse(status, scores)


def score_signature(net: HybridNet, values: np.ndarray) -> tuple[int, np.ndarray]:
    """Server-side scoring; refuses non-finite payloads."""
    if values.size != net.signature_dim:
        return STATUS_DIM_MISMATCH, np.empty(0)
    if not np.all(np.isfinite(values)):
        return STATUS_SERVER_ERROR, np.empty(0)
    return STATUS_OK, trunk_forward(values, net.trunk)


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        net = self.server.net
        sock = self.request
        sock.settimeout(READ_TIMEOUT_S)  # TimeoutError is an OSError: close
        while True:
            try:
                frame = _read_frame(sock)
                if not frame:
                    return
                request = decode_request(frame)
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
    """Concurrent score server; the loaded model is shared immutable state.

    The listen backlog is the system's largest, not `socketserver`'s 5: a
    burst of connects beyond the backlog has its SYNs dropped, and each
    dropped client waits out a 1 s retry before it is even accepted."""

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = socket.SOMAXCONN

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
    """Start a serving process's server: load the model's trunk, run BLAS
    on one thread and bind. The branch bytes are read and checked but not
    kept: clients run the branches, the server only the trunk. Requests
    already run concurrently, one handler thread each, so a 1-row trunk
    matvec spread over more BLAS threads only takes cores from the other
    requests. The BLAS line goes to stderr.
    `SignatureServer` itself leaves the process's BLAS threads alone.
    """
    net = load_trunk(model_path)
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
        reply = _read_frame(sock)
    if not reply:
        raise FrameError("truncated", "server closed without responding")
    response = decode_response(reply)
    if response.status != STATUS_OK:
        raise ProtocolError(response.status)
    return response.scores
