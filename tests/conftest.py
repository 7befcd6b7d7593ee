"""Shared pytest hooks: the report header names the BLAS library numpy
loaded, the kernel it picked and its thread count, and numpy's version
and the SIMD dispatch targets it enabled, since the golden float pins
hold for one kernel, dispatch level and thread count; the `environment`
fixture gives both lines to such pins' failure messages. Also the
`mute_server` fixture, a peer that reads a request and never replies, and
an autouse fixture that unsets the `SIGFUSE_*` variables the CLI reads,
so that no test sees the caller's model, port or seed."""

import socket
import struct
import threading

import numpy as np
import pytest

from sigfuse import blas

try:  # numpy 2.x; numpy 1.x keeps them in numpy.core
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


class _NumpyHeader:
    """A header line of its own, so that the `blas: ` line stays one string.
    It lists what `np.show_runtime()` calls "found": numpy's dispatch
    targets that this CPU has and the environment left enabled."""

    @staticmethod
    def pytest_report_header(config):
        enabled = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
        return f"numpy: {np.__version__} dispatch={','.join(enabled) or 'baseline only'}"


def pytest_configure(config):
    config.pluginmanager.register(_NumpyHeader(), "sigfuse-numpy-header")


def pytest_report_header(config):
    lib = blas.openblas()
    if lib is None:
        return f"blas: no OpenBLAS in {blas.LIBS}"
    threads = lib.threads() if lib.threads is not None else "?"
    return f"blas: {lib.name} core={lib.core_name()} threads={threads}"


@pytest.fixture(autouse=True)
def _no_cli_environment(monkeypatch):
    for name in ("SIGFUSE_MODEL", "SIGFUSE_PORT", "SIGFUSE_SEED"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="session")
def environment():
    """The two header lines as one string, for the failure message of a
    pin that holds for one BLAS kernel and numpy dispatch level."""
    return f"{pytest_report_header(None)}; {_NumpyHeader.pytest_report_header(None)}"


@pytest.fixture
def mute_server():
    """(host, port) of a listener that accepts one connection, reads one
    whole request frame from it and closes it without a reply."""
    listener = socket.create_server(("127.0.0.1", 0))

    def read(conn, n):
        data = b""
        while len(data) < n and (chunk := conn.recv(n - len(data))):
            data += chunk
        return data

    def accept_one():
        conn, _ = listener.accept()
        with conn:
            header = read(conn, 8)
            if len(header) == 8:
                read(conn, 4 * struct.unpack_from("<H", header, 6)[0])

    thread = threading.Thread(target=accept_one, daemon=True)
    thread.start()
    yield listener.getsockname()[:2]
    listener.close()
    thread.join(timeout=5)
