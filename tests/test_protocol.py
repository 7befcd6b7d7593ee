import queue
import re
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from sigfuse.model import (PROFILES, Profile, TrunkParams, build_net,
                           load_model, mask_to_bits, model_to_bytes,
                           net_forward, save_model, trunk_forward)
from sigfuse import protocol
from sigfuse.nn import DenseLayer, make_rng
from sigfuse.protocol import (PROTOCOL_VERSION, STATUS_BAD_FRAME,
                              STATUS_DIM_MISMATCH, STATUS_OK,
                              STATUS_SERVER_ERROR, FrameError, ProtocolError,
                              SignatureServer, client_query, decode_request,
                              decode_response, encode_request,
                              encode_response, score_signature)

DESK = PROFILES["desk"]


def desk_net(seed=0):
    return build_net([("fv", 6), ("cnn", 5), ("lbp", 4)], DESK, seed)


@pytest.fixture
def server():
    srv = SignatureServer(desk_net(seed=21))
    srv.serve_in_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def raw_exchange(endpoint, payload: bytes) -> bytes:
    with socket.create_connection(endpoint, timeout=5) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestRequestCodec:
    def test_zero_signature_frame_layout(self):
        frame = encode_request(np.zeros(2), mask_bits=1)
        assert len(frame) == 16
        assert frame[:4] == b"UFSG"
        assert frame[8:] == b"\x00" * 8

    def test_fuzz_roundtrip_bit_exact(self):
        rng = make_rng(31)
        for _ in range(200):
            dim = int(rng.integers(1, 64))
            values = rng.standard_normal(dim).astype(np.float32)
            mask = int(rng.integers(1, 8))
            req = decode_request(encode_request(values, mask))
            assert req.mask_bits == mask
            assert req.values.tobytes() == values.tobytes()

    def test_empty_mask_refused(self):
        with pytest.raises(ValueError, match="mask"):
            encode_request(np.zeros(2), mask_bits=0)

    def test_oversize_dim_refused(self):
        with pytest.raises(ValueError, match="u16"):
            encode_request(np.zeros(70000), mask_bits=1)

    def test_flipped_magic(self):
        frame = bytearray(encode_request(np.zeros(3), 1))
        frame[0] ^= 0x01
        with pytest.raises(FrameError) as exc:
            decode_request(bytes(frame))
        assert exc.value.code == "bad-magic"

    def test_truncated_payload(self):
        frame = encode_request(np.ones(3), 1)
        with pytest.raises(FrameError) as exc:
            decode_request(frame[:-2])
        assert exc.value.code == "length-mismatch"

    def test_trailing_bytes(self):
        frame = encode_request(np.ones(3), 1)
        with pytest.raises(FrameError):
            decode_request(frame + b"\x00")

    def test_bad_version(self):
        frame = bytearray(encode_request(np.zeros(1), 1))
        frame[4] = PROTOCOL_VERSION + 1
        with pytest.raises(FrameError) as exc:
            decode_request(bytes(frame))
        assert exc.value.code == "bad-version"

    def test_nan_payload_decodes(self):
        values = np.array([np.nan, np.inf], dtype=np.float32)
        req = decode_request(encode_request(values, 1))
        assert req.values.tobytes() == values.tobytes()


class TestResponseCodec:
    def test_roundtrip(self):
        scores = make_rng(32).random(40).astype(np.float32)
        resp = decode_response(encode_response(STATUS_OK, scores))
        assert resp.status == STATUS_OK
        assert resp.scores.tobytes() == scores.tobytes()

    def test_error_response_carries_no_scores(self):
        resp = decode_response(encode_response(STATUS_DIM_MISMATCH))
        assert resp.status == STATUS_DIM_MISMATCH
        assert resp.scores.size == 0

    def test_error_with_scores_rejected(self):
        frame = bytearray(encode_response(STATUS_OK, np.zeros(2, np.float32)))
        frame[5] = STATUS_BAD_FRAME
        with pytest.raises(FrameError):
            decode_response(bytes(frame))


class TestScoring:
    def test_zero_signature_zero_trunk_gives_half(self):
        net = desk_net()
        net.trunk = TrunkParams(
            DenseLayer(np.zeros((net.signature_dim, 3)), np.zeros(3)),
            DenseLayer(np.zeros((3, 3)), np.zeros(3)),
            DenseLayer(np.zeros((3, net.n_outputs)), np.zeros(net.n_outputs)))
        status, scores = score_signature(net, np.zeros(net.signature_dim))
        assert status == STATUS_OK
        np.testing.assert_array_equal(scores, np.full(net.n_outputs, 0.5))

    def test_dim_mismatch(self):
        status, _ = score_signature(desk_net(), np.zeros(7))
        assert status == STATUS_DIM_MISMATCH

    def test_non_finite_refused(self):
        net = desk_net()
        sig = np.zeros(net.signature_dim)
        sig[0] = np.nan
        status, _ = score_signature(net, sig)
        assert status == STATUS_SERVER_ERROR


class TestServer:
    def test_loopback_matches_local_trunk_forward(self, server):
        net = server.net
        sig = make_rng(33).standard_normal(net.signature_dim)
        frame = encode_request(sig, 1)
        raw = raw_exchange(server.endpoint, frame)
        resp = decode_response(raw)
        assert resp.status == STATUS_OK
        local = trunk_forward(np.asarray(sig, dtype="<f4").astype(np.float64),
                              net.trunk).astype("<f4")
        assert resp.scores.tobytes() == local.tobytes()

    def test_malformed_frame_gets_error_status(self, server):
        raw = raw_exchange(server.endpoint, b"GARBAGE-" + b"\x00" * 8)
        resp = decode_response(raw)
        assert resp.status == STATUS_BAD_FRAME

    def test_truncated_stream_survives(self, server):
        frame = encode_request(np.zeros(8), 1)
        raw_exchange(server.endpoint, frame[:11])
        # server must still answer well-formed requests afterwards
        resp = decode_response(raw_exchange(server.endpoint,
                                            encode_request(np.zeros(server.net.signature_dim), 1)))
        assert resp.status == STATUS_OK

    def test_dim_mismatch_status(self, server):
        resp = decode_response(raw_exchange(server.endpoint,
                                            encode_request(np.zeros(3), 1)))
        assert resp.status == STATUS_DIM_MISMATCH

    def test_multiple_requests_per_connection(self, server):
        dim = server.net.signature_dim
        frame = encode_request(np.ones(dim), 1)
        with socket.create_connection(server.endpoint, timeout=5) as sock:
            for _ in range(3):
                sock.sendall(frame)
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        size = len(data) // 3
        first = data[:size]
        assert data == first * 3
        assert decode_response(first).status == STATUS_OK

    def test_concurrent_clients_identical_answers(self, server):
        net = server.net
        sig = make_rng(34).standard_normal(net.signature_dim)
        frame = encode_request(sig, 3)
        expected = raw_exchange(server.endpoint, frame)
        results = [None] * 16
        def worker(i):
            results[i] = raw_exchange(server.endpoint, frame)
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == expected for r in results)

    def test_a_burst_of_64_connects_is_answered(self, server):
        """64 clients connect at once; each gets its reply, none is dropped
        from the listen backlog."""
        assert server.request_queue_size == socket.SOMAXCONN
        sigs = make_rng(37).standard_normal((64, server.net.signature_dim))
        frames = [encode_request(sig, 1 + i % 7) for i, sig in enumerate(sigs)]
        expected = [raw_exchange(server.endpoint, f) for f in frames]
        results = [None] * 64
        start = threading.Barrier(64, timeout=10)

        def worker(i):
            start.wait()
            try:
                results[i] = raw_exchange(server.endpoint, frames[i])
            except OSError as exc:
                results[i] = exc

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert results == expected


class TestOneReplyPerFrame:
    """On one connection every request frame gets its own reply, and a
    fault while scoring one frame does not end the connection."""

    def test_nan_payload_then_a_valid_frame(self, server):
        dim, n_attr = server.net.signature_dim, server.net.n_outputs
        nan = np.full(dim, np.nan)
        data = raw_exchange(server.endpoint, encode_request(nan, 1)
                            + encode_request(np.ones(dim), 1))
        first, second = data[:8], data[8:]
        assert decode_response(first).status == STATUS_SERVER_ERROR
        assert decode_response(second).status == STATUS_OK
        assert len(second) == 8 + 4 * n_attr

    def test_a_scoring_fault_is_status_3_and_the_next_frame_is_scored(self, server,
                                                                        monkeypatch):
        real = protocol.score_signature
        calls = []

        def flaky(net, values):
            calls.append(1)
            if len(calls) == 1:
                raise MemoryError("scoring fault")
            return real(net, values)

        monkeypatch.setattr(protocol, "score_signature", flaky)
        frame = encode_request(np.ones(server.net.signature_dim), 1)
        data = raw_exchange(server.endpoint, frame + frame)
        assert decode_response(data[:8]).status == STATUS_SERVER_ERROR
        assert decode_response(data[8:]).status == STATUS_OK

    def test_a_scoring_fault_is_logged_with_its_type(self, server, monkeypatch, caplog):
        def faulty(net, values):
            raise MemoryError("scoring fault")

        monkeypatch.setattr(protocol, "score_signature", faulty)
        frame = encode_request(np.ones(server.net.signature_dim), 1)
        with caplog.at_level("ERROR", logger="sigfuse.protocol"):
            data = raw_exchange(server.endpoint, frame)
        assert data == encode_response(STATUS_SERVER_ERROR)
        [record] = caplog.records
        assert record.name == "sigfuse.protocol"
        assert "MemoryError('scoring fault')" in record.getMessage()
        assert record.exc_info[0] is MemoryError

    def test_a_nan_payload_logs_nothing(self, server, caplog):
        frame = encode_request(np.full(server.net.signature_dim, np.nan), 1)
        with caplog.at_level("DEBUG", logger="sigfuse.protocol"):
            data = raw_exchange(server.endpoint, frame)
        assert data == encode_response(STATUS_SERVER_ERROR)
        assert not caplog.records

    def test_a_bad_frame_after_a_good_one_ends_the_connection(self, server):
        good = encode_request(np.ones(server.net.signature_dim), 1)
        data = raw_exchange(server.endpoint, good + b"GARBAGE-" + bytes(8) + good)
        ok_size = 8 + 4 * server.net.n_outputs
        assert decode_response(data[:ok_size]).status == STATUS_OK
        assert decode_response(data[ok_size:]).status == STATUS_BAD_FRAME


class TestReadDeadline:
    """A client that stalls mid-frame or between frames is disconnected
    after READ_TIMEOUT_S, and its handler thread ends."""

    def test_stalled_clients_are_disconnected(self, monkeypatch):
        monkeypatch.setattr(protocol, "READ_TIMEOUT_S", 0.2)
        srv = SignatureServer(desk_net(seed=21))
        srv.serve_in_background()
        baseline = set(threading.enumerate())
        frame = encode_request(np.ones(srv.net.signature_dim), 1)
        try:
            socks = [socket.create_connection(srv.endpoint, timeout=5) for _ in range(5)]
            started = time.monotonic()
            for sock in socks[:4]:
                sock.sendall(frame[:6])  # magic, version, mask: no count
            socks[4].sendall(frame)
            assert decode_response(socks[4].recv(65536)).status == STATUS_OK
            for sock in socks:
                assert sock.recv(1) == b""  # closed, with no reply
                sock.close()
            assert time.monotonic() - started >= 0.2
            deadline = time.monotonic() + 5
            while set(threading.enumerate()) - baseline and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not set(threading.enumerate()) - baseline
            assert decode_response(raw_exchange(srv.endpoint, frame)).status == STATUS_OK
        finally:
            srv.shutdown()
            srv.server_close()


class TestHandlerThreads:
    """A connection goes to an idle handler thread, and a thread starts
    only when none is idle; idle threads end after READ_TIMEOUT_S, or at
    once when the server is closed. No client waits behind another's
    connection."""

    @staticmethod
    def pinned(net, seed):
        """A request and its reply bytes, computed without the server."""
        sig = make_rng(seed).standard_normal(net.signature_dim).astype("<f4")
        scores = trunk_forward(sig.astype(np.float64), net.trunk)
        return encode_request(sig, 1), encode_response(STATUS_OK, scores)

    @staticmethod
    def burst(endpoint, frame, n):
        """The replies to `n` exchanges of `frame` started at once."""
        results = [None] * n
        start = threading.Barrier(n, timeout=10)

        def client(i):
            start.wait()
            results[i] = raw_exchange(endpoint, frame)

        clients = [threading.Thread(target=client, args=(i,)) for i in range(n)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=10)
        return results

    @staticmethod
    def wait_for_baseline(baseline, seconds):
        deadline = time.monotonic() + seconds
        while set(threading.enumerate()) - baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        return set(threading.enumerate()) - baseline

    def test_connections_one_after_another_share_one_thread(self, server, monkeypatch):
        real, handlers = SignatureServer.finish_request, []

        def recording(self, request, client_address):
            # the Thread object, not get_ident(): an ended thread's ident
            # may be given to the next thread started
            handlers.append(threading.current_thread())
            return real(self, request, client_address)

        monkeypatch.setattr(SignatureServer, "finish_request", recording)
        frame, reply = self.pinned(server.net, 51)
        for _ in range(6):
            assert raw_exchange(server.endpoint, frame) == reply
            time.sleep(0.05)
        assert len(handlers) == 6 and all(h is handlers[0] for h in handlers)

    def test_stalled_clients_do_not_delay_a_good_one(self, monkeypatch):
        monkeypatch.setattr(protocol, "READ_TIMEOUT_S", 2.0)
        srv = SignatureServer(desk_net(seed=21))
        srv.serve_in_background()
        frame, reply = self.pinned(srv.net, 52)
        stalled = []
        try:
            for _ in range(12):
                sock = socket.create_connection(srv.endpoint, timeout=5)
                sock.sendall(frame[:6])  # magic, version, mask: no count
                stalled.append(sock)
            time.sleep(0.1)  # every stalled connection holds a thread
            started = time.monotonic()
            assert raw_exchange(srv.endpoint, frame) == reply
            assert time.monotonic() - started < 0.5
        finally:
            for sock in stalled:
                sock.close()
            srv.shutdown()
            srv.server_close()

    def test_server_close_ends_every_thread(self):
        """Idle threads end at the close, and a thread whose connection is
        open at the close ends with its connection."""
        assert protocol.READ_TIMEOUT_S == 10.0
        baseline = set(threading.enumerate())
        srv = SignatureServer(desk_net(seed=21))
        srv.serve_in_background()
        frame, reply = self.pinned(srv.net, 53)
        assert self.burst(srv.endpoint, frame, 16) == [reply] * 16
        with socket.create_connection(srv.endpoint, timeout=5) as open_conn:
            open_conn.sendall(frame)
            assert open_conn.recv(65536) == reply
            srv.shutdown()
            srv.server_close()
        assert not self.wait_for_baseline(baseline, 1.0)

    def test_idle_threads_end_by_themselves(self, monkeypatch):
        monkeypatch.setattr(protocol, "READ_TIMEOUT_S", 0.2)
        srv = SignatureServer(desk_net(seed=21))
        srv.serve_in_background()
        baseline = set(threading.enumerate())
        frame, reply = self.pinned(srv.net, 54)
        try:
            assert self.burst(srv.endpoint, frame, 4) == [reply] * 4
            assert not self.wait_for_baseline(baseline, 2.0)
            assert raw_exchange(srv.endpoint, frame) == reply
        finally:
            srv.shutdown()
            srv.server_close()

    def test_a_connection_queued_as_an_idle_thread_times_out_is_taken(self, monkeypatch):
        """The idle thread's wait ends just as a connection is queued for
        it; the thread takes the connection rather than end."""
        monkeypatch.setattr(protocol, "READ_TIMEOUT_S", 0.2)
        timed_out = threading.Event()

        class SlowTimeout:  # holds each timed-out waiter back for 0.3 s
            def __init__(self, jobs):
                self.jobs = jobs

            def put(self, job):
                self.jobs.put(job)

            def empty(self):
                return self.jobs.empty()

            def get(self, timeout):
                try:
                    return self.jobs.get(timeout=timeout)
                except queue.Empty:
                    timed_out.set()
                    time.sleep(0.3)
                    raise

        srv = SignatureServer(desk_net(seed=21))
        srv._jobs = SlowTimeout(srv._jobs)
        srv.serve_in_background()
        frame, reply = self.pinned(srv.net, 56)
        try:
            assert raw_exchange(srv.endpoint, frame) == reply
            assert timed_out.wait(timeout=5)
            assert raw_exchange(srv.endpoint, frame) == reply
        finally:
            srv.shutdown()
            srv.server_close()

    def test_idle_count_survives_racing_timeouts(self, monkeypatch):
        """Idle threads time out while new connections arrive, with the
        interpreter switching threads often; no connection is stranded,
        and once every thread has ended, new connections still start one."""
        monkeypatch.setattr(protocol, "READ_TIMEOUT_S", 0.1)
        srv = SignatureServer(desk_net(seed=21))
        srv.serve_in_background()
        baseline = set(threading.enumerate())
        frame, reply = self.pinned(srv.net, 55)
        results = [[] for _ in range(8)]

        def client(i):
            pauses = make_rng(60 + i).uniform(0, 0.15, 20)
            for pause in pauses:
                results[i].append(raw_exchange(srv.endpoint, frame))
                time.sleep(pause)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in clients)
            assert results == [[reply] * 20] * 8
            assert not self.wait_for_baseline(baseline, 2.0)
            assert self.burst(srv.endpoint, frame, 4) == [reply] * 4
        finally:
            sys.setswitchinterval(interval)
            srv.shutdown()
            srv.server_close()


class TestClientQuery:
    def test_single_kind_loopback_matches_local_forward(self, server):
        net = server.net
        feats = {"lbp": make_rng(35).standard_normal(4)}
        scores = client_query(feats, ["lbp"], net, server.endpoint)
        _, local = net_forward(feats, ["lbp"], net)
        np.testing.assert_allclose(scores, local, atol=1e-5)

    def test_full_mask_loopback(self, server):
        net = server.net
        rng = make_rng(36)
        feats = {k.name: rng.standard_normal(k.input_dim) for k in net.kinds}
        scores = client_query(feats, net.kind_names(), net, server.endpoint)
        _, local = net_forward(feats, net.kind_names(), net)
        np.testing.assert_allclose(scores, local, atol=1e-5)

    def test_single_frame_for_multi_kind_mask(self, server):
        net = server.net
        rng = make_rng(37)
        feats = {k.name: rng.standard_normal(k.input_dim) for k in net.kinds}
        sent = []
        real_sendall = socket.socket.sendall

        def counting_sendall(self, data, *a):
            sent.append(bytes(data))
            return real_sendall(self, data, *a)

        socket.socket.sendall = counting_sendall
        try:
            client_query(feats, net.kind_names(), net, server.endpoint)
        finally:
            socket.socket.sendall = real_sendall
        client_frames = [d for d in sent if d[:4] == b"UFSG"]
        assert len(client_frames) == 1
        assert len(client_frames[0]) == 8 + 4 * net.signature_dim

    def test_unreachable_endpoint(self):
        net = desk_net()
        feats = {"fv": np.zeros(6)}
        with pytest.raises(OSError):
            client_query(feats, ["fv"], net, ("127.0.0.1", 1), timeout=0.5)

    def test_nonzero_status_surfaced(self, server):
        other = build_net([("fv", 6)], PROFILES["paper"], 0)
        feats = {"fv": np.zeros(6)}
        with pytest.raises(ProtocolError) as exc:
            client_query(feats, ["fv"], other, server.endpoint)
        assert exc.value.status == STATUS_DIM_MISMATCH


class TestServeProcess:
    def test_one_blas_thread_gives_the_threaded_bytes(self, tmp_path):
        """`sigfuse serve` runs BLAS on one thread. At a trunk wide enough
        for OpenBLAS to split a 1-row matvec over threads, every reply still
        equals the scores this multi-threaded process computes."""
        path = tmp_path / "wide.hnet"
        save_model(build_net([("fv", 4)], Profile(16, 1024, 1024, 1024, 40), 6), path)
        net = load_model(path)  # HNET rounds the weights to f4
        rng = make_rng(6, 1)
        frames = [encode_request(rng.normal(size=1024), 1) for _ in range(16)]
        expected = [encode_response(STATUS_OK, trunk_forward(
            decode_request(f).values.astype(np.float64), net.trunk)) for f in frames]
        proc = subprocess.Popen(
            [sys.executable, "-m", "sigfuse.cli", "serve", "--model", str(path),
             "--port", "0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        watchdog = threading.Timer(30, proc.kill)  # a stalled server ends the reads
        watchdog.start()
        try:
            line = proc.stdout.readline()
            assert line.startswith(f"serving {path} on "), line
            host, _, port = line.split()[-1].rpartition(":")
            replies = [raw_exchange((host, int(port)), f) for f in frames]
        finally:
            watchdog.cancel()
            proc.kill()
            _, err = proc.communicate(timeout=10)
        assert replies == expected
        assert re.search(r"^blas: \S*openblas\S* threads=1$", err, re.M), err


class TestShortFramesAndMuteServers:
    """A frame shorter than its header, and a server that reads a request
    and closes without replying, are refused by name."""

    @pytest.mark.parametrize("size", [0, 3, 7])
    def test_frame_shorter_than_header(self, size):
        frame = encode_request(np.ones(2), 1)[:size]
        with pytest.raises(FrameError, match=rf"^frame shorter than header "
                                             rf"\({size} bytes\)$") as exc:
            decode_request(frame)
        assert exc.value.code == "truncated"

    def test_server_that_closes_without_replying(self, mute_server):
        net = desk_net()
        with pytest.raises(FrameError, match=r"^server closed without responding$") as exc:
            client_query({"fv": np.ones(6)}, ["fv"], net, mute_server)
        assert exc.value.code == "truncated"


class TestRequestFloat32Range:
    """The request encoder refuses a finite value beyond float32's range
    rather than send it as inf; NaN and ±inf still go out as they are."""

    @pytest.mark.parametrize("value", [1e39, -3.5e38, 1e300])
    def test_value_beyond_float32_refused(self, value):
        signature = np.ones(4)
        signature[2] = value
        with pytest.raises(ValueError, match=r"^signature holds a value beyond "
                                             r"float32's range$"):
            encode_request(signature, 1)

    def test_non_finite_values_still_encode(self):
        values = np.array([np.nan, np.inf, -np.inf, 1.0])
        frame = encode_request(values, 3)
        assert frame[8:] == values.astype("<f4").tobytes()

    def test_float32_max_is_sent(self):
        top = float(np.finfo(np.float32).max)
        req = decode_request(encode_request([top, -top], 1))
        assert req.values.tolist() == [top, -top]
