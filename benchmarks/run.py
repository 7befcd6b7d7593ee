#!/usr/bin/env python3
"""sigfuse benchmark: three workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the program measured is the `sigfuse` package under
`src/` of the checkout that holds this file, imported from source.

Workloads (every input is generated from --seed):

- desk-train: synthetic K=3 views at desk widths (fv:24, cnn:16, lbp:12,
  latent 16, 8 attributes, 8000/1000/1000 examples). One pass writes the
  banks as FBNK and reads them back, trains all five regimes (3 epochs,
  batch 64), saves and reloads each model and sweeps the test split.
- paper-scale: `paper` widths. One pass runs 512 seeded 218x178 images
  through `lbp_extract` (cell 20, 4640 dims), saves and loads the LBP and
  a synthetic cnn:1024 bank as FBNK, trains multistage:lbp (1 epoch per
  stage, 384 training examples), saves and reloads the HNET and sweeps K=2
  five times, so that a run has enough sweeps for a steady median.
- serve: `sigfuse serve` runs as a subprocess on a paper-width HNET with
  kinds cnn:1024, lbp:4640, fv:2048. One load-generator process
  (loadgen.py) runs a closed loop of 2 client threads, each sending one
  UFSG frame per connection and waiting for the reply. One pass sends
  the whole pool of 224 signatures (32 examples under each of the 7
  masks), built in set-up with branch_forward/merge_sum so that
  client-side encoding is not timed. Every 2.5 s of load, server and
  load generator are replaced by fresh processes; their first pass is a
  warm-up and is not recorded.

Set-up runs nine times per run (serve: three). Passes repeat until
--seconds have passed. End-to-end metrics (--trace 0) are the same names
on every workload, see BENCHMARK.json:

- setup_s: median set-up time (generating inputs; for serve also saving
  and loading the HNET, building the pool and starting the server).
- throughput_per_s: training examples stepped by SGD per second of
  training (validation and checkpoint copies included), or queries/s.
- pass_s: median time in sigfuse calls for one pass.
- latency_p50_ms: median time of one combination sweep over a reloaded
  model (training workloads) or of one query (serve).
- io_mb_per_s: FBNK and HNET bytes saved plus loaded per second spent
  saving and loading (serve: the HNET saved and loaded twice in each
  set-up, median over the round trips).
- peak_rss_mb: peak RSS of the process running sigfuse's work (serve:
  the largest server process, as peak_rss.py records it).

On desk-train every time above (set-up, training, sweeps, saving and
loading) is rescaled to a host of fixed speed by HostSpeed: its
small-matmul work moves with the shared host's speed swings much as the
reference loop does. paper-scale's time goes to large multi-threaded
matmuls, which the loop does not track, and serve's to other processes,
so those two report wall time as measured.

The per-workload figures named after the operations (fbnk_load_mb_per_s,
query_p99_ms, ...) and the environment are printed on the line before the
result. Failed operations and checks count in `failed` of the result.

A traced run (--trace 1) spends the first half of --seconds on untraced
passes and the second half on traced ones; per-layer metrics are per
set-up plus per pass: counts from the first of each, self time as the
median over set-ups plus the median over traced passes. Counts must agree
across every traced pass, or the run fails. trace.overhead_pct compares
traced with untraced pass time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# sha256 of each desk-train model at seed 0, captured before any refactor
GOLDEN_SEED = 0
GOLDEN = {
    "dedicated:fv": "42d9e43ada79f7581c1cc880c875193483f1292ac041ab1f23e732ad43a6b6bf",
    "allfeat": "caee3c1b1f8bc454fb5e8d54407904bb3f6e1f348020095ae90554ccccb323aa",
    "moddrop": "a4989eeec6fdebfa361a2eeacfa855efe4e61705eda691a2d10f313b6eb7269f",
    "multistage:fv": "51886cec8a73a68cc97badca3bc23af3466ad48580b2fae0cb1fecb8f4444d5e",
    "allfeatinit": "9861cc52c9f54b878b78267b22ed0f0171920346c9e73bd903fb0c299b73149a",
}


def import_sigfuse():
    """Import sigfuse from this checkout's sources, never from elsewhere."""
    pkg = ROOT / "src" / "sigfuse" / "__init__.py"
    if not pkg.is_file():
        sys.exit(f"run.py: no sigfuse sources at {pkg.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import sigfuse
    if Path(sigfuse.__file__).resolve() != pkg.resolve():
        sys.exit(f"run.py: imported sigfuse from {sigfuse.__file__}, not {pkg}")
    return sigfuse


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q: int) -> float:
    """q-th percentile; failures enter as +inf, so they miss every limit."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class HostSpeed:
    """Rescales timings to a host of fixed speed.

    The shared host this runs on changes speed by up to 2x within seconds
    as its neighbours come and go, and a whole run can fall inside a slow
    spell. A fixed reference loop of small matmuls, the same kind of
    work as desk-train's per-batch steps and no sigfuse code, is timed
    after every operation. The operation's time is scaled by REF_S over
    the mean of the reference times just before and just after it, which
    gives its time on a host where the loop takes REF_S. A slower program
    still reads slower; a slower host mostly does not.
    """

    REF_S = 0.010
    ITERS = 2000

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.a, self.b = rng.random((64, 32)), rng.random((32, 32))
        self.last = self.reference()

    def reference(self) -> float:
        a, b = self.a, self.b
        t0 = time.perf_counter()
        for _ in range(self.ITERS):
            (a @ b).sum()
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        ref = self.reference()
        factor = 2 * self.REF_S / (self.last + ref)
        self.last = ref
        return seconds * factor


class Ledger:
    """Operations and checks attempted, and those that failed.

    With a `host`, the times it returns are rescaled by `HostSpeed`.
    """

    def __init__(self, host: HostSpeed | None = None):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.host = host

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def since(self, t0: float) -> float:
        seconds = time.perf_counter() - t0
        return self.host.scale(seconds) if self.host else seconds

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = self.op(fn, *args, **kwargs)
        return result, self.since(t0)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def dense_roles(profile, input_dims) -> dict[str, str]:
    """Map "<in>x<out>" of each dense layer to its role in the net."""
    roles = {f"{d}x{profile.branch_hidden}": "branch_in" for d in input_dims}
    roles[f"{profile.branch_hidden}x{profile.signature_dim}"] = "branch_out"
    roles[f"{profile.signature_dim}x{profile.trunk_hidden1}"] = "trunk_hidden"
    roles[f"{profile.trunk_hidden1}x{profile.trunk_hidden2}"] = "trunk_hidden"
    roles[f"{profile.trunk_hidden2}x{profile.n_outputs}"] = "trunk_out"
    return roles


def mb_per_s(io) -> float:
    nbytes, seconds = io
    return nbytes / 1e6 / seconds if seconds > 0 else 0.0


class Workload:
    """A workload: `setup()` makes its inputs, `run_pass()` does one pass."""

    roles: dict[str, str] = {}
    # set-up is timed this many times per run; setup_s is the median
    setups = 9
    # time in host-speed units (see HostSpeed)
    host_scaled = False

    def role(self, i, o):
        return self.roles.get(f"{i}x{o}", f"{i}x{o}")

    def release(self):
        """Drop what the previous set-up left running."""

    def between_passes(self, ledger):
        """Untimed work between two passes."""

    def close(self):
        """Stop everything the workload started."""


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

class TrainingWorkload(Workload):
    """Shared set-up, tracing and summary of the two training workloads."""

    def __init__(self, sf, smoke: bool):
        self.sf = sf
        self.smoke = smoke
        self.model_digests: dict[str, str] = {}
        # originals, so that checks stay out of the traced spans
        self.model_to_bytes = sf.model.model_to_bytes

    def begin_traced(self, tracer):
        from tracing import install_program
        install_program(tracer, self.sf, self.role)

    def end_traced(self, tracer, passes, aggs):
        tracer.uninstall()
        return aggs

    def traced_extras(self, passes) -> dict:
        return {}

    def check_digest(self, ledger, label: str, digest: str):
        seen = self.model_digests.setdefault(label, digest)
        ledger.check(seen == digest, f"{label}: model bytes differ between passes")

    def _train(self, ledger, fig, regime, dataset, cfg):
        result, seconds = ledger.timed(self.sf.training.train_regime, regime, dataset,
                                       cfg, self.profile)
        fig["train_s"] += seconds
        fig["examples"] += len(result.logs) * self.n_train
        return result

    def _save_load_bank(self, ledger, fig, banks):
        data = self.sf.data
        paths = {}
        for name, bank in banks.items():
            paths[name] = self.tmp / f"{name}.fbnk"
            _, seconds = ledger.timed(data.save_bank, bank, paths[name])
            fig["fbnk_save"][0] += paths[name].stat().st_size
            fig["fbnk_save"][1] += seconds
        loaded = {}
        for name, path in paths.items():
            loaded[name], seconds = ledger.timed(data.load_bank, path)
            fig["fbnk_load"][0] += path.stat().st_size
            fig["fbnk_load"][1] += seconds
            ledger.check(loaded[name].entries.keys() == banks[name].entries.keys(),
                         f"bank {name}: ids changed in an FBNK round trip")
        return loaded

    def _save_load_model(self, ledger, fig, net, label):
        model = self.sf.model
        path = self.tmp / f"{label.replace(':', '_')}.hnet"
        _, seconds = ledger.timed(model.save_model, net, path)
        raw = path.read_bytes()
        fig["hnet_save"][0] += len(raw)
        fig["hnet_save"][1] += seconds
        loaded, seconds = ledger.timed(model.load_model, path)
        fig["hnet_load"][0] += len(raw)
        fig["hnet_load"][1] += seconds
        return loaded, raw

    def _sweep(self, ledger, fig, net, dataset):
        report, seconds = ledger.timed(self.sf.evaluate.combination_sweep, net, dataset, "test")
        fig["sweep_s"].append(seconds)
        return report

    @staticmethod
    def new_figures() -> dict:
        return {"train_s": 0.0, "examples": 0, "sweep_s": [], "fbnk_save": [0, 0.0],
                "fbnk_load": [0, 0.0], "hnet_save": [0, 0.0], "hnet_load": [0, 0.0],
                "lbp": [0, 0.0]}

    @staticmethod
    def pass_seconds(fig) -> float:
        return (fig["train_s"] + sum(fig["sweep_s"]) + fig["lbp"][1]
                + sum(fig[k][1] for k in ("fbnk_save", "fbnk_load", "hnet_save", "hnet_load")))

    def summarize(self, setup_s, setup_figs, passes):
        def med(fn):
            return median([fn(p) for p in passes])

        def io_rate(p):
            keys = ("fbnk_save", "fbnk_load", "hnet_save", "hnet_load")
            return mb_per_s((sum(p[k][0] for k in keys), sum(p[k][1] for k in keys)))

        sweeps = [s for p in passes for s in p["sweep_s"]]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        e2e = {
            "setup_s": median(setup_s),
            "throughput_per_s": med(lambda p: p["examples"] / p["train_s"]),
            "pass_s": med(self.pass_seconds),
            "latency_p50_ms": median(sweeps) * 1e3,
            "io_mb_per_s": med(io_rate),
            "peak_rss_mb": peak,
        }
        named = {
            "setup_s": (e2e["setup_s"], "s"),
            "train_examples_per_s": (e2e["throughput_per_s"], "1/s"),
            "sweep_s": (median(sweeps), "s"),
            "fbnk_load_mb_per_s": (med(lambda p: mb_per_s(p["fbnk_load"])), "MB/s"),
            "fbnk_save_mb_per_s": (med(lambda p: mb_per_s(p["fbnk_save"])), "MB/s"),
            "hnet_save_mb_per_s": (med(lambda p: mb_per_s(p["hnet_save"])), "MB/s"),
            "hnet_load_mb_per_s": (med(lambda p: mb_per_s(p["hnet_load"])), "MB/s"),
            "peak_rss_mb": (peak, "MB"),
        }
        if any(p["lbp"][0] for p in passes):
            named["lbp_images_per_s"] = (med(lambda p: p["lbp"][0] / p["lbp"][1]), "1/s")
        samples = {"passes": len(passes), "sweeps": len(sweeps)}
        return e2e, named, samples


class DeskTrain(TrainingWorkload):
    name = "desk-train"
    host_scaled = True
    regimes = ("dedicated:fv", "allfeat", "moddrop", "multistage:fv", "allfeatinit")

    def __init__(self, sf, smoke):
        super().__init__(sf, smoke)
        data = sf.data
        self.views = (data.ViewSpec("fv", 24, 0.1), data.ViewSpec("cnn", 16, 0.2),
                      data.ViewSpec("lbp", 12, 0.4))
        self.counts = (600, 200, 200) if smoke else (8000, 1000, 1000)
        self.epochs = 1 if smoke else 3
        self.lr = 0.05
        # allfeat aggregate mean AP was 0.870-0.882 on seeds 0-13 at full size
        self.ap_floor = 0.5 if smoke else 0.80
        self.profile = sf.PROFILES["desk"]
        self.roles = dense_roles(self.profile, [v.dim for v in self.views])

    def setup(self, seed, tmp, ledger):
        data = self.sf.data
        spec = data.SyntheticSpec(latent_dim=16, views=self.views, n_attributes=8,
                                  n_train=self.counts[0], n_val=self.counts[1],
                                  n_test=self.counts[2], seed=seed)
        self.table, self.banks = ledger.op(data.synth_generate, spec)
        self.seed, self.tmp = seed, tmp
        self.n_train = len(self.table.ids_for("train"))
        return {}

    def run_pass(self, ledger) -> dict:
        sf = self.sf
        fig = self.new_figures()
        dataset = sf.data.Dataset(self.table, self._save_load_bank(ledger, fig, self.banks))
        cfg = sf.training.TrainConfig(lr=self.lr, batch_size=64, epochs=self.epochs,
                                      seed=self.seed)
        for regime in self.regimes:
            result = self._train(ledger, fig, regime, dataset, cfg)
            net, raw = self._save_load_model(ledger, fig, result.net, regime)
            digest = hashlib.sha256(raw).hexdigest()
            self.check_digest(ledger, regime, digest)
            if self.seed == GOLDEN_SEED and not self.smoke:
                ledger.check(digest == GOLDEN[regime],
                             f"{regime}: sha256 {digest} is not the golden value")
            report = self._sweep(ledger, fig, net, dataset)
            ledger.check(len(report.masks) == 2 ** len(net.kinds) - 1,
                         f"{regime}: sweep covers {len(report.masks)} masks")
            if regime == "allfeat":
                ledger.check(report.aggregate_mean >= self.ap_floor,
                             f"allfeat aggregate mean AP {report.aggregate_mean:.4f} "
                             f"< floor {self.ap_floor}")
        return fig


class PaperScale(TrainingWorkload):
    name = "paper-scale"
    SWEEPS = 5

    def __init__(self, sf, smoke):
        super().__init__(sf, smoke)
        self.counts = (96, 32, 32) if smoke else (384, 64, 64)
        self.image_shape = (60, 40) if smoke else (218, 178)
        self.cell = 20
        self.n_attributes = 8 if smoke else 40
        base = sf.PROFILES["desk" if smoke else "paper"]
        self.profile = sf.model.Profile(base.branch_hidden, base.signature_dim,
                                        base.trunk_hidden1, base.trunk_hidden2,
                                        self.n_attributes)
        self.lbp_dim = sf.data.lbp_dim(*self.image_shape, self.cell)
        self.cnn_dim = 64 if smoke else 1024
        self.roles = dense_roles(self.profile, [self.cnn_dim, self.lbp_dim])
        self.group_bytes = sf.model.group_bytes

    def setup(self, seed, tmp, ledger):
        import numpy as np
        data = self.sf.data
        spec = data.SyntheticSpec(latent_dim=16, views=(data.ViewSpec("cnn", self.cnn_dim, 0.2),),
                                  n_attributes=self.n_attributes, n_train=self.counts[0],
                                  n_val=self.counts[1], n_test=self.counts[2], seed=seed)
        self.table, banks = ledger.op(data.synth_generate, spec)
        self.cnn = banks["cnn"]
        self.ids = sorted(self.table.rows)
        rng = np.random.default_rng([seed, 218])
        self.images = rng.integers(0, 256, size=(len(self.ids), *self.image_shape),
                                   dtype=np.uint8)
        self.seed, self.tmp = seed, tmp
        self.n_train = len(self.table.ids_for("train"))
        return {}

    def run_pass(self, ledger) -> dict:
        import numpy as np
        sf = self.sf
        data = sf.data
        fig = self.new_figures()
        lbp = data.FeatureBank("lbp", self.lbp_dim, {})
        worst = 0.0
        for img_id, img in zip(self.ids, self.images):
            t0 = time.perf_counter()
            desc = ledger.op(data.lbp_extract, img, self.cell)
            lbp.add(img_id, desc)
            fig["lbp"][1] += time.perf_counter() - t0
            fig["lbp"][0] += 1
            worst = max(worst, float(np.abs(desc.reshape(-1, data.LBP_BINS).sum(axis=1) - 1).max()))
        ledger.check(worst < 1e-9, f"an LBP cell histogram sums to 1 +/- {worst:.3g}")

        banks = self._save_load_bank(ledger, fig, {"cnn": self.cnn, "lbp": lbp})
        dataset = data.Dataset(self.table, banks)
        cfg = sf.training.TrainConfig(lr=0.01, batch_size=64, epochs=1, seed=self.seed)
        result = self._train(ledger, fig, "multistage:lbp", dataset, cfg)
        ledger.check(self.group_bytes(result.checkpoints["stage1"], "trunk")
                     == self.group_bytes(result.net, "trunk"),
                     "trunk changed after stage 1 although it was frozen")
        net, raw = self._save_load_model(ledger, fig, result.net, "multistage:lbp")
        del result
        ledger.check(self.model_to_bytes(net) == raw, "HNET bytes do not round-trip")
        self.check_digest(ledger, "multistage:lbp", hashlib.sha256(raw).hexdigest())
        del raw
        for _ in range(self.SWEEPS):
            self._sweep(ledger, fig, net, dataset)
        return fig


# ---------------------------------------------------------------------------
# serve workload
# ---------------------------------------------------------------------------

def _signal_group(proc, signum):
    try:
        os.killpg(proc.pid, signum)
    except ProcessLookupError:
        pass


def _wait_or_kill(proc, timeout=30, group=False):
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        if group:
            _signal_group(proc, signal.SIGKILL)
        else:
            proc.kill()
        proc.wait()


class Serve(Workload):
    name = "serve"
    clients = 2
    SEGMENT_S = 2.5
    # each set-up starts a server; fewer of them leave time for segments
    setups = 3

    def __init__(self, sf, smoke):
        self.sf = sf
        self.smoke = smoke
        self.rows = 8 if smoke else 32
        self.kind_dims = ([("cnn", 16), ("lbp", 24), ("fv", 12)] if smoke
                          else [("cnn", 1024), ("lbp", 4640), ("fv", 2048)])
        self.n_attributes = 8 if smoke else 40
        base = sf.PROFILES["desk" if smoke else "paper"]
        self.profile = sf.model.Profile(base.branch_hidden, base.signature_dim,
                                        base.trunk_hidden1, base.trunk_hidden2,
                                        self.n_attributes)
        self.roles = dense_roles(self.profile, [d for _, d in self.kind_dims])
        self.proc = None
        self.loadgen = None
        self.traced = False
        self.spans_paths = []
        self.rss_paths = []
        self.served_s = 0.0

    # -- server process ----------------------------------------------------

    def _start(self):
        """Start a server and a load generator pointed at it."""
        if self.traced:
            self.spans_paths.append(self.tmp / f"server-spans-{len(self.spans_paths)}.json")
            argv = [str(BENCH_DIR / "serve_traced.py"), str(self.spans_paths[-1]),
                    json.dumps(self.roles), "--"]
        else:
            argv = ["-m", "sigfuse.cli", "serve"]
        self.served_s = 0.0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.rss_paths.append(self.tmp / f"server-rss-{len(self.rss_paths)}")
        # in a group of its own with its peak_rss.py wrapper, stopped as one
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "peak_rss.py"), str(self.rss_paths[-1]), "--",
             sys.executable, *argv, "--model", str(self.model_path), "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=120):
                raise TimeoutError("server did not report its endpoint within 120 s")
        line = self.proc.stdout.readline()
        if not line.startswith("serving "):
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self.loadgen = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "loadgen.py"), str(self.pool_path), host, port,
             str(self.clients)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)

    def _stop(self):
        loadgen, self.loadgen = self.loadgen, None
        proc, self.proc = self.proc, None
        if loadgen is not None:
            loadgen.stdin.close()
            _wait_or_kill(loadgen)
            loadgen.stdout.close()
        if proc is not None:
            if proc.poll() is None:
                _signal_group(proc, signal.SIGINT)
            _wait_or_kill(proc, group=True)
            proc.stdout.close()

    def release(self):
        self._stop()

    def between_passes(self, ledger):
        """Move to a fresh server and load generator every SEGMENT_S seconds.

        Throughput and latency differ from one pair of processes to the
        next by more than they drift within one, so a run samples several.
        The first pass on each pair warms it up and is not recorded.
        """
        if self.served_s >= self.SEGMENT_S:
            self._stop()
            self._start()
        if self.served_s == 0.0:
            self.run_pass(ledger)

    def close(self):
        self._stop()

    # -- set-up ------------------------------------------------------------

    def setup(self, seed, tmp, ledger):
        import numpy as np
        sf = self.sf
        data, model, protocol = sf.data, sf.model, sf.protocol
        views = tuple(data.ViewSpec(name, dim, 0.2) for name, dim in self.kind_dims)
        spec = data.SyntheticSpec(latent_dim=16, views=views, n_attributes=self.n_attributes,
                                  n_train=self.rows, n_val=0, n_test=0, seed=seed)
        table, banks = ledger.op(data.synth_generate, spec)
        self.model_path = tmp / "serve.hnet"
        net = ledger.op(model.build_net, self.kind_dims, self.profile, seed)
        # two round trips, for more io samples; the second starts from the
        # loaded net and must give the same bytes
        trips, first = [], None
        for trip in range(2):
            _, save_s = ledger.timed(model.save_model, net, self.model_path)
            del net
            # expected scores come from the loaded net: HNET rounds weights to f32
            net, load_s = ledger.timed(model.load_model, self.model_path)
            trips.append((2 * self.model_path.stat().st_size, save_s + load_s))
            if trip == 0:
                first = self.model_path.read_bytes()
            else:
                ledger.check(self.model_path.read_bytes() == first,
                             "HNET bytes change when the loaded net is saved again")
        del first

        ids = sorted(table.rows)
        encoded = {}
        for kind in net.kinds:
            x = np.stack([banks[kind.name].entries[i] for i in ids]).astype(np.float64)
            encoded[kind.name] = ledger.op(model.branch_forward, x, net.branch_for(kind.name))
        self.frames, self.expected = [], []
        for bits in range(1, 1 << len(net.kinds)):
            active = [k.name for k in net.kinds if bits & (1 << k.id)]
            for r in range(len(ids)):
                sig = ledger.op(model.merge_sum, [encoded[k][r] for k in active])
                frame = protocol.encode_request(sig, bits)
                values = np.frombuffer(frame, dtype="<f4", offset=8).astype(np.float64)
                scores = ledger.op(model.trunk_forward, values, net.trunk)
                self.frames.append(frame)
                self.expected.append(protocol.encode_response(protocol.STATUS_OK, scores))
        del net, encoded
        self.tmp = tmp
        self.pool_path = tmp / "pool.pkl"
        with open(self.pool_path, "wb") as fh:
            pickle.dump((self.frames, self.expected), fh)
        self._start()
        return {"io": trips}

    # -- load --------------------------------------------------------------

    def run_pass(self, ledger) -> dict:
        self.loadgen.stdin.write("pass\n")
        self.loadgen.stdin.flush()
        line = self.loadgen.stdout.readline()
        if not line:
            raise RuntimeError("the load generator exited")
        fig = json.loads(line)
        start_ns, end_ns = fig["window"]
        fig["pass_s"] = (end_ns - start_ns) / 1e9
        self.served_s += fig["pass_s"]
        for key in ("latency", "connect", "exchange"):
            fig[key] = [math.inf if x is None else x for x in fig[key]]
        for i, ok in enumerate(fig["match"]):
            ledger.attempted += 1
            if fig["latency"][i] == math.inf:
                ledger.failed += 1
            else:
                ledger.check(ok, f"query {i}: reply differs from trunk_forward on the loaded HNET")
        ledger.failures.extend(fig["errors"])
        return fig

    # -- tracing -----------------------------------------------------------

    def begin_traced(self, tracer):
        self._stop()
        self.traced = True
        self._start()

    def end_traced(self, tracer, passes, aggs):
        from tracing import START, aggregate, dispatch_waits_ms, load_spans
        self._stop()
        spans = [s for path in self.spans_paths for s in load_spans(path)]
        out, self.dispatch_waits = [], []
        for p in passes:
            lo, hi = p["window"]
            window = [s for s in spans if lo <= s[START] <= hi]
            out.append(aggregate(window))
            self.dispatch_waits.extend(dispatch_waits_ms(window))
        return out

    def traced_extras(self, passes) -> dict:
        return {
            "protocol.client.connect_ms_p50":
                median([c for p in passes for c in p["connect"]]) * 1e3,
            "protocol.client.exchange_ms_p50":
                median([e for p in passes for e in p["exchange"]]) * 1e3,
            "protocol.server.dispatch_wait_ms_p50": median(self.dispatch_waits),
        }

    @staticmethod
    def pass_seconds(fig) -> float:
        return fig["pass_s"]

    def summarize(self, setup_s, setup_figs, passes):
        latency = [x for p in passes for x in p["latency"]]
        peak = max(int(p.read_text()) for p in self.rss_paths if p.is_file()) / 1024
        qps = median([len(p["latency"]) / p["pass_s"] for p in passes])
        e2e = {
            "setup_s": median(setup_s),
            "throughput_per_s": qps,
            "pass_s": median([p["pass_s"] for p in passes]),
            "latency_p50_ms": median(latency) * 1e3,
            "io_mb_per_s": median([mb_per_s(t) for f in setup_figs for t in f["io"]]),
            "peak_rss_mb": peak,
        }
        named = {
            "setup_s": (e2e["setup_s"], "s"),
            "qps": (qps, "1/s"),
            "query_p50_ms": (e2e["latency_p50_ms"], "ms"),
            "query_p90_ms": (percentile(latency, 90) * 1e3, "ms"),
            "query_p99_ms": (percentile(latency, 99) * 1e3, "ms"),
            "hnet_save_load_mb_per_s": (e2e["io_mb_per_s"], "MB/s"),
            "peak_rss_mb": (peak, "MB"),
        }
        return e2e, named, {"passes": len(passes), "queries": len(latency)}


WORKLOADS = {w.name: w for w in (DeskTrain, PaperScale, Serve)}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# measured by the benchmark itself rather than from spans; zero where a
# workload does not exercise them
EXTRAS = ("trace.overhead_pct", "protocol.client.connect_ms_p50",
          "protocol.client.exchange_ms_p50", "protocol.server.dispatch_wait_ms_p50")

COUNT_ALIASES = {
    "protocol.server.frames": "protocol.server.decode_request",
    "protocol.server.connections": "protocol.server.process_request",
}


def counts_of(agg) -> dict:
    return {name: (row[0], row[2]) for name, row in agg.items()}


def layer_metrics(names, setup_aggs, pass_aggs, extras) -> dict:
    first_setup = setup_aggs[0] if setup_aggs else {}
    first_pass = pass_aggs[0] if pass_aggs else {}

    def count(layer, field):
        return (first_setup.get(layer, [0, 0, 0])[field]
                + first_pass.get(layer, [0, 0, 0])[field])

    def busy(layer):
        return (median([a.get(layer, [0, 0, 0])[1] for a in setup_aggs])
                + median([a.get(layer, [0, 0, 0])[1] for a in pass_aggs])) / 1e9

    out = {}
    for name in names:
        if name in EXTRAS:
            out[name] = extras.get(name, 0.0)
        elif name.endswith(".calls"):
            out[name] = count(name[:-len(".calls")], 0)
        elif name.endswith(".bytes"):
            out[name] = count(name[:-len(".bytes")], 2)
        elif name.endswith(".busy_s"):
            out[name] = busy(name[:-len(".busy_s")])
        elif name in COUNT_ALIASES:
            out[name] = count(COUNT_ALIASES[name], 0)
        elif name == "protocol.server.frames_per_connection":
            conns = count(COUNT_ALIASES["protocol.server.connections"], 0)
            out[name] = count(COUNT_ALIASES["protocol.server.frames"], 0) / conns if conns else 0.0
        elif name.startswith("protocol.server.status."):
            out[name] = count(name, 0)
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")
    return out


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def blas_threads():
    """OpenBLAS thread count as this process sees it, or None."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_passes(workload, ledger, seconds, tracer=None):
    """Passes until `seconds` have been spent in them; at least one."""
    from tracing import aggregate
    passes, aggs, spent = [], [], 0.0
    while not passes or spent < seconds:
        workload.between_passes(ledger)
        t0 = time.perf_counter()
        passes.append(workload.run_pass(ledger))
        spent += time.perf_counter() - t0
        if tracer:
            aggs.append(aggregate(tracer.take()))
    return passes, aggs


def measure(workload, spec, args, ledger, tmp):
    from tracing import Tracer, aggregate, install_program
    tracer = Tracer() if args.trace else None
    setup_s, setup_figs, setup_aggs = [], [], []
    for i in range(workload.setups):
        workload.release()
        setup_dir = tmp / f"setup{i}"
        setup_dir.mkdir()
        if tracer:
            install_program(tracer, workload.sf, workload.role)
        t0 = time.perf_counter()
        setup_figs.append(workload.setup(args.seed, setup_dir, ledger))
        setup_s.append(ledger.since(t0))
        if tracer:
            tracer.uninstall()
            setup_aggs.append(aggregate(tracer.take()))

    passes, _ = run_passes(workload, ledger, args.seconds / 2 if tracer else args.seconds)
    if not tracer:
        workload.close()
        e2e, named, samples = workload.summarize(setup_s, setup_figs, passes)
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        return metrics, named, samples

    workload.begin_traced(tracer)
    traced, aggs = run_passes(workload, ledger, args.seconds / 2, tracer)
    aggs = workload.end_traced(tracer, traced, aggs)
    workload.close()
    for agg in aggs[1:]:
        ledger.check(counts_of(agg) == counts_of(aggs[0]),
                     "per-layer counts differ between traced passes")
    for agg in setup_aggs[1:]:
        ledger.check(counts_of(agg) == counts_of(setup_aggs[0]),
                     "per-layer counts differ between set-ups")
    untraced_s = median([workload.pass_seconds(p) for p in passes])
    traced_s = median([workload.pass_seconds(p) for p in traced])
    extras = {"trace.overhead_pct": (traced_s / untraced_s - 1) * 100}
    extras.update(workload.traced_extras(traced))
    values = layer_metrics([m["name"] for m in spec["per_layer"]], setup_aggs, aggs, extras)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    samples = {"untraced_passes": len(passes), "traced_passes": len(traced),
               "untraced_pass_s": untraced_s, "traced_pass_s": traced_s}
    return metrics, {}, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, for checking that the output is well formed")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"run.py: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    sf = import_sigfuse()
    sys.path.insert(0, str(BENCH_DIR))

    def on_term(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_term)

    workload = WORKLOADS[args.workload](sf, args.smoke)
    ledger = Ledger(HostSpeed() if workload.host_scaled else None)
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    metrics, named, samples = {}, {}, {}
    try:
        metrics, named, samples = measure(workload, spec, args, ledger, tmp)
    except Exception:
        traceback.print_exc()
        ledger.failures.append(traceback.format_exc(limit=1).strip().splitlines()[-1])
        if ledger.failed == 0:
            ledger.attempted += 1
            ledger.failed += 1
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = max(ledger.attempted, 1)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(args.seed),
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "failed_ratio": ledger.failed / attempted, "samples": samples,
        "failures": ledger.failures,
    }
    print(json.dumps(info))
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
