"""The SGD step's whole-array passes on OpenBLAS's level-1 routines keep
numpy's bits, on whatever kernel and thread count the library runs."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sigfuse import blas
from sigfuse.data import Dataset, SyntheticSpec, ViewSpec, synth_generate
from sigfuse.model import PROFILES, Profile
from sigfuse.nn import DenseLayer, sgd_update
from sigfuse.training import TrainConfig, profile_for, train_regime

INF, NAN = float("inf"), float("nan")
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0,
           1e308, -1e308, INF, -INF, NAN]
values = st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), min_size=1, max_size=32)
# both sides of the constant: the numpy ufunc below it, BLAS at and above
sizes = st.sampled_from([1, 7, blas.MIN_SIZE - 1, blas.MIN_SIZE, blas.MIN_SIZE + 5])


def library_or_skip():
    lib = blas.openblas()
    if lib is None or lib.dscal is None or lib.daxpy is None:
        pytest.skip("no ILP64 OpenBLAS next to numpy")
    return lib


def filled(vals, n):
    return np.resize(np.array(vals, dtype=np.float64), n)


def assert_same_bits(got, want):
    """Equal bit for bit, signed zeros included; a NaN matches any NaN."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def written_out_rule(param, g, lr, wd, m, v):
    """v = m * v + g + wd * w, then w - lr * v, as fresh numpy arrays."""
    if lr == 0:
        return param, v
    step = g + wd * param if wd > 0 else g
    if m > 0:
        v = m * v + step
        step = v
    return param - lr * step, v


class TestLevelOneBits:
    @settings(max_examples=80, deadline=None)
    @given(vals=values, a=st.one_of(st.sampled_from(SPECIAL), st.floats()), n=sizes)
    @example(vals=[INF, -1.0, NAN], a=0.0, n=blas.MIN_SIZE)  # inf * 0 is NaN, -1 * 0 is -0
    def test_scale_is_numpy_multiply(self, vals, a, n):
        x = filled(vals, n)
        with np.errstate(all="ignore"):
            want = x * a
            blas.scale(x, a)
        assert_same_bits(x, want)

    @settings(max_examples=80, deadline=None)
    @given(ys=values, xs=values, sign=st.sampled_from([1, -1]), n=sizes)
    def test_add_is_numpy_add_or_subtract(self, ys, xs, sign, n):
        y, x = filled(ys, n), filled(xs, n)[::-1].copy()
        with np.errstate(all="ignore"):
            want = y + x if sign > 0 else y - x
            blas.add(y, x, sign)
        assert_same_bits(y, want)

    def test_add_refuses_other_signs(self):
        with pytest.raises(ValueError, match="sign"):
            blas.add(np.zeros(3), np.ones(3), 2)


class TestSgdUpdateBits:
    @settings(max_examples=60, deadline=None)
    @given(ws=values, gs=values, vs=values, n=sizes,
           lr=st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-8, 0.01, 1.0, 1e300]),
                        st.floats(0, 1e300)),
           wd=st.one_of(st.just(0.0), st.floats(0, 10)),
           m=st.one_of(st.just(0.0), st.sampled_from([0.5, 0.9]), st.floats(0, 1)))
    @example(ws=[-0.0, 1.0], gs=[INF, -2.0], vs=[1.0], n=blas.MIN_SIZE, lr=0.0, wd=0.5, m=0.9)
    def test_update_is_the_written_out_rule(self, ws, gs, vs, n, lr, wd, m):
        param, g, v = filled(ws, n), filled(gs, n)[::-1].copy(), filled(vs, n)
        with np.errstate(all="ignore"):
            want_param, want_v = written_out_rule(param, g, lr, wd, m, v)
            sgd_update(param, g, lr, wd, m, v)
        assert_same_bits(param, want_param)
        assert_same_bits(v, want_v)


@pytest.fixture
def calls(monkeypatch):
    """The (routine, length) of every dscal and daxpy call."""
    lib = library_or_skip()
    seen = []
    for name in ("dscal", "daxpy"):
        real = getattr(lib, name)
        monkeypatch.setattr(lib, name,
                            lambda *a, real=real, name=name: seen.append((name, a[0])) or real(*a))
    return seen


class TestBlasPath:
    """Which arrays take BLAS: at the constant yes, at desk widths never."""

    def test_array_at_the_constant_takes_blas(self, calls):
        n = blas.MIN_SIZE
        sgd_update(np.ones(n), np.full(n, 2.0), 0.5)
        assert calls == [("dscal", n), ("daxpy", n)]
        calls.clear()
        sgd_update(np.ones(n - 1), np.full(n - 1, 2.0), 0.5)
        assert calls == []

    def test_momentum_and_weight_decay_take_blas(self, calls):
        n = blas.MIN_SIZE
        sgd_update(np.ones(n), np.ones(n), 0.5, 0.1, 0.9, np.ones(n))
        # wd * w added to g, v decayed, g added to v, lr * v subtracted
        assert [name for name, _ in calls] == ["daxpy", "dscal", "daxpy", "daxpy"]

    def test_desk_training_stays_on_numpy(self, calls):
        dataset = two_view_dataset()
        cfg = TrainConfig(lr=0.05, batch_size=32, epochs=1, seed=1,
                          momentum=0.9, weight_decay=1e-3)
        net = train_regime("moddrop", dataset, cfg, PROFILES["desk"]).net
        biggest = max(layer.weights.size for layer in net_layers(net))
        assert biggest <= 4096 < blas.MIN_SIZE
        assert calls == []


def two_view_dataset():
    spec = SyntheticSpec(latent_dim=6, views=(ViewSpec("fv", 24, 0.05), ViewSpec("cnn", 16, 0.2)),
                         n_attributes=4, n_train=128, n_val=32, n_test=32, seed=5)
    return Dataset(*synth_generate(spec))


def net_layers(net):
    return [layer for branch in net.branches for layer in branch.layers()] + net.trunk.layers()


class TestTrainingWithoutLibrary:
    """With the library away every pass is numpy's; the float64 parameters
    of a net whose layers reach the constant must not move by a bit."""

    # branch layer 2 and trunk layer 3 are 512x512, at the constant
    WIDE = Profile(512, 512, 512, 64, 4)

    @pytest.mark.parametrize("momentum,weight_decay", [(0.0, 0.0), (0.9, 1e-3)])
    def test_same_float64_parameters(self, monkeypatch, calls, momentum, weight_decay):
        dataset = two_view_dataset()
        cfg = TrainConfig(lr=0.05, batch_size=32, epochs=2, seed=1,
                          momentum=momentum, weight_decay=weight_decay)

        def params():
            net = train_regime("moddrop", dataset, cfg, profile_for(dataset, self.WIDE)).net
            return [a.tobytes() for layer in net_layers(net) for a in (layer.weights, layer.bias)]

        with_blas = params()
        assert {n for _, n in calls} >= {512 * 512}
        monkeypatch.setattr(blas, "openblas", lambda: None)
        assert params() == with_blas


class TestBlasReport:
    def test_core_name_is_the_kernel_in_use(self):
        name = library_or_skip().core_name()
        assert name and name != "?" and name.isprintable()
        forced = os.environ.get("OPENBLAS_CORETYPE")
        if forced:
            assert name.lower() == forced.lower()

    def test_report_header_names_library_core_and_threads(self, request):
        lib = library_or_skip()
        lines = request.config.hook.pytest_report_header(config=request.config,
                                                         start_path=request.config.rootpath)
        header = [line for line in lines if isinstance(line, str) and line.startswith("blas: ")]
        assert header == [f"blas: {lib.name} core={lib.core_name()} threads={lib.threads()}"]


class TestDispatchReport:
    def test_report_header_names_numpy_and_its_dispatch_targets(self, request):
        """The float64 pins also hold for one numpy SIMD dispatch level, so
        the header names the targets numpy enabled, none that the
        environment disabled."""
        lines = request.config.hook.pytest_report_header(config=request.config,
                                                         start_path=request.config.rootpath)
        header = [line for line in lines if isinstance(line, str) and line.startswith("numpy: ")]
        assert len(header) == 1
        version, targets = header[0].removeprefix("numpy: ").split(" dispatch=")
        assert version == np.__version__
        disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
        assert targets and not set(targets.split(",")) & set(disabled)


class TestFiniteScreenOnBlas:
    """A layer at the constant screens its weights with a BLAS product."""

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_one_non_finite_weight_is_refused(self, bad):
        weights = np.zeros((512, 512))
        weights[511, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            DenseLayer(weights, np.zeros(512))

    def test_columns_that_overflow_are_finite(self):
        layer = DenseLayer(np.full((512, 512), 1e308), np.zeros(512))
        layer.check_finite()
