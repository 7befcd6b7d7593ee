"""Shared pytest hooks: the report header names the BLAS library numpy
loaded, the kernel it picked and its thread count, and numpy's version
and the SIMD dispatch targets it enabled, since the golden float pins
hold for one kernel, dispatch level and thread count."""

import numpy as np

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
