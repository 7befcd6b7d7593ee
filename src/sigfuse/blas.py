"""numpy's own OpenBLAS, for the whole-array passes of an SGD step.

numpy runs matrix products on OpenBLAS's threads but an elementwise
ufunc on one core. `scale` (x *= a) and `add` (y += x or y -= x) run on
the same library's threaded level-1 `dscal` and `daxpy` instead, for
contiguous float64 arrays of at least `MIN_SIZE` elements, and with
numpy's bits whatever the kernel or thread count: `dscal` multiplies
each element by `a` (never called with a == 0, where older OpenBLAS
releases write zeros, so inf * 0 would not be NaN), and `daxpy` is only
called with alpha +1 or -1, where a fused multiply-add is an exact add
or subtract. Other arrays, and a numpy without the library, take the
numpy ufunc. The library is opened on first use, not at import.
"""

from __future__ import annotations

import ctypes
import functools
from operator import iadd, imul, isub
from pathlib import Path

import numpy as np

# Arrays of at least this many elements go through BLAS. Measured for one
# plain update (g *= lr, w -= g) on 2 vCPUs, SkylakeX kernel, 2 threads,
# numpy against BLAS: 2^16 elements 23 against 46 us, 2^18 176 against
# 160 us, 2^20 0.80 against 0.57 ms, 2^22 3.2 against 1.6 ms. Below it a
# ctypes call (~2 us) and the threads' start-up cost more than they save.
MIN_SIZE = 1 << 18

LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class OpenBLAS:
    """The OpenBLAS file next to numpy, opened by name: the copy numpy
    already loaded. Each routine is None when the library lacks it; the
    level-1 routines are bound only in their ILP64 (int64) form."""

    def __init__(self, path: Path):
        self.name = path.name
        self._handle = ctypes.CDLL(str(path))
        self.dscal = self._bind(["scipy_cblas_dscal64_", "cblas_dscal64_"],
                                [_I64, _F64, _PTR, _I64])
        self.daxpy = self._bind(["scipy_cblas_daxpy64_", "cblas_daxpy64_"],
                                [_I64, _F64, _PTR, _I64, _PTR, _I64])
        setters = ["scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                   "openblas_set_num_threads"]
        self.set_threads = self._bind(setters, [ctypes.c_int])
        self.threads = self._bind([s.replace("_set_", "_get_") for s in setters], [],
                                  ctypes.c_int)
        self._core_name = self._bind(["scipy_openblas_get_corename64_",
                                      "openblas_get_corename64_", "openblas_get_corename"],
                                     [], ctypes.c_char_p)

    def _bind(self, names, argtypes, restype=None):
        for name in names:
            fn = getattr(self._handle, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
                return fn
        return None

    def core_name(self) -> str:
        """The kernel OpenBLAS picked for this CPU (e.g. SkylakeX), which
        decides the bits of its matrix products, or '?' if it cannot say."""
        return self._core_name().decode() if self._core_name is not None else "?"


@functools.cache
def openblas() -> OpenBLAS | None:
    """numpy's OpenBLAS, opened on the first call; None when there is no
    OpenBLAS file next to numpy or it will not open."""
    for path in sorted(LIBS.glob("*openblas*")) if LIBS.is_dir() else []:
        try:
            return OpenBLAS(path)
        except OSError:
            continue
    return None


def _routine(name: str, *arrays: np.ndarray):
    """The library's routine `name` when every array is a contiguous,
    aligned float64 array of at least `MIN_SIZE` elements, else None."""
    for a in arrays:
        if not (a.size >= MIN_SIZE and a.dtype == np.float64 and a.flags.c_contiguous
                and a.flags.aligned):
            return None
    lib = openblas()
    return getattr(lib, name) if lib is not None else None


def scale(x: np.ndarray, a: float) -> None:
    """x *= a in place, with the bits of numpy's x * a."""
    dscal = a != 0 and x.flags.writeable and _routine("dscal", x)
    if dscal:
        dscal(x.size, a, x.ctypes.data, 1)
    else:
        x *= a


def add(y: np.ndarray, x: np.ndarray, sign: int) -> None:
    """y += x (sign +1) or y -= x (sign -1) in place, with numpy's bits."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    daxpy = (y.shape == x.shape and y.flags.writeable and not np.may_share_memory(y, x)
             and _routine("daxpy", y, x))
    if daxpy:
        daxpy(y.size, float(sign), x.ctypes.data, 1, y.ctypes.data, 1)
    elif sign == 1:
        y += x
    else:
        y -= x


def ops(a: np.ndarray):
    """The in-place (scale, add, subtract) for arrays the size of `a`: numpy's
    operators below `MIN_SIZE`, where they cost less, else `scale` and `add`."""
    if a.size < MIN_SIZE:
        return imul, iadd, isub
    return scale, functools.partial(add, sign=1), functools.partial(add, sign=-1)
