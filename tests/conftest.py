"""Shared pytest hooks: the report header names the BLAS library numpy
loaded, the kernel it picked and its thread count, since the golden
pins hold for one kernel and thread count."""

from sigfuse import blas


def pytest_report_header(config):
    lib = blas.openblas()
    if lib is None:
        return f"blas: no OpenBLAS in {blas.LIBS}"
    threads = lib.threads() if lib.threads is not None else "?"
    return f"blas: {lib.name} core={lib.core_name()} threads={threads}"
