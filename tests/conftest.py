"""Test-session setup, run before any test module imports numpy."""

import os

# One BLAS thread: the matrices here are small, and OpenBLAS's extra threads
# spin for CPU that another process on the machine may be using, which can
# make a test run many times slower.  An explicit setting in the environment
# still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_addoption(parser):
    parser.addoption("--update-golden", action="store_true",
                     help="rewrite tests/golden_artifacts.json from this run's artifacts")
