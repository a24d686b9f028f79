"""Layer timings run with one BLAS thread: the thread counts are set here,
before anything imports numpy, since OpenBLAS reads them once at load."""

import os
import sys

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    raise pytest.UsageError("numpy was imported before the BLAS thread counts were set")
