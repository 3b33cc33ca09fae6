"""Test-session setup: one BLAS thread unless the caller chose otherwise.

This file loads before any test module imports numpy, so the setting
reaches OpenBLAS. The suite is dominated by small and mid-size dense
kernels (phi builds of local windows, Hessenberg exponentials), which a
second BLAS thread slows down on a busy host: on 2 cores the whole suite
took 33 s at one thread against 63 s at the default threading.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
