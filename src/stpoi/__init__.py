"""Spatio-temporal gated recurrent cells for next-POI recommendation.

BLAS is pinned to one thread before numpy loads: threaded kernels may split
the same call differently under different load, which would break the
bitwise reproducibility the package promises.  ``setdefault`` keeps any
explicit setting in the environment.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
