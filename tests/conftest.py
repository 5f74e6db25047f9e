"""Suite-wide set-up.

BLAS is pinned to one thread before numpy is first imported: the library's
work is small 4x4 and 2x2 algebra, where a thread pool adds contention, not
speed, and makes wall times depend on whatever else runs on the host.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
