"""Settings that hold for every test run.

OpenBLAS splits a matrix product across threads by the host's core count,
and a split that falls inside a 4-row group sums a row in a different
order, so the last bits of crc strengths and bounds would depend on the
host.  The tests that pin output hashes run with one BLAS thread, set here
before numpy is imported (a value already in the environment is kept);
subprocesses started by the tests inherit it.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
