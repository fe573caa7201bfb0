"""mcert: numerical certification toolkit for multiplier regularity and
rigidity conditions on SL(n,R), with brute-force oracles at desk scale."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # before numpy loads: the same bits on any core count

__version__ = "0.1.0"
