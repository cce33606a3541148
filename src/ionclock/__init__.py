"""Seeded Monte Carlo simulator of a trapped-ion ensemble microwave clock.

The package models an ion cloud probed by Ramsey sequences where only a
fraction of the ensemble is projected per measurement, so the
collective phase survives across cycles and can be tracked coherently
over many free-precession periods. Modules:

* ensemble: batches of Bloch-vector ensembles, rotations, partial projection
* oscillator: local oscillator with h0 / h-1 / h-2 noise
* sequences: Rabi and Ramsey protocols, phase/frequency estimators
* diffusion: axial Brownian transport and beam overlap statistics
* stability: Allan deviation and instability limit lines
* config, cli: flat key-value run configs and the command harness
"""

import os as _os
import sys as _sys

# numpy's OpenBLAS starts worker threads at load that busy-wait, and the
# only BLAS calls here are on matrices of a few rows. Load numpy with
# one BLAS thread unless the user set a count or loaded numpy first,
# then leave the environment as the user had it, so subprocesses are
# unaffected.
if "OPENBLAS_NUM_THREADS" not in _os.environ and "numpy" not in _sys.modules:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .ensemble import *
from .oscillator import *
from .sequences import *
from .diffusion import *
from .stability import *
from .config import *
from .rng import *

__version__ = "0.1.0"
