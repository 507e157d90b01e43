"""Machine-speed calibration shared by the runner and the workers.

On a shared host the same single-threaded work can take up to twice as
long from one second or minute to the next, because other tenants take
the processor.  The benchmark therefore reads the machine's speed with a
short fixed loop around the work it times (after every check of a pass;
at the start and end of a set-up), and rescales to reference speed:

    reference seconds = measured seconds * median(REF_S / loop time)

Interpreted code and small dense kernels do not slow down by the same
factor, so there are two loops and each workload names the one that looks
like its own work:

* ``python``: rational additions on ``Fraction`` objects (exact mode,
  imports).
* ``numpy``: a Taylor-polynomial evaluation and batched product on 1024
  stacked 24x24 matrices, the shapes of quadrature on a word simplex
  (about 5 MB per array, so it also feels memory contention).
* ``mixed``: the geometric mean of the two factors (the CLI verbs do both).

``REF_S`` is what each loop takes on an uncontended 2-vCPU x86-64 sandbox
(Python 3.11, one BLAS thread), so reference seconds read close to wall
seconds on a quiet machine.  Raw wall times are kept next to the rescaled
ones in every record.  None of the loops touches cartankit, so a change to
cartankit moves the reference seconds exactly as it moves the work.
"""

import time
from fractions import Fraction

REF_S = {"python": 2.4e-3, "numpy": 5.5e-3}

_MATS = []


def _python_loop():
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i % 97 + 1)
    return total


def _numpy_loop():
    import numpy as np
    if not _MATS:
        rng = np.random.default_rng(0)
        _MATS.extend([rng.random(1024), rng.random((20, 24, 24)) / 24.0])
    nodes, coeffs = _MATS
    out = np.einsum("pm,mij->pij", np.power.outer(nodes, np.arange(20)), coeffs)
    return np.matmul(out, out)


LOOPS = {"python": _python_loop, "numpy": _numpy_loop}


def speed(kinds):
    """Speed of the machine now relative to reference: one loop per kind."""
    factor = 1.0
    for kind in kinds:
        start = time.perf_counter()
        LOOPS[kind]()
        factor *= REF_S[kind] / (time.perf_counter() - start)
    return factor ** (1.0 / len(kinds))
