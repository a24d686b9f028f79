"""Reference work that measures the machine's speed while a run measures the
program.

The benchmark's host lends it a share of a shared machine, and the speed of
one single-threaded process there swings by up to ±25 % over tens of
seconds and drifts over minutes.  A wall-clock figure from one 30 s run
carries those swings.  So every timed call is followed by a stretch of this
reference work, and the call's time is reported in *reference seconds*:
its wall time divided by the time the machine took, right after it, for
one reference second's worth of reference work.  A slow spell of the host
slows both alike and cancels; a change to the program moves the call's
time and leaves the reference alone, because the reference never calls
the program.

The reference work mirrors the program's own mix: interpreted arithmetic,
small-array numpy calls and LAPACK on small complex Hermitian matrices.
Its inputs are fixed and do not depend on the run's seed.
``ITERATIONS_PER_REF_SECOND`` fixes the unit: that many iterations took
about one second on the reference machine (README.md).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

ITERATIONS_PER_REF_SECOND = 9000
SIZES = (4, 8, 16)


class Reference:
    """Runs reference iterations and reports how long a reference second
    took on the machine just now."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                      for k in SIZES]
        self.iterations = 0
        self.seconds = 0.0

    def _iteration(self) -> float:
        acc = 0
        for i in range(200):
            acc += i * i % 7
        total = float(acc)
        for a in self._mats:
            h = a @ a.conj().T
            w, q = np.linalg.eigh(0.5 * (h + h.conj().T))
            total += float(w[0]) + float(np.abs(np.diag(q)).sum())
        return total

    def ref_second(self, seconds: float) -> float:
        """Run whole iterations for at least ``seconds`` (at least one) and
        return the wall time of one reference second at the rate measured."""
        count = 0
        start = perf_counter()
        while True:
            self._iteration()
            count += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                break
        self.iterations += count
        self.seconds += elapsed
        return elapsed / count * ITERATIONS_PER_REF_SECOND

    def mean_ref_second(self) -> float:
        """Wall time of one reference second over all iterations so far."""
        return self.seconds / self.iterations * ITERATIONS_PER_REF_SECOND
