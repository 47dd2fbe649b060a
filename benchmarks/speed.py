"""The machine's speed, sampled while the benchmark times the program.

On a shared machine the same work takes anywhere from 1x to 2x its fastest
time, in phases that last from a second to minutes, and those phases move
per-run medians by 15-25 %.  A fixed probe computation, timed repeatedly
while a round runs, measures how fast the machine is at that moment; scaling
a round's time by ``REFERENCE_PROBE_S / mean probe time`` expresses it at a
reference speed, so that the benchmark compares programs, not moments.

The slow phases slow interpreter-bound code (many small calls) and
numpy-kernel-bound code (large array operations) by different amounts, so
there are two probes and each workload uses the one like its own work:

- ``fits``: 36 pair fits and AR(1) scales, four times over (like
  ``pairwise_group_stats`` and the pure-Python pairing searches);
- ``monte_carlo``: six 5,000-draw sign-flip power estimates at q = 6 (like
  ``power_mc`` in the 2-opt search).

Both are the benchmark's own code (``reference``), not the program's, so a
change to the program cannot move them.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

import reference as ref

# Both probes take about this long on the reference machine (2 vCPU Xeon,
# Python 3.11, numpy 2.4); scaled times read as wall times at that speed.
REFERENCE_PROBE_S = 0.015
INTERVAL_S = 0.5
_PROBE_DRAW = 12345
_MC_XI, _MC_SIGMA = np.full(6, 0.4), np.linspace(1.0, 3.0, 6)


class SpeedProbe:
    """Probe samples, taken on demand or every ``INTERVAL_S`` by SIGALRM."""

    def __init__(self, kind: str = "fits"):
        self._work = {"fits": self._fits, "monte_carlo": self._monte_carlo}[kind]
        self.samples: list[float] = []
        self.spent = 0.0          # seconds spent probing, to subtract from timed work
        self._busy = False
        cluster, _, y, x = ref.dgp2_panel(_PROBE_DRAW, 12, 20, 4, 0.0)
        self._panel = (cluster, y, x)
        self._c = np.eye(len(ref.X_NAMES))[ref.D_COL]

    def _fits(self) -> None:
        cluster, y, x = self._panel
        for _ in range(4):
            for j in range(7, 13):
                for r in range(1, 7):
                    _, resid, X, segs = ref.group_fit(cluster, y, x, {j, r})
                    ref.ar1_sigma(X, resid, segs, self._c)

    @staticmethod
    def _monte_carlo() -> None:
        for seed in range(6):
            ref.crn_power(_MC_XI, _MC_SIGMA, 2.0, 0.1, 5_000, seed, 1 << 15)

    def sample(self) -> float:
        self._busy = True
        start = time.perf_counter()
        self._work()
        took = time.perf_counter() - start
        self._busy = False
        self.samples.append(took)
        self.spent += took
        return took

    def factor(self, first: int = 0) -> float:
        """Reference speed over the mean speed of the samples from ``first`` on."""
        return REFERENCE_PROBE_S / statistics.mean(self.samples[first:])

    @contextlib.contextmanager
    def periodic(self):
        """Sample on entry, every INTERVAL_S of wall time inside the block, and
        on a normal exit.

        The handler runs between bytecodes of the main thread, so the work it
        interrupts sees a pause of one probe, which ``spent`` accounts for.
        """
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: None if self._busy else self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()
        try:
            yield self
            self.sample()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
