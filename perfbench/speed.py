"""Machine-speed probe: converts measured times to reference-speed seconds.

The benchmark runs on a few cores of a shared host.  Other tenants slow a
core's instruction stream by 1.3-1.8x in stretches of seconds to minutes; CPU
time slows as much as wall time, and the other core does not see the same
slowdown at the same moment.  No statistic over one run removes that, but a
fixed kernel run on the same thread at the same time slows by nearly the same
factor.  The kernel is small-array numpy work of the kind the program's hot
paths do, and shares no code with the program, so a change to the program
moves the measured interval and not the kernel.

While a ``SpeedProbe`` runs, a SIGALRM handler times SAMPLE_ROUNDS rounds of
the kernel every SAMPLE_EVERY_S.  An interval of ``wall`` seconds, less the
samples taken in it, counts ``wall * REF_ROUND_S / t`` reference-speed seconds,
where ``t`` is the samples' mean time per round: the time it would have taken
at the speed at which a round takes REF_ROUND_S.  In-process operations are
sampled by the benchmark process; child processes (``cli`` commands, set-up
interpreters) sample themselves through child.py and report their samples.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Time of one round on an unloaded core of the 2-vCPU KVM host the benchmark
# was tuned on; it fixes the unit, not the ratios between runs.
REF_ROUND_S = 60e-6
SAMPLE_ROUNDS = 30
SAMPLE_EVERY_S = 0.1


def ref_seconds(wall: float, round_s: float) -> float:
    """Reference-speed seconds of ``wall`` s (samples excluded) during which
    the kernel took ``round_s`` s per round."""
    return wall * REF_ROUND_S / round_s


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 32, 3, 4))
        self._b = rng.standard_normal((32, 32, 3))
        self._kernel()   # warm-up
        self.samples: list[float] = []   # seconds per round, of every sample so far
        self._since = 0                  # samples[_since:] belong to the running interval
        self._previous = None

    def _kernel(self) -> float:
        """Seconds per round of SAMPLE_ROUNDS rounds of the fixed kernel."""
        a, b = self._a, self._b
        t0 = time.perf_counter()
        for _ in range(SAMPLE_ROUNDS):
            d = (np.roll(a, -1, 0) - np.roll(a, 1, 0)) * 0.5
            e = np.einsum("xyb,xybc->xyc", b, d)
            float(np.sum(e * e))
        return (time.perf_counter() - t0) / SAMPLE_ROUNDS

    def _sample(self, signum, frame):
        self.samples.append(self._kernel())

    def start(self):
        self._since = len(self.samples)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple[float, float]:
        """End the interval: (seconds spent in its samples, mean seconds per round)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        taken = self.samples[self._since:]
        sampled = SAMPLE_ROUNDS * sum(taken)
        if not taken:   # shorter than one period: sample right after it
            self.samples.append(self._kernel())
            taken = self.samples[-1:]
        return sampled, sum(taken) / len(taken)

    def timed(self, fn):
        """(fn(), wall s less the samples, reference-speed s)."""
        self.start()
        try:
            t0 = time.perf_counter()
            out = fn()
            total = time.perf_counter() - t0
        finally:
            sampled, round_s = self.stop()
        return out, total - sampled, ref_seconds(total - sampled, round_s)
