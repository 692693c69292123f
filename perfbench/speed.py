"""Machine speed sampled during a measurement, and times scaled to a reference speed.

The benchmark was written on a 2-vCPU VM of a shared host.  There the same
code ran up to 1.7x slower from one moment to the next, and its average
speed drifted by 20-30% over minutes, with process CPU time tracking wall
time.  Raw wall times of one pass spread by 20-70% between runs minutes
apart, far more than any regression a bound should catch.

A SpeedProbe runs a small fixed kernel from a SIGALRM handler every
``interval_s`` while the code under test runs, and records when each sample
started and how long it took.  ``scaled(t0, t1)`` is the time from t0 to t1,
less the kernel's own time in it, multiplied by the mean over the samples of
``ref_s / kernel time``: the samples are evenly spaced in time, so that mean
is the machine's average speed over the interval relative to the speed at
which the kernel takes ``ref_s``.  The result is the time the interval would
have taken at that reference speed.  The kernels do no I/O and touch little
memory, and they run the same kind of code as pslet's hot loops: small
float computations in the interpreter and tiny numpy calls.

Two kernels: ``python_kernel`` for set-up, which must not import numpy
before the set-up it times, and the numpy kernel for passes, which tracks
pslet's mix of interpreter and numpy calls more closely.  Their ``ref_s`` are
their typical times on the machine the benchmark was written on (Intel Xeon
2.1 GHz, 2 vCPUs, Python 3.11.7, numpy 2.4.6), so scaled times there read
close to raw wall times at an ordinary moment.
"""

from __future__ import annotations

import signal
import statistics
import time

PYTHON_REF_S = 75e-6
NUMPY_REF_S = 280e-6
SETUP_INTERVAL_S = 0.01
PASS_INTERVAL_S = 0.02
WARMUP_SAMPLES = 20


class ProbeError(RuntimeError):
    """The probe has no sample to scale an interval with."""


def python_kernel() -> None:
    xs = [0.5 * i for i in range(16)]
    d = {}
    for i in range(40):
        ys = [x * 1.0001 + 0.25 for x in xs]
        s = 0.0
        for y in ys:
            s += y * y
        d[i & 7] = s
        xs = ys


def numpy_kernel():
    """The pass kernel; imports numpy, so only call it after set-up."""
    import numpy as np

    a0 = np.linspace(1.0, 2.0, 12)

    def kernel() -> None:
        a = a0
        for _ in range(40):
            b = np.convolve(a, a)[:12]
            a = b * (1.0 / b[-1]) + 1.0
            s = 0.0
            for j in range(20):
                s += j * 0.5

    return kernel


class SpeedProbe:
    """Samples `kernel` every `interval_s` while entered."""

    def __init__(self, kernel, ref_s: float, interval_s: float):
        self.kernel = kernel
        self.ref_s = ref_s
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WARMUP_SAMPLES):
            self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float, pad: float = 0.0) -> float:
        """Seconds from t0 to t1 (perf_counter), at the reference speed.

        The speed is averaged over the samples that started in
        [t0 - pad, t1 + pad]; pad lets an interval shorter than a few sample
        periods borrow the speed of its neighbourhood.
        """
        own, speeds = 0.0, []
        for start, took in zip(self.starts, self.durations):
            if t0 <= start < t1:
                own += took
            if t0 - pad <= start < t1 + pad:
                speeds.append(self.ref_s / took)
        if not speeds:
            raise ProbeError(f"no speed sample within {pad} s of a {t1 - t0:.3f} s interval")
        return (t1 - t0 - own) * statistics.fmean(speeds)

    def kernel_share(self, t0: float, t1: float) -> float:
        """Share of [t0, t1) that the kernel itself took."""
        own = sum(d for s, d in zip(self.starts, self.durations) if t0 <= s < t1)
        return own / (t1 - t0)
