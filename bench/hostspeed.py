"""Host-speed calibration: scales each timed operation to a reference host speed.

On a shared virtual machine the CPU speed a process gets swings by 25-60%
within seconds and for minutes at a time, and CPU time swings with it, so
neither wall nor CPU time of a 45-second run repeats. The benchmark
therefore runs a short fixed kernel after every timed operation. The
kernel does not touch dramforge, so a change to the program cannot move
it. An operation's wall time is multiplied by

    REFERENCE_S / mean(kernel time just before it, kernel time just after it)

which is its wall time on a host where the kernel takes ``REFERENCE_S``.
The kernel mixes what the sampler's serial path spends its time on: Python
integer arithmetic (the SplitMix64 stream), small numpy linear algebra and
float formatting.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Kernel time on a 2-core Xeon VM at its fast state; the scale of every
# calibrated time. Only ratios between runs matter for a comparison.
REFERENCE_S = 0.004
KERNEL_STEPS = 1000
_MASK64 = (1 << 64) - 1


def kernel_s() -> float:
    """Wall time of one pass of the fixed calibration kernel."""
    a = np.arange(16.0).reshape(4, 4) + 4.0 * np.eye(4)
    v = np.ones(4)
    s = 0x5EED
    rows = []
    t0 = perf_counter()
    for i in range(KERNEL_STEPS):
        s = (s + 0x9E3779B97F4A7C15) & _MASK64
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        v = a @ v * 0.01 + (z >> 11) * 2.0**-53
        if i % 8 == 0:
            rows.append(" ".join(f"{t:.6e}" for t in v))
    return perf_counter() - t0


class HostSpeed:
    """Calibrates around consecutive operations and rescales their wall times."""

    def __init__(self):
        self.last = kernel_s()
        self.factors: list[float] = []

    def scale(self, wall: float) -> float:
        """``wall`` of the operation that just ended, at the reference speed."""
        after = kernel_s()
        factor = REFERENCE_S / (0.5 * (self.last + after))
        self.last = after
        self.factors.append(factor)
        return wall * factor

    def summary(self) -> dict:
        """Median and quartile spread of the factors applied (two at least)."""
        q1, median, q3 = statistics.quantiles(self.factors, n=4)
        return {"host_factor_median": median, "host_factor_iqr_over_median": (q3 - q1) / median}
