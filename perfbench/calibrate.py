"""Calibration kernel for the benchmark, run as a helper process.

The kernel shares no code with modelsets.  It mixes the kinds of work the
workloads do: Python arithmetic, small objects held in a dict, a large
freshly allocated array and an FFT.  ``run.py`` asks for one timing after
every operation, so the median of the timings follows the speed of a shared
host, which drifts by tens of percent over minutes.  It runs in its own
process so that its memory stays out of the benchmark's ``peak_rss_mb``.

Protocol: prints ``ready`` once warmed up, then answers each line in with
one line out (the kernel's seconds); ends at EOF.
"""

import sys
import time

import numpy as np


def kernel() -> float:
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(30_000):
        total += i * i
        table[(i, i + 1)] = i
    cells = [complex(i, 1) for i in range(10_000)]
    signal = np.zeros(1 << 21)
    signal[::7] = 1.0
    np.fft.fft(signal[: 1 << 17])
    del table, cells, signal
    return time.perf_counter() - t0


if __name__ == "__main__":
    kernel()    # the first call pays numpy's one-time FFT set-up
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
