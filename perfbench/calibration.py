"""The calibration kernel: a fixed piece of work timed next to the measured one.

The host this benchmark was tuned on ran everything up to 2x slower for
seconds to minutes at a time, whatever the process did. A time divided by
the kernel's time next to it cancels most of that drift. The harness times
the kernel around every op in the workload process, and each set-up child
times it once itself, on the CPU it ran on.
"""

import time

import numpy as np

# The calibration kernel's inputs: small enough that the kernel never raises
# the workload process's peak RSS above what its ops reach.
CAL_ARRAY = np.linspace(0.0, 1.0, 8_192)
CAL_TEXT = ",".join(repr(x) for x in np.linspace(0.0, 1e3, 1_000).tolist()).encode()
# The kernel's time on the reference host (2-vCPU Xeon VM, 2.0 GHz) when
# nothing else slowed it; it turns op costs in kernels back into seconds.
CAL_REFERENCE_S = 0.011


def calibrate() -> float:
    """Wall time in s of a fixed kernel that mixes the kinds of work the
    workloads do: interpreted Python, numpy on small arrays, and parsing and
    formatting numbers as text."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
    for _ in range(64):
        np.sort(np.cumsum(np.exp(-CAL_ARRAY)))
    for _ in range(4):
        ",".join(map(repr, [float(x) for x in CAL_TEXT.split(b",")]))
    return time.perf_counter() - start
