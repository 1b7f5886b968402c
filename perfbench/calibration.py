"""Machine-speed sampling during an operation, to rescale its wall.

The 2-core machine the benchmark was written on changes speed by up to
1.5x over seconds to minutes, so one operation's wall says as much about
the machine as about the program.  While an untraced operation runs, a
SIGALRM handler interrupts it every INTERVAL_S and times a fixed kernel
that touches nothing of pilotwave.  The time spent in the handler is
taken out of the operation's wall, and the rest is rescaled to the speed
at which the kernel takes REF_S:

    ref_wall = (wall - sampling) * REF_S / mean kernel time

A change to pilotwave moves the wall and not the kernel, so it moves
``ref_wall`` in proportion; a slow or fast period of the machine moves
both, and cancels.  Timing the kernel before and after each operation
instead tracked the machine too loosely for the 8-second ensemble
operations; sampling through the operation follows the same seconds the
operation ran in.  The kernel mixes a tight float loop with Python object
churn and ``math`` calls, about 2 ms, so sampling costs about 4% of an
operation.  Python runs the handler between bytecodes, so a long numpy
call delays a sample but is not cut short.
"""

import math
import signal
import time

INTERVAL_S = 0.05
# Mean kernel time on the baseline machine (2-core Intel Xeon at 2.1 GHz,
# Python 3.11.7), so ref walls read close to its walls.
REF_S = 0.0021


def kernel():
    x = 0.0
    for i in range(15_000):
        x = x * 0.999 + (i & 7) * 0.5
    table = {}
    for i in range(1_500):
        table[i % 97] = (math.sin(i * 0.1), [i, x])
    return len(table)


class Sampler:
    """Times the kernel once at start() and then every INTERVAL_S until stop()."""

    def __init__(self):
        self.samples = []
        self.interrupt_s = 0.0
        self._previous = None

    def _sample(self):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self.interrupt_s += time.perf_counter() - t0

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self):
        """Mean kernel time over the samples taken."""
        return sum(self.samples) / len(self.samples)
