"""Host-speed normalization of wall times.

On a host shared with other machines, the speed at which this process
executes Python drifts by 20 % and more, over seconds to minutes, as the
neighbours' load comes and goes; CPU time drifts with it.  So every
timed region is bracketed by a fixed reference kernel, run just before
and just after it, and its wall time is scaled by
``NOMINAL_REF_S / mean(reference before, reference after)``: the time
the region would have taken on a host where the kernel takes
``NOMINAL_REF_S``.

The kernel is benchmark code that shares nothing with the compiler, so
a change to the compiler moves a scaled time in the same proportion as
the raw one.  The kernel does what the solver's inner loop does: index
lists of small lists and a bytearray, branch on the values, and flip
them, over a working set of a few megabytes.  Changing the kernel or
``NOMINAL_REF_S`` changes every scaled number; compare runs only when
both are the same.
"""

from __future__ import annotations

import random
import statistics
import time

#: Kernel time of one nominal host, seconds; the unit of scaled times.
NOMINAL_REF_S = 0.1
_TABLE_SIZE = 1 << 16
_STEPS = 120_000


class HostSpeed:
    """Runs the reference kernel and scales timed regions by it."""

    def __init__(self):
        rng = random.Random(20240417)
        self._rows = [[rng.randrange(_TABLE_SIZE) for _ in range(4)]
                      for _ in range(_TABLE_SIZE)]
        self._values = bytearray(_TABLE_SIZE)
        self.samples: list[float] = []

    def reference(self) -> float:
        """One run of the kernel; returns its wall time."""
        rows, values = self._rows, self._values
        started = time.perf_counter()
        state = 1
        for _ in range(_STEPS):
            state = (state * 1103515245 + 12345) & 0xFFFF
            for other in rows[state]:
                if values[other]:
                    values[state] ^= 1
                    break
            else:
                values[other] ^= 1
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def measure(self, body):
        """Run ``body()`` between two kernel runs.

        Returns ``(result, wall seconds, scaled seconds)``.
        """
        before = self.reference()
        started = time.perf_counter()
        result = body()
        wall = time.perf_counter() - started
        after = self.reference()
        return result, wall, wall * NOMINAL_REF_S / ((before + after) / 2)

    def median_reference(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0
