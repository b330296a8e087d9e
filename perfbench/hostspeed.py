"""Host speed: a fixed kernel timed between ops, to scale the run's times.

The benchmark runs on hosts shared with other tenants, whose load shifts
for minutes at a time and slows every timing by up to a third. A kernel
that does not depend on dtqsw, timed before every op of a run, sees the
same shifts: the run's times are multiplied by REFERENCE_S over the
kernel's mean time in the run, which gives them as on a host where the
kernel takes REFERENCE_S. A mean, not a median: the samples fall into a
fast and a slow mode about 1.5x apart as other load on the host comes and
goes, an op's time adds up over both modes as a mean does, and the median
of such samples jumps from one mode to the other.

The kernel does what the dtqsw ops spend their time on: complex
elementwise transforms of a 1024 x 256 field (4 MiB, more than L2) and a
(96 x 1024) @ (1024 x 256) complex product, each on fresh pages, an
interpreter loop, and first writes to fresh pages, which the direct
simulation pays for on every step. The fresh pages come from anonymous
mmaps of 4 MiB, one at a time and unmapped after use, so the kernel adds
at most 4 MiB to the peak RSS. They bypass glibc's malloc: a freed malloc
block above glibc's mmap threshold would raise that threshold and change
what the ops that follow pay for their own arrays.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

REFERENCE_S = 0.06
ROWS, COLS, HARMONICS = 1024, 256, 96
FIELD_BYTES = ROWS * COLS * 16
TRANSFORMS = 2
TOUCHES = 4
LOOP = 200_000


class HostSpeed:
    def __init__(self):
        self._x = 1j * np.linspace(0.0, 2 * np.pi, ROWS)
        self._y = np.linspace(1.0, 2.0, COLS)
        self._phases = np.empty((HARMONICS, ROWS), dtype=complex)
        for h in range(HARMONICS):  # row by row: no temporary above 16 KiB
            np.exp(h * self._x, out=self._phases[h])
        self._moments = np.empty((HARMONICS, COLS), dtype=complex)
        self.samples = []

    def sample(self) -> None:
        """Time the kernel once."""
        start = time.perf_counter()
        for _ in range(TRANSFORMS):
            with mmap.mmap(-1, FIELD_BYTES) as pages:
                field = np.frombuffer(pages, dtype=complex).reshape(ROWS, COLS)
                np.multiply.outer(self._x, self._y, out=field)
                np.exp(field, out=field)
                np.matmul(self._phases, field, out=self._moments)
                del field
        for _ in range(TOUCHES):
            with mmap.mmap(-1, FIELD_BYTES) as pages:
                touched = np.frombuffer(pages, dtype=np.uint8)
                touched[::mmap.PAGESIZE] = 1
                del touched
        total = 0
        for i in range(LOOP):
            total += i
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """REFERENCE_S over the kernel's mean time; at least one sample."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / statistics.fmean(self.samples)
