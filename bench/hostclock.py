"""Wall and CPU time adjusted for the speed the host gives this process.

On a shared host a vCPU's speed changes by up to 1.7x over seconds to
minutes while other guests load the machine, so the same op's wall time
spreads by 10-40% between runs.  The slowdown is smooth, not coarse time
slicing: a fixed 8 ms Python loop takes 5.2 ms when the host is quiet and
8.6 ms, unimodal, when it is busy (2-vCPU KVM guest, Xeon, 2.1 GHz).

``HostClock`` measures that speed while an op runs.  A SIGALRM every
``INTERVAL_S`` runs a fixed probe of the kind of work the program does
(``PROBE_REPS`` times: a 512-point real inverse FFT, ``exp``, ``abs`` and a
sum) and records how long it took, about 1% of the wall time.  An
interval's adjusted time is its wall (or CPU) time, less the probes' own
time, times the mean of ``REFERENCE_PROBE_S / probe time`` over its probes:
the time the interval would have taken at the speed at which the probe takes
``REFERENCE_PROBE_S``.  That constant only sets the unit; it is near the
probe's time on the host above while it is quiet.

Over 200 s of interleaved ops on that host, plain wall time spread by 0.28
(verify), 0.31 (radius) and 0.38 (march) per op (interquartile range over
median).  Adjusted by a probe of this kind the spreads were 0.04, 0.035 and
0.03; by a pure Python loop 0.08, 0.08 and 0.09; by a sum over 1 MiB 0.27,
0.23 and 0.25.  The medians of ten runs (seeds 0-9) then spread by at most
0.043 on every workload.

The probe never touches the program, so a change to the program moves the
adjusted time as it moves the wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01
PROBE_REPS = 4
REFERENCE_PROBE_S = 70e-6

# bound here, so that the traced run's wrappers of numpy.fft never see a probe
_IRFFT, _EXP, _ABS = np.fft.irfft, np.exp, np.abs
_SPECTRUM = np.fft.rfft(np.random.default_rng(0).standard_normal(512))


class HostClock:
    """Samples the host's speed from ``start`` to ``stop``; one per process."""

    def __init__(self):
        self._probes: list = []  # seconds per probe, in order

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        for _ in range(PROBE_REPS):
            _EXP(-_ABS(_IRFFT(_SPECTRUM * _SPECTRUM, 512))).sum()
        self._probes.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return time.perf_counter(), time.process_time(), len(self._probes)

    def since(self, mark: tuple) -> tuple:
        """(wall s, cpu s, adjusted wall s, adjusted cpu s) since ``mark``."""
        wall = time.perf_counter() - mark[0]
        cpu = time.process_time() - mark[1]
        probes = self._probes[mark[2]:]
        if not probes:
            raise RuntimeError("no host-speed probe ran in the interval")
        probe_s = sum(probes)
        speed = sum(REFERENCE_PROBE_S / p for p in probes) / len(probes)
        return wall, cpu, (wall - probe_s) * speed, (cpu - probe_s) * speed
