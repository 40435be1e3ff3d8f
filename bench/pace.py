"""The host's pace through a run, for time metrics that hold on a shared host.

On a shared host the same work takes up to twice as long while other
guests load the physical cores, in stretches of seconds to many
minutes.  Fastest-of-repeats estimators cannot remove a slow stretch
that covers a whole run.  A :class:`Pace` measures the slowdown instead:
while it is active, a timer signal interrupts the run every
``INTERVAL`` seconds to time fixed probes.  Each phase of a job is
paced by the probe that resembles its hot path, because contention
slows vectorised kernels and interpreter-bound code by different
factors (see ``PROBES``).

:meth:`Pace.seconds` turns a stretch of wall time into *paced seconds*:
every moment counts ``reference / t``, where ``t`` is the running
median of the probe's times around it and ``reference`` is the probe's
time on an idle host, and the ticks' own time counts zero.  At the
reference pace paced seconds are wall seconds; while the host runs 1.5x
slower, a wall second counts two thirds.  The probes use only numpy and
scipy, never rieszlab, so a faster program shows as fewer paced seconds.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss
from scipy import special

#: Seconds between probes.
INTERVAL = 0.025
#: Probes in the running median that sets the pace of each moment.
WINDOW = 7

# Arguments of kernel_ratio's 2F1 at n = 4, alpha = 2: a = 0.5, b = 1,
# c = 2, with w inside the unit interval.
_KERNEL_W = np.linspace(0.01, 0.9, 1000)


def kernel_probe():
    """One vectorised 2F1 call, like ``riesz.kernel_ratio`` on a big array."""
    special.hyp2f1(0.5, 1.0, 2.0, _KERNEL_W)


def python_probe():
    """Small-array numpy calls driven from Python, like the per-cell
    quadrature set-up of ``riesz.assemble``."""
    leggauss(12)
    leggauss(12)


#: Probe and its time in seconds on an idle 2-CPU Intel Xeon VM (Python
#: 3.11, numpy 2.4, scipy 1.17), by name.  On that host, in two sets of
#: ten runs per workload 20 minutes apart, paced times spread by 1.3 to
#: 6.7% (IQR over median) where wall times spread by 5 to 14%, and set
#: medians moved by at most 4%.  Pacing Picard's set-up by the kernel
#: probe instead of the Python one doubled its spread (13% against 5%).
PROBES = {
    "kernel": (kernel_probe, 2.4e-4),
    "python": (python_probe, 4.5e-4),
}


class Pace:
    """Probe times through the ``with`` block that activates it.

    Every tick times each of ``probes`` (names in ``PROBES``), so that
    each phase of a job can be paced by the probe that resembles it.
    """

    def __init__(self, probes=("kernel",)):
        self.probes = tuple(dict.fromkeys(probes))
        self.starts = []
        self.ends = []
        self.lengths = {name: [] for name in self.probes}
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:  # a late tick must not nest inside a probe
            return
        self._busy = True
        self.starts.append(perf_counter())
        for name in self.probes:
            began = perf_counter()
            PROBES[name][0]()
            self.lengths[name].append(perf_counter() - began)
        self.ends.append(perf_counter())
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.finish()

    def finish(self):
        """Fix each probe's pace at every tick and its paced clock there."""
        self._starts = np.asarray(self.starts, dtype=float)
        self._ends = np.asarray(self.ends, dtype=float)
        self._rates = {}
        self._clocks = {}
        if not self._starts.size:
            return
        half = WINDOW // 2
        gaps = self._starts[1:] - self._ends[:-1]
        for name in self.probes:
            lengths = np.asarray(self.lengths[name], dtype=float)
            window = sliding_window_view(np.pad(lengths, half, mode="edge"),
                                         WINDOW)
            rates = PROBES[name][1] / np.median(window, axis=1)
            self._rates[name] = rates
            self._clocks[name] = np.concatenate(
                ([0.0], np.cumsum(gaps * rates[:-1])))

    def _at(self, t, probe):
        """Paced seconds by ``probe`` from the first tick's start to wall
        time ``t``."""
        rates, clock = self._rates[probe], self._clocks[probe]
        k = int(np.searchsorted(self._starts, t, side="right")) - 1
        if k < 0:
            return (t - self._starts[0]) * rates[0]
        return clock[k] + max(t - self._ends[k], 0.0) * rates[k]

    def seconds(self, start, end, probe="kernel"):
        """Paced seconds by ``probe`` of the wall-time stretch from
        ``start`` to ``end`` (wall seconds if no tick ran)."""
        if not self._starts.size:
            return end - start
        return self._at(end, probe) - self._at(start, probe)

    def summary(self):
        out = {"ticks": len(self.starts)}
        for name in self.probes:
            lengths = np.asarray(self.lengths[name], dtype=float)
            if lengths.size:
                out[name] = {"referenceS": PROBES[name][1],
                             "probeP5S": float(np.percentile(lengths, 5)),
                             "probeMedianS": float(np.median(lengths))}
        return out
