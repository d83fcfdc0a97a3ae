"""Timings at a reference speed, for a host whose speed drifts.

On a shared host the speed of one process swings between a fast and a slow
state (about 1.7x apart) every few seconds, and it swings alike for the
engine and for any pure-Python loop.  SpeedSampler times a tiny fixed loop
from a SIGALRM handler every SAMPLE_PERIOD_S, in the same thread as the
work; `to_reference` scales a measured interval by the mean speed the
samples saw during it.  The result is the interval in milliseconds at the
reference speed: the speed at which the loop takes REFERENCE_LOOP_S.

The end-to-end metrics use the scaled times; run.py prints the raw ones
beside them.  The handler takes about 0.5% of the time it samples.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

SAMPLE_PERIOD_S = 0.05
SAMPLE_LOOP = 40
# The loop's time on the reference machine (a 2.1 GHz Xeon VM, Python
# 3.11.7) in its fast state.  It is a fixed unit, not tuned per run.
REFERENCE_LOOP_S = 1.5e-4
# an interval is scaled by the samples within this margin of it, so that
# short intervals (many jobs take a few ms) still see several samples
MARGIN_S = 0.25


class SpeedSampler:
    """Timed runs of a fixed loop, every SAMPLE_PERIOD_S, from SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock reading, loop seconds)

    def _tick(self, signum, frame):
        # exact rational arithmetic like the engine's: as a normalizer it left
        # 2.7% variation in a repeated spectral job, a small-int loop 5%
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, SAMPLE_LOOP):
            acc += Fraction(i % 7 - 3, i % 13 + 1)
        self.samples.append((start, perf_counter() - start))

    def sample_now(self, n):
        for _ in range(n):
            self._tick(None, None)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def to_reference(seconds, start, end, samples):
    """`seconds` measured over [start, end], rescaled to the reference speed.

    The scale is the mean speed (reference loop time over sampled loop
    time) of the samples within MARGIN_S of the interval; periodic samples
    weight each speed by the time spent at it.
    """
    speeds = [REFERENCE_LOOP_S / d for t, d in samples if start - MARGIN_S <= t <= end + MARGIN_S]
    if not speeds:
        raise ValueError(f"no speed samples near the interval [{start}, {end}]")
    return seconds * sum(speeds) / len(speeds)
