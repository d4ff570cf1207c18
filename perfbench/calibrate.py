"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 1.8x from one minute to the next (see NOTES.md), which is longer than a
run. A fixed calibration round, interleaved with the program's operations,
measures the host's speed at the same moments as the program. Timings are
reported in seconds at the reference speed: the measured seconds times the
reference round's seconds over the mean calibration round of the same run.

A contended host slows different kinds of code by different amounts, so a
round runs the kernels that resemble its workload's time (MIX): dict and
tuple churn and exact `Fraction` sums for the interpreter-bound `free-group`
and `special-windows`, numpy reductions over 1.6 MB arrays for the
array-bound `z-tails`. In traces of several minutes over slow and fast
phases, these mixes kept the spread of the rescaled timings among the lowest
in every trace (NOTES.md). The kernels use nothing from `bernlab`, so a
change to the program moves the timings they are applied to and not the
calibration. The garbage collector is off during a round, so a program that
changes the collector's settings does not change the round either.
"""
from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

# Calibration time after each operation, as a share of the operation's time,
# so that the rounds sample the host evenly over the run.
SHARE = 0.1

# The kernels allocate no large blocks: a round that maps fresh pages times the
# process's allocator state, which differs between a fresh set-up child and
# the long-running workload process, rather than the host.
_ARRAY = np.random.default_rng(0).random(200_000)
_OUT = np.empty_like(_ARRAY)


def _dict_tuples() -> int:
    d: dict = {}  # at most 2048 keys
    t = 0
    for i in range(30_000):
        k = (i & 1023, (i >> 10) & 1)
        d[k] = d.get(k, 0) + i
        t += len(d) ^ i
    return t


def _fractions() -> Fraction:
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(1, i * i)
    return s


def _numpy() -> float:
    s = 0.0
    for _ in range(10):
        np.multiply(_ARRAY, _ARRAY, out=_OUT)
        np.add(_OUT, 1.0, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
        s += float(_OUT.sum())
    return s


# Kernel and its seconds on the reference host (2-core VM, Python 3.11.7,
# numpy 2.4.6, at its uncontended speed). Only the unit of the reported
# timings depends on these.
KERNELS = {
    "dict_tuples": (_dict_tuples, 0.011),
    "fractions": (_fractions, 0.0065),
    "numpy": (_numpy, 0.006),
}

MIX = {
    "free-group": ("dict_tuples", "fractions"),
    "special-windows": ("dict_tuples", "fractions"),
    "z-tails": ("numpy",),
}


def ref_round_s(workload: str) -> float:
    """Seconds for one round of the workload's mix at the reference speed."""
    return sum(KERNELS[k][1] for k in MIX[workload])


def one_round(workload: str) -> float:
    """Seconds for one calibration round of the workload's mix."""
    kernels = [KERNELS[k][0] for k in MIX[workload]]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for kernel in kernels:
            kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Calibration rounds of one run, and the scale they give its timings."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rounds: list[float] = []

    def after(self, op_seconds: float) -> None:
        """Run rounds for SHARE of an operation's time, at least one."""
        spent = 0.0
        while True:
            spent += self.sample()
            if spent >= SHARE * op_seconds:
                return

    def sample(self) -> float:
        seconds = one_round(self.workload)
        self.rounds.append(seconds)
        return seconds

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return ref_round_s(self.workload) * len(self.rounds) / sum(self.rounds)
