"""Host-speed calibration: reference kernels that run between operations.

The 2-core reference machine changes speed by 20-30 % for minutes at a time:
the same ``wigner_curve`` seed, run three times back to back, gave a median
latency of 623, 748 and 621 ms, with every operation of the slow run slow.
A run of tens of seconds cannot average that out, so ten runs made at
different times spread by up to 0.28 of their median.

Each workload therefore has a reference kernel: a fixed computation in the
benchmark's own code, made of the same kinds of numerical work as the
workload's operations (Laguerre polynomials and complex exponentials on the
128 x 128 lattice, a 441 x 441 complex matrix product, JSON encoding, an
interpreter loop), that calls nothing in phaselab and allocates no arrays
while it runs. It runs once after every timed operation, outside the
operation's timed span. A run's speed factor is the kernel's median time on
the reference machine (``REFERENCE_MS``) over its median time in the run;
every reported time is multiplied by that factor and every rate divided by
it, so the figures read in reference-machine units. A change to phaselab
cannot move the kernels, so a faster program still shows as a
proportionally smaller time.
"""
from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np
from scipy.special import eval_genlaguerre

_AXIS = np.linspace(-6.0, 6.0, 128)
_BETA = (_AXIS[None, :] + 1j * _AXIS[:, None]).ravel()
_ALPHA = np.linspace(-4.0, 4.0, 129)


def _interpreter(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i & 7
    return acc


class LatticeKernel:
    """`repeats` times: displacement elements <m|D(b)|n> for m, n < levels on
    the 128 x 128 beta lattice, contracted with a fixed rho, then the double
    Fourier sum onto the 129-point alpha axis (the shape of charfunc_grid
    followed by quasiprob_transform); then an interpreter loop. Every array
    is allocated once, so the kernel's time does not depend on the state of
    the allocator that the workload leaves."""

    def __init__(self, levels: int, repeats: int):
        n = _BETA.size
        self.levels, self.repeats = levels, repeats
        self.rho = np.outer(np.arange(1, levels + 1), np.arange(1, levels + 1)).astype(complex)
        self.rho /= np.trace(self.rho)
        self.x = np.empty(n)
        self.damp = np.empty(n)
        self.lag = np.empty(n)
        self.power = np.empty(n, dtype=complex)
        self.stack = np.empty((levels, levels, n), dtype=complex)
        self.values = np.empty(n, dtype=complex)
        self.m1 = np.empty((129, 128), dtype=complex)
        self.m2 = np.empty((128, 129), dtype=complex)
        self.half = np.empty((128, 129), dtype=complex)
        self.grid = np.empty((129, 129), dtype=complex)

    def __call__(self) -> None:
        for _ in range(self.repeats):
            self._fill_and_transform()
        _interpreter(20000)

    def _fill_and_transform(self) -> None:
        x, damp, lag, power, stack = self.x, self.damp, self.lag, self.power, self.stack
        np.abs(_BETA, out=x)
        np.square(x, out=x)
        np.multiply(x, -0.5, out=damp)
        np.exp(damp, out=damp)
        for m in range(self.levels):
            for n in range(m + 1):
                pref = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)))
                eval_genlaguerre(n, m - n, x, out=lag)
                np.multiply(lag, damp, out=lag)
                lag *= pref
                np.power(_BETA, m - n, out=power)
                np.multiply(power, lag, out=stack[m, n])
                if m != n:
                    np.conjugate(_BETA, out=power)
                    np.negative(power, out=power)
                    np.power(power, m - n, out=power)
                    np.multiply(power, lag, out=stack[n, m])
        np.einsum("nm,mnk->k", self.rho, stack, out=self.values)
        np.multiply.outer(2j * _ALPHA, _AXIS, out=self.m1)
        np.exp(self.m1, out=self.m1)
        np.multiply.outer(-2j * _AXIS, _ALPHA, out=self.m2)
        np.exp(self.m2, out=self.m2)
        np.matmul(self.values.reshape(128, 128).T, self.m2, out=self.half)
        np.matmul(self.m1, self.half, out=self.grid)


class BeamSplittingKernel:
    """A 441 x 441 complex product (the two-mode space at cutoff 20, as in
    beamsplit's matrix exponential and U rho U^dag) and JSON encoding."""

    def __init__(self):
        k = np.arange(441)
        self.a = np.exp(2j * np.outer(k, k) / 441) / 21
        self.out = np.empty_like(self.a)
        self.floats = np.linspace(0.0, 1.0, 2500).tolist()

    def __call__(self) -> None:
        np.matmul(self.a, self.a, out=self.out)
        json.dumps({"re": self.floats, "im": self.floats})
        _interpreter(20000)


KERNELS = {
    "wigner_curve": lambda: LatticeKernel(levels=2, repeats=3),
    "phase_portrait": lambda: LatticeKernel(levels=7, repeats=1),
    "beam_splitting": BeamSplittingKernel,
}

# median kernel time on the reference machine, in ms
REFERENCE_MS = {
    "wigner_curve": 12.0,
    "phase_portrait": 27.0,
    "beam_splitting": 24.0,
}


class HostSpeed:
    """Times a workload's reference kernel; ``factor`` scales raw times to
    reference-machine times. The kernel's buffers are built here, before the
    first sample."""

    def __init__(self, workload: str):
        self.kernel = KERNELS[workload]()
        self.reference_ms = REFERENCE_MS[workload]
        self.samples: list[float] = []
        self.kernel()  # first call pays imports and allocator growth; not kept

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    def factor(self) -> float:
        return self.reference_ms / self.median_ms()
