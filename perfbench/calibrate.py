"""Rescaling CPU time by the speed of the machine at the moment.

On a shared host the CPU time of one fixed piece of Python moves by up to
1.7x within seconds to minutes, as other tenants load the same cores.
That is far more than any bound the benchmark can hold.  A fixed reference
kernel, run between queries, tracks the speed: each query's CPU time is
multiplied by REF_MS over the kernel's CPU time around it, which gives the
time the query would take on a machine where the kernel takes REF_MS.  The
kernel imports nothing from singcurve, so no change to the package moves
it; raw CPU times are reported beside the rescaled ones.
"""

import time

REF_MS = 1.0            # kernel CPU ms that defines the unit
SAMPLE_EVERY_S = 0.025  # query CPU between two kernel samples


class _Ctx:
    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a % self.p == 0


def kernel():
    """Square of a dense bivariate polynomial of degree 8 mod 32003,
    through method calls on a context: the dict, tuple and small-int mix
    of the package's inner loops."""
    ctx = _Ctx(32003)
    a = {(i, j): (7 * i + 3 * j + 1) % 32003
         for i in range(9) for j in range(9 - i)}
    add, mul, is_zero = ctx.add, ctx.mul, ctx.is_zero
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in a.items():
            k = (i1 + i2, j1 + j2)
            w = mul(v1, v2)
            if k in out:
                w = add(out[k], w)
                if is_zero(w):
                    del out[k]
                    continue
            out[k] = w
    return out


def kernel_ms():
    t0 = time.thread_time()
    kernel()
    return (time.thread_time() - t0) * 1000.0


class Calibrator:
    """Kernel samples between queries, and one scale factor per query.

    Call `due` before each query and `add` with its CPU time after it;
    `scales` closes the last segment and returns the factors in order.
    `raw_seconds` turns a rescaled budget, such as a deadline, into raw
    CPU seconds.
    """

    def __init__(self):
        self.marks = []  # (queries done at the sample, kernel ms)
        self.done = 0
        self.since = 0.0

    def due(self):
        if not self.marks or self.since >= SAMPLE_EVERY_S:
            self._sample()

    def _sample(self):
        self.marks.append((self.done, kernel_ms()))
        self.since = 0.0

    def add(self, dt):
        self.done += 1
        self.since += dt

    def raw_seconds(self, seconds):
        """Raw CPU seconds worth `seconds` at the latest kernel speed."""
        recent = sorted(r for _, r in self.marks[-3:])
        return seconds * recent[len(recent) // 2] / REF_MS

    def scales(self):
        if not self.marks or self.marks[-1][0] != self.done:
            self._sample()
        out = []
        for (i0, r0), (i1, r1) in zip(self.marks, self.marks[1:]):
            out.extend([REF_MS * 2.0 / (r0 + r1)] * (i1 - i0))
        return out

    def kernel_median_ms(self):
        vals = sorted(r for _, r in self.marks)
        return vals[len(vals) // 2]
