"""Host-speed calibration: timings reported at a fixed host speed.

On the shared 2-core host this benchmark was tuned on, the speed of the same
single-threaded code drifts by up to 30% over minutes, as neighbours load the
cores and the memory bus; a 30 s run cannot average that out. So each run
also times a fixed kernel between its jobs. The kernel is independent of
fedrelax but does the same kind of work as the workload:

* ``dense``: small dense products and elementwise NumPy calls, like one MLP
  mini-batch step (Python and call overhead bound);
* ``stream``: one 50 x 50 matrix-vector product for each of 1000 matrices,
  20 MB in all, like one pass over a quadratic family (memory bound). Its
  array stays resident; the run subtracts it from the peak memory it reports.

Reported times are then

    measured * REFERENCE_S[kind] / median(kernel times of the run)

that is, seconds on a host where the kernel takes REFERENCE_S[kind]. The
kernels and REFERENCE_S never change, so runs of two commits stay comparable
while the host drifts; a change to fedrelax moves the measured time and not
the kernel.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# about each kernel's median time on the tuning host
REFERENCE_S = {"dense": 0.012, "stream": 0.0075}
REPS_PER_SAMPLE = 5


class Calibration:
    def __init__(self, kind: str):
        self.kind = kind
        self._kernel = {"dense": self._dense, "stream": self._stream}[kind]
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(32, 10))
        self._w1 = 0.3 * rng.normal(size=(10, 16))
        self._w2 = 0.3 * rng.normal(size=(16, 10))
        self._y = np.eye(10)[rng.integers(10, size=32)]
        # allocated once, like a quadratic family: an array allocated afresh for
        # every sample lands on differently backed pages and times bimodally
        self._a = np.full((1000, 50, 50), 0.5) if kind == "stream" else None
        self.times: list[float] = []

    def _dense(self, reps: int) -> list[float]:
        x, w1, w2, y = self._x, self._w1, self._w2, self._y
        times = []
        for _ in range(reps):
            start = perf_counter()
            for _ in range(300):
                h = np.tanh(x @ w1)
                z = h @ w2
                z = z - z.max(axis=1, keepdims=True)
                p = np.exp(z)
                p /= p.sum(axis=1, keepdims=True)
                gz = p - y
                gh = (gz @ w2.T) * (1.0 - h * h)
                float((x.T @ gh).sum() + (h.T @ gz).sum())
            times.append(perf_counter() - start)
        return times

    def _stream(self, reps: int) -> list[float]:
        a, v = self._a, self._x[0, :5].repeat(10)
        times = []
        for _ in range(reps):
            start = perf_counter()
            g = np.zeros(50)
            for a_i in a:
                g += a_i @ (v - 1e-3 * g)
            times.append(perf_counter() - start)
        return times

    @property
    def resident_bytes(self) -> int:
        """Memory the kernel keeps resident, to subtract from the run's peak."""
        return 0 if self._a is None else self._a.nbytes

    def sample(self) -> None:
        self.times += self._kernel(REPS_PER_SAMPLE)

    @property
    def median_s(self) -> float:
        return statistics.median(self.times)

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get the time at the reference speed."""
        return REFERENCE_S[self.kind] / self.median_s
