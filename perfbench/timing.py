"""Timed-phase bookkeeping, corrected for the machine's changing speed.

The shared machines this benchmark runs on change speed by up to 2x, for
tens of milliseconds to minutes at a time, in wall time and process CPU time
alike.  Timed work is therefore cut into chunks, and a fixed reference
kernel, independent of sse, runs between chunks.  A chunk's time, and each
latency of at least ``SHORT_LATENCY_S`` recorded in it, is multiplied by a
factor: ``REF_NOMINAL_S`` over the mean reference time on either side of
the chunk, so that it reads as if the machine ran the reference in
``REF_NOMINAL_S``.  Shorter latencies are multiplied by the square root of
that factor: from one set of runs to the next, 0.15 ms ``estimate`` calls
followed the reference with an exponent anywhere from 0 to 0.8.  The raw
times are kept as well.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Reference kernel time that defines the nominal machine speed.  On a 2-vCPU
# Xeon (Sapphire Rapids) KVM guest with numpy 2.4.6 and Python 3.11 the
# kernel took 5 to 10 ms.
REF_NOMINAL_S = 0.0065

# Latencies shorter than this take the square root of the chunk's factor.
SHORT_LATENCY_S = 0.002

_REF_LOOPS = 384
_REF_A = np.eye(6) * 6.0 + np.arange(36.0).reshape(6, 6) / 36.0
_REF_B = np.arange(48.0).reshape(8, 6) / 7.0


def reference_kernel() -> float:
    """Fixed mix of interpreter work and small numpy calls, like the solver's."""
    acc = 0.0
    for i in range(_REF_LOOPS):
        x = np.linalg.solve(_REF_A, _REF_B[i % 8])
        acc += float(x @ x)
        order = sorted(range(24), key=lambda j: (j * 7919 + i) % 61)
        mask = 0
        for j in order[:12]:
            mask |= 1 << j
        acc += mask.bit_count()
    return acc


def reference_time() -> float:
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, 0 < q < 1.

    A weighted mean of all order statistics, weighted around rank q*n, so a
    few noisy samples near the quantile do not set it alone.  On tens of
    thousands of samples it equals the sample quantile to four digits.  The
    Beta((n+1)q, (n+1)(1-q)) weights are integrated by the midpoint rule.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    cells = -(-4000 // n)  # integration cells per rank
    mids = (np.arange(n * cells) + 0.5) / (n * cells)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    log_pdf = (a - 1.0) * np.log(mids) + (b - 1.0) * np.log1p(-mids)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, cells).sum(axis=1)
    return float(np.dot(weights, x) / weights.sum())


class Meter:
    """Timed work cut into chunks, with a reference run between chunks.

    The workload calls ``start``/``stop`` around the work it times, ``record``
    for each ``estimate`` latency, and ``boundary`` wherever a reference run
    may be inserted (between windows, or between closed-loop runs).  A chunk
    closes at the first boundary after ``chunk_s`` seconds of unscaled work;
    with ``chunk_s=0`` every boundary closes one.
    """

    def __init__(self, chunk_s: float = 0.0):
        self.chunk_s = chunk_s
        reference_time()  # warm-up, discarded
        self._refs = [reference_time()]
        self._chunks: list[tuple[float, list]] = []
        self._time = 0.0
        self._latencies: list = []
        self._since: float | None = None

    def start(self) -> None:
        self._since = time.perf_counter()

    def stop(self) -> None:
        self._time += time.perf_counter() - self._since
        self._since = None

    def record(self, latency: float) -> None:
        self._latencies.append(latency)

    def boundary(self) -> None:
        if self._time >= self.chunk_s:
            self._close()

    def finish(self) -> None:
        if self._time > 0.0 or self._latencies:
            self._close()

    def _close(self) -> None:
        self._chunks.append((self._time, self._latencies))
        self._time = 0.0
        self._latencies = []
        self._refs.append(reference_time())

    def _factors(self) -> list:
        refs = self._refs
        return [2.0 * REF_NOMINAL_S / (refs[j] + refs[j + 1]) for j in range(len(self._chunks))]

    @property
    def raw_seconds(self) -> float:
        return sum(t for t, _ in self._chunks)

    @property
    def seconds(self) -> float:
        """Timed work at the nominal machine speed."""
        return sum(t * f for (t, _), f in zip(self._chunks, self._factors()))

    def latencies(self) -> list:
        """Recorded latencies at the nominal machine speed."""
        return [v * (math.sqrt(f) if v < SHORT_LATENCY_S else f)
                for (_, lat), f in zip(self._chunks, self._factors()) for v in lat]

    def raw_latencies(self) -> list:
        return [v for _, lat in self._chunks for v in lat]

    @property
    def speed(self) -> float:
        """Median machine speed over the chunks, 1.0 = nominal."""
        return statistics.median(self._factors()) if self._chunks else 1.0

