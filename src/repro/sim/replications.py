"""Replication statistics: means and confidence intervals across seeds.

Experiment benches that involve stochastic workloads (failure campaigns,
Zipf traffic) report means over several seeded replications; this module
provides the Student-t interval so EXPERIMENTS.md can state uncertainty
honestly instead of single-run point estimates.  The t quantile is
computed here from the regularized incomplete beta, so the interval
needs nothing beyond ``math``.

Wide sweeps (many seeds x expensive runs) can fan out across cores with
:func:`replicate_parallel` / ``run_replications(..., max_workers=N)``.
Each replication still runs a fully deterministic simulation for its seed,
and results are merged back in seed order, so the parallel runner produces
byte-for-byte the same summary as the serial one.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean and confidence half-width over independent replications."""

    mean: float
    half_width: float
    n: int
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.half_width:.2g} ({self.n} reps)"


def summarize(values: Sequence[float],
              confidence: float = 0.95) -> ReplicationSummary:
    """Student-t confidence interval over replication outputs."""
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one replication")
    mean = float(arr.mean())
    if arr.size == 1:
        return ReplicationSummary(mean, float("inf"), 1, confidence)
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    if sem == 0.0:
        return ReplicationSummary(mean, 0.0, int(arr.size), confidence)
    t = _t_ppf(0.5 + confidence / 2.0, arr.size - 1)
    return ReplicationSummary(mean, t * sem, int(arr.size), confidence)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta I_x(a, b),
    by the modified Lentz method; converges fast for x < (a+1)/(a+b+2)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge: {a}, {b}, {x}")


def _t_sf(t: float, df: float) -> float:
    """Upper tail P(T > t) of Student's t for t > 0:
    I_x(df/2, 1/2) / 2 with x = df / (df + t^2)."""
    a, b = 0.5 * df, 0.5
    t2 = t * t
    x, y = df / (df + t2), t2 / (df + t2)  # y = 1 - x without cancelling
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     - a * math.log1p(t2 / df) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * front * _betacf(a, b, x) / a
    return 0.5 * (1.0 - front * _betacf(b, a, y) / b)


def _t_ppf(p: float, df: float) -> float:
    """Student-t quantile for p in (0.5, 1), by bisection on the upper
    tail down to a few ulps."""
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must be in (0.5, 1), got {p}")
    q = 1.0 - p
    lo, hi = 0.0, 1.0
    while _t_sf(hi, df) > q:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if _t_sf(mid, df) > q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run_replications(run: Callable[[int], float], seeds: Sequence[int],
                     max_workers: int | None = None) -> list[float]:
    """Run ``run(seed)`` for every seed, returning outputs in seed order.

    ``max_workers`` > 1 fans the replications out over a process pool
    (``run`` must be picklable, i.e. a module-level function).  The merge is
    deterministic: outputs come back ordered by their position in ``seeds``
    regardless of which worker finished first, so serial and parallel runs
    are interchangeable.  If a pool cannot be started (restricted sandboxes,
    missing OS primitives), the sweep silently degrades to serial — the
    results are identical either way, only the wall time differs.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if max_workers is None or max_workers <= 1 or len(seeds) == 1:
        return [run(seed) for seed in seeds]
    workers = min(max_workers, len(seeds))
    try:
        import multiprocessing

        pool = multiprocessing.Pool(workers)
    except (ImportError, OSError, ValueError):
        return [run(seed) for seed in seeds]
    try:
        # Pool.map preserves input order: merged results are seed-ordered.
        return pool.map(run, seeds)
    except (pickle.PicklingError, AttributeError, OSError):
        # Unpicklable ``run`` callables (closures, lambdas) and worker
        # start-up failures degrade to the serial path.  Anything else is a
        # genuine model error from inside run(seed): let it propagate with
        # its traceback instead of silently re-running the whole sweep.
        return [run(seed) for seed in seeds]
    finally:
        pool.close()
        pool.join()


def replicate(run: Callable[[int], float], seeds: Sequence[int],
              confidence: float = 0.95,
              max_workers: int | None = None) -> ReplicationSummary:
    """Run ``run(seed)`` for each seed and summarize the outputs."""
    if not seeds:
        raise ValueError("need at least one seed")
    return summarize(run_replications(run, seeds, max_workers=max_workers),
                     confidence)


def replicate_parallel(run: Callable[[int], float], seeds: Sequence[int],
                       confidence: float = 0.95,
                       max_workers: int | None = None) -> ReplicationSummary:
    """:func:`replicate` across a process pool (defaults to one worker per
    seed, capped at the CPU count)."""
    if max_workers is None:
        import os

        max_workers = min(len(seeds), os.cpu_count() or 1)
    return replicate(run, seeds, confidence, max_workers=max_workers)
