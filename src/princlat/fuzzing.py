"""Seeded random bounded posets and the randomized verification harness.

Each sample derives its own RNG from (seed, index), so samples are fully
independent, a fixed seed reproduces the run byte for byte, and workers
can generate samples without sharing state.  Timings go to stderr so
that stdout stays byte-stable across runs.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .construction import VerificationReport, load_templates, verify_theorem
from .order import BoundedPoset, to_bounded, validate_poset

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def sample_seed(seed: int, index: int) -> int:
    return (seed * _MIX + index + 1) & _MASK


def random_bounded_poset(seed: int, index: int, max_size: int) -> BoundedPoset:
    """A random bounded poset with at most max_size elements.

    Interior covers are a random DAG: edge probability 1/2 over a random
    linear order of the interior, with the bounds adjoined afterwards.
    """
    rng = random.Random(sample_seed(seed, index))
    n = rng.randrange(1, max_size + 1)
    if n == 1:
        return to_bounded(validate_poset(["0"], []))
    if n == 2:
        return to_bounded(validate_poset(["0", "1"], [("0", "1")]))
    k = n - 2
    names = [f"p{i + 1}" for i in range(k)]
    order = list(names)
    rng.shuffle(order)
    covers = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.5:
                covers.append((order[i], order[j]))
    covers += [("0", x) for x in names]
    covers += [(x, "1") for x in names]
    return to_bounded(validate_poset(["0"] + names + ["1"], covers))


@dataclass(frozen=True)
class FuzzOutcome:
    index: int
    poset: BoundedPoset
    report: VerificationReport
    elapsed: float


def run_sample(args) -> FuzzOutcome:
    """Verify one sample; ``args`` is (seed, index, max_size, templates)."""
    seed, index, max_size, templates = args
    P = random_bounded_poset(seed, index, max_size)
    t0 = time.perf_counter()
    report = verify_theorem(P, templates, name=f"sample{index}")
    return FuzzOutcome(index, P, report, time.perf_counter() - t0)


def run_fuzz(max_size: int, samples: int, seed: int, jobs: int = 1,
             template_dir=None) -> list[FuzzOutcome]:
    """Verify `samples` random posets; results ordered by sample index.

    The templates are loaded and validated once; every work item carries
    them (they pickle, for ``jobs > 1``).  A pool starts only for more
    than one worker, and never with more workers than samples or CPUs
    (``os.cpu_count()``, 1 if unknown): under the ``fork`` start method
    it launches all of them at the first submit.
    """
    templates = load_templates(template_dir)
    work = [(seed, i, max_size, templates) for i in range(samples)]
    workers = min(jobs, samples, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_sample, work))
    return [run_sample(w) for w in work]
