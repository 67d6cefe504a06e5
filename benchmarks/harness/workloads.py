"""Workload generator: ``(workload, seed) ->`` request stream and schedule.

The corpora are fixed (:mod:`corpora`: wire lines with the labels stripped,
held-out gold, reference answers).  What ``--seed`` makes is the *stream*
(:func:`build_stream`): where the cycle starts, which positions carry a
never-seen table, the Zipf draws, which requests of a burst are duplicates,
and every arrival time.  The same seed gives the same stream; the server
receives only the lines.

A stream is one sequence of corpus indices cut into ``warmup`` and then
rounds of ``closed | open-lo | open-hi``.  Phase sizes are counts (see
:mod:`catalog`), so every seed serves the same *set* of tables and the
quality guards repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from catalog import Workload
from corpora import NARROW_COLD, NARROW_HOT, WIDE_TABLES

FRESH_SHARE = 0.1
ZIPF_EXPONENT = 1.1
DUP_SHARE = 0.25
BURST_PERIOD_S = 0.1


# ---------------------------------------------------------------------------
# Arrival schedules (seconds from the start of the phase)
# ---------------------------------------------------------------------------

def poisson_schedule(rng: np.random.Generator, count: int, rate: float) -> np.ndarray:
    """``count`` arrivals of a Poisson process of ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def burst_sizes(count: int, rate: float) -> List[int]:
    """Sizes of the bursts that carry ``count`` requests at mean ``rate``:
    one burst per ``BURST_PERIOD_S``, the last one possibly short."""
    per_burst = max(1, int(round(rate * BURST_PERIOD_S)))
    sizes = [per_burst] * (count // per_burst)
    if count % per_burst:
        sizes.append(count % per_burst)
    return sizes


def burst_schedule(rng: np.random.Generator, count: int, rate: float) -> np.ndarray:
    """Back-to-back bursts every ``BURST_PERIOD_S`` (every request of a
    burst is due at the burst's instant); the phase of the first burst
    within its period is seeded."""
    start = float(rng.random()) * BURST_PERIOD_S
    due = [
        start + k * BURST_PERIOD_S
        for k, size in enumerate(burst_sizes(count, rate))
        for _ in range(size)
    ]
    return np.asarray(due, dtype=np.float64)


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    """One phase of a stream: corpus indices, and for an open-loop phase
    each request's due time."""

    name: str
    indices: List[int]
    due: Optional[np.ndarray] = None


@dataclass
class Stream:
    workload: str
    seed: int
    warmup: Phase
    rounds: List[Tuple[Phase, Phase, Phase]]  # (closed, open-lo, open-hi)

    def phases(self) -> List[Phase]:
        return [self.warmup, *(phase for trio in self.rounds for phase in trio)]


def _cycle(start: int, count: int, size: int) -> List[int]:
    return [(start + k) % size for k in range(count)]


def _with_duplicates(
    rng: np.random.Generator, fresh: Sequence[int], groups: Sequence[int]
) -> List[int]:
    """Lay ``fresh`` indices out in groups of the given sizes, the last
    ``DUP_SHARE`` of each group repeating members of its first part, then
    shuffle within the group.  Returns exactly ``sum(groups)`` indices and
    consumes ``fresh`` from the front."""
    out: List[int] = []
    cursor = 0
    for size in groups:
        dups = int(size * DUP_SHARE)
        originals = list(fresh[cursor:cursor + size - dups])
        cursor += size - dups
        group = originals + [
            originals[int(k)] for k in rng.integers(len(originals), size=dups)
        ]
        rng.shuffle(group)
        out.extend(int(i) for i in group)
    return out


def _zipf_probabilities(size: int) -> np.ndarray:
    weights = np.arange(1, size + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    return weights / weights.sum()


def build_stream(workload: Workload, seed: int) -> Stream:
    """The request stream and arrival schedule of one run."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    round_sizes = (workload.pass_len, workload.lo_block, workload.hi_block)
    sizes = [workload.warmup, *(round_sizes * workload.rounds)]
    rates = [None, *((None, workload.rate_lo, workload.rate_hi) * workload.rounds)]
    total = sum(sizes)
    burst = workload.arrivals == "burst"
    schedule = burst_schedule if burst else poisson_schedule

    if workload.name == "warm_repeat":
        # Warm-up touches every hot table once (so the set of tables served
        # is the whole hot set whatever the Zipf draws) plus a few fresh
        # ones to prove the encoder's kernels; after it, exactly
        # FRESH_SHARE of every phase are never-seen tables, taken from the
        # pool in order, and the rest are Zipf ranks of the hot set.
        fresh_cursor = workload.warmup - NARROW_HOT
        indices = list(range(NARROW_HOT)) + [
            NARROW_COLD + k for k in range(fresh_cursor)
        ]
        probabilities = _zipf_probabilities(NARROW_HOT)
        for size in sizes[1:]:
            fresh = int(round(size * FRESH_SHARE))
            phase = rng.choice(NARROW_HOT, size=size, p=probabilities)
            slots = rng.choice(size, size=fresh, replace=False)
            phase[slots] = NARROW_COLD + fresh_cursor + np.arange(fresh)
            fresh_cursor += fresh
            indices.extend(int(i) for i in phase)
    elif workload.name == "wide_planned":
        indices = _cycle(int(rng.integers(WIDE_TABLES)), total, WIDE_TABLES)
    else:
        cycle = _cycle(int(rng.integers(NARROW_COLD)), total, NARROW_COLD)
        if burst:
            # The duplicate structure follows the bursts of each phase;
            # closed phases have no arrivals, so they borrow the hi rate's
            # burst size.
            groups: List[int] = []
            for size, rate in zip(sizes, rates):
                groups.extend(burst_sizes(size, rate or workload.rate_hi))
            indices = _with_duplicates(rng, cycle, groups)
        else:
            indices = cycle

    bounds = np.cumsum([0, *sizes])
    names = ["warmup", *(
        f"{kind}-{k + 1}" for k in range(workload.rounds)
        for kind in ("closed", "open-lo", "open-hi")
    )]
    phases = [
        Phase(name, indices[a:b],
              None if rate is None else schedule(rng, b - a, rate))
        for name, a, b, rate in zip(names, bounds[:-1], bounds[1:], rates)
    ]
    return Stream(
        workload=workload.name,
        seed=seed,
        warmup=phases[0],
        rounds=[tuple(phases[k:k + 3]) for k in range(1, len(phases), 3)],
    )
