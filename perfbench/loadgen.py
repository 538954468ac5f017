"""The benchmark's own open-loop load generator.

Arrivals are drawn from the benchmark seed and laid out on the
*virtual* clock before the timed phase starts.  The program only ever
sees the generated inputs.  Each op is timed from its due time, so a
stall (a checkpoint stop, a barrier, a slow restore) is charged to
every op that arrived during it; how late the generator issued each op
against its schedule is reported as ``loadgen.late_p99_us``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from repro.sim.rng import zipf_sampler

#: zipf exponent of every skewed choice (hot keys, hot functions)
SKEW = 0.99


@dataclass(frozen=True)
class Arrival:
    """One scheduled op: due time (ns after the timed phase starts),
    a kind tag, and its arguments."""

    due_ns: int
    kind: str
    args: tuple


#: arrivals are paced: each gap is the mean gap scaled by a uniform
#: draw from [1 - JITTER, 1 + JITTER]
JITTER = 0.5


def paced_gaps(rng: random.Random, count: int, mean_ns: int) -> list[int]:
    """``count`` inter-arrival gaps around ``mean_ns``.

    Paced rather than Poisson: with Poisson bursts a 1000-sample p99
    moved by half between seeds; the jittered pace keeps some queueing
    while the number of arrivals per interval stays near the mean.
    """
    low = 1 - JITTER
    return [max(1, int(mean_ns * (low + 2 * JITTER * rng.random())))
            for _ in range(count)]


def skewed_picker(rng: random.Random, n: int) -> Callable[[], int]:
    """Zipf-skewed choice over ``range(n)``; which items are hot is a
    seeded permutation, so another seed heats other keys."""
    order = list(range(n))
    rng.shuffle(order)
    rank = zipf_sampler(rng, n, SKEW)
    return lambda: order[rank()]


def digest(arrivals: list[Arrival]) -> str:
    """Stable digest of a schedule (the held-out-seed check)."""
    h = hashlib.sha256()
    for a in arrivals:
        h.update(repr((a.due_ns, a.kind, a.args)).encode())
    return h.hexdigest()[:16]


class OpenLoop:
    """Drives a schedule on a kernel's virtual clock.

    ``issue(due_ns)`` runs background events (flush completions) until
    the op is due, records how late it is issued, and returns its
    absolute due time, from which the caller times the op.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.origin = kernel.clock.now
        self.late_ns: list[int] = []

    def issue(self, due_ns: int) -> int:
        """Advance to the op's due time; returns its absolute due time."""
        due = self.origin + due_ns
        if self.kernel.clock.now < due:
            self.kernel.events.run_until(due)
        self.late_ns.append(self.kernel.clock.now - due)
        return due
