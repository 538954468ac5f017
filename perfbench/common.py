"""Shared pieces of the end-to-end benchmark: the simulated machine,
the one percentile helper, failure accounting and the round record.

Nothing here reaches into the program's internals: a world is built
from the same public constructors the examples use, and every number
is read from counters the program already exposes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.backends import DiskBackend
from repro.core.orchestrator import SLS
from repro.hw.nvme import NvmeDevice
from repro.hw.specs import OPTANE_900P, with_queue_model
from repro.objstore.store import ObjectStore
from repro.posix.kernel import Kernel
from repro.units import GIB

#: NVMe shape of every workload: 4 submission queues, depth 8
NUM_QUEUES = 4
QUEUE_DEPTH = 8

#: the host clock: CPU seconds of this (single-threaded) process, so
#: time the machine spends on other tenants' work is not counted
host_clock = time.process_time
host_clock_ns = time.process_time_ns

#: the charge on top of a failed op's censored latency (see Ledger):
#: it ranks above every success in a latency percentile, and fixing a
#: failure can never read as a latency regression
FAILURE_PENALTY_NS = 1_000_000_000


def percentile(values, pct: float) -> int:
    """Nearest-rank percentile (the benchmark's only percentile).

    ``pct`` in (0, 100]; the value at rank ceil(pct/100 * n) of the
    sorted samples.  Callers name a percentile only when at least ten
    samples lie beyond it (n >= 20 for p50, 100 for p90, 1000 for p99).
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class World:
    """One simulated machine: kernel, SLS, NVMe device, store, backend."""

    kernel: Kernel
    sls: SLS
    device: NvmeDevice
    store: ObjectStore
    backend: DiskBackend


def boot_world(hostname: str, *, device: Optional[NvmeDevice] = None,
               clock=None) -> World:
    """Boot a machine with a batched disk backend on a 4-queue qd8
    Optane device.  Pass ``device`` (and its ``clock``) to boot over an
    existing device after a power cut."""
    kernel = Kernel(hostname=hostname, memory_bytes=16 * GIB, clock=clock)
    if device is None:
        spec = with_queue_model(OPTANE_900P, QUEUE_DEPTH, num_queues=NUM_QUEUES)
        device = NvmeDevice(kernel.clock, spec=spec, name=f"{hostname}-nvme")
    sls = SLS(kernel)
    store = ObjectStore(device, mem=kernel.mem)
    backend = DiskBackend("disk0", store, batched=True)
    backend.bind(kernel)
    return World(kernel=kernel, sls=sls, device=device, store=store,
                 backend=backend)


@dataclass
class Ledger:
    """Attempted/failed ops and the latency samples of one round.

    A failed op never completed correctly, so its latency is censored
    at the end of the timed phase and charged a further
    :data:`FAILURE_PENALTY_NS`: it ranks above every success, and
    fixing a failure can never read as a latency regression.
    """

    attempted: int = 0
    failed: int = 0
    #: (due ns, done ns, ok) of every timed op
    timings: list = field(default_factory=list)
    #: first few failure descriptions, for the report
    failures: list = field(default_factory=list)
    #: failures no known, recorded defect accounts for (any makes the
    #: run incorrect)
    unexplained: list = field(default_factory=list)

    def op(self, ok: bool, what: str = "", known: bool = False) -> bool:
        """Count one op; a failure is ``known`` when it has the exact
        signature of a recorded defect (see NOTES.md)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(what)
            if not known and len(self.unexplained) < 8:
                self.unexplained.append(f"unexplained failure: {what}")
        return ok

    def timed(self, due_ns: int, done_ns: int, ok: bool = True) -> None:
        self.timings.append((due_ns, done_ns, ok))

    def latencies(self, end_ns: int) -> list[int]:
        """Every timed op's latency; failures censored at ``end_ns``."""
        return [done - due if ok else end_ns - due + FAILURE_PENALTY_NS
                for due, done, ok in self.timings]


@dataclass
class RoundResult:
    """What one round of one workload measured.

    ``virtual`` holds the virtual-clock end-to-end metrics, which must
    be byte-identical for every round of one seed; ``counts`` holds
    the per-layer counters read over the timed phase.
    """

    virtual: dict
    counts: dict
    timed_host_s: float
    ops_ok: int
    ledger: Ledger
    #: generator lateness samples (ns) against the virtual schedule
    late_ns: list
    #: digest of the generated inputs (the held-out-seed check)
    input_digest: str
    #: host seconds of each set-up of the round (filled by the runner)
    setup_host_s: list = field(default_factory=list)


def us(ns: int) -> float:
    return ns / 1000


def ms(ns: int) -> float:
    return ns / 1_000_000
