"""The three benchmark workloads.

Each workload is a set-up ``setup_<name>(seed, window)`` that builds
its world from the seed and a timed phase ``run_<name>(state,
window)`` that drives it, checks every output against a model the
workload keeps itself, and returns a :class:`~common.RoundResult`.  The program is driven only through its
public surface: ``RedisLikeServer``, ``ServerlessManager.deploy/
invoke``, ``SLS.checkpoint/barrier/restore``, ``load_image_from_store``,
``ObjectStore.recover``, ``repro.objstore.fsck`` and
``StorageDevice.crash``.

- ``kv_steady``: the write path at 100 Hz (COW capture, serializer,
  codec deltas, record/checksum, batch coalescing, retention GC).
- ``fleet``: the metadata/commit path (hundreds of dedup'd deploys on
  one store) and cache-resident lazy warm starts.
- ``reboot``: the read and recovery path on a store larger than the
  page cache, with a power cut during a flush.

See NOTES.md for why each exists and how large each one is.
"""

from __future__ import annotations

from repro.apps.kvstore import RedisLikeServer
from repro.apps.serverless import ServerlessManager
from repro.core.restore import load_image_from_store
from repro.core.scheduler import TenantQoS
from repro.objstore import fsck
from repro.posix.syscalls import Syscalls
from repro.sim.rng import RngFactory
from repro.units import PAGE_SIZE

from common import (
    FAILURE_PENALTY_NS,
    Ledger,
    RoundResult,
    boot_world,
    host_clock,
    ms,
    percentile,
    us,
)
from loadgen import Arrival, OpenLoop, digest, paced_gaps, skewed_picker

#: the paper's default checkpoint period: 100 checkpoints per second
INTERVAL_NS = 10_000_000
#: SET value sizes: each SET overwrites part of one page
VALUE_BYTES = (64, 512)

# -- kv_steady --------------------------------------------------------------
KV_PAGES = 2048               # 8 MiB working set, one key per page
KV_CHECKPOINTS = 100          # >= 100 for a p90; crosses retention 5x
KV_SET_GAP_NS = 100_000       # mean SET inter-arrival: 10000 SET/s

# -- fleet -------------------------------------------------------------------
FLEET_FUNCTIONS = 160         # directory spills the superblock at ~60
FLEET_INVOCATIONS = 1000      # >= 1000 for a p99
FLEET_GAP_NS = 800_000        # mean arrival gap; a warm start is ~0.4 ms
FLEET_CODE_PAGES = 16         # each function's own 64 KiB code delta

# -- reboot ------------------------------------------------------------------
REBOOT_PAGES = 4608           # 18 MiB of address space, one key per page
REBOOT_CHECKPOINTS = 19       # the 18th is a consolidating full checkpoint
REBOOT_SET_GAP_NS = 20_000    # mean SET inter-arrival: 50000 SET/s
REBOOT_FAULTS = 3072          # distinct pages faulted
#: bytes every key is loaded with before the history (the most one SET
#: stores): 4608 keys x 2 KiB of decoded content is 9 MiB, more than
#: the 8 MiB page cache holds; the values compress well, like text
DATASET_VALUE_BYTES = PAGE_SIZE // 2

ZERO_PAGE = bytes(PAGE_SIZE)


def _initial_page(slot: int) -> bytes:
    """A kv slot's content after ``RedisLikeServer.load_dataset``."""
    return (b"key:%d:val" % slot).ljust(PAGE_SIZE, b"\0")


class KvModel:
    """slot -> page bytes, as the server should hold them."""

    def __init__(self):
        self.pages: dict[int, bytes] = {}

    def set(self, slot: int, value: bytes) -> None:
        page = bytearray(self.page(slot))
        page[: len(value)] = value
        self.pages[slot] = bytes(page)

    def page(self, slot: int) -> bytes:
        return self.pages.get(slot) or _initial_page(slot)


def kv_schedule(seed: int, prefix: str, checkpoints: int, npages: int,
                gap_ns: int) -> list:
    """SETs (Poisson arrivals, zipf keys, random partial-page values)
    and one checkpoint every ``INTERVAL_NS``, merged by due time."""
    rng = RngFactory(root_seed=seed)
    pick = skewed_picker(rng.stream(f"{prefix}.keys"), npages)
    values = rng.stream(f"{prefix}.values")
    gaps = rng.stream(f"{prefix}.gaps")
    horizon = checkpoints * INTERVAL_NS
    arrivals = []
    due = paced_gaps(gaps, 1, gap_ns)[0]
    while due < horizon:
        value = values.randbytes(values.randint(*VALUE_BYTES))
        arrivals.append(Arrival(due, "set", (pick(), value)))
        due += paced_gaps(gaps, 1, gap_ns)[0]
    arrivals += [Arrival(k * INTERVAL_NS, "ckpt", (k,))
                 for k in range(1, checkpoints + 1)]
    # A checkpoint due at the same instant as a SET runs after it.
    arrivals.sort(key=lambda a: (a.due_ns, a.kind == "ckpt"))
    return arrivals


def _boot_kv(hostname: str, npages: int):
    world = boot_world(hostname)
    server = RedisLikeServer(world.kernel, working_set=npages * PAGE_SIZE,
                             name="redis-server")
    server.load_dataset()
    group = world.sls.persist(server.proc, name="kv")
    group.attach(world.backend)
    return world, server, group


def _drive_kv(world, server, group, arrivals, model, ledger,
              on_checkpoint=None):
    """Run a kv schedule open-loop; returns (loop, flush lags, SET bytes).

    Every checkpoint is followed by ``sls_barrier``: the image must be
    durable before the next interval's SETs are acknowledged.
    """
    kernel, sls = world.kernel, world.sls
    loop = OpenLoop(kernel)
    lags, user_bytes = [], 0
    for arrival in arrivals:
        due = loop.issue(arrival.due_ns)
        if arrival.kind == "set":
            slot, value = arrival.args
            server.set(slot, value)
            model.set(slot, value)
            user_bytes += len(value)
            ledger.op(True)
            ledger.timed(due, kernel.clock.now)
            continue
        (k,) = arrival.args
        image = sls.checkpoint(group, name=f"ckpt-{k:04d}")
        sls.barrier(group)
        ledger.op(image.durable, f"checkpoint {k} not durable")
        lags.append(image.metrics.flush_lag_ns)
        if on_checkpoint is not None:
            on_checkpoint(k, image)
    return loop, lags, user_bytes


def _verify_pages(kernel, proc, entry_name, slots, expect, ledger, what,
                  timed=False, known=None) -> int:
    """Byte-compare restored pages against the model; returns how many
    matched.  With ``timed`` each page access is a latency sample;
    ``known(slot, data)`` says whether a mismatch has the exact
    signature of a recorded defect."""
    sysc = Syscalls(kernel, proc)
    entry = next(e for e in proc.aspace.entries if e.name == entry_name)
    good = 0
    for slot in slots:
        before = kernel.clock.now
        data = sysc.peek(entry.start + slot * PAGE_SIZE, PAGE_SIZE)
        ok = data == expect(slot)
        ledger.op(ok, f"{what}: page {slot} differs",
                  known=not ok and known is not None and known(slot, data))
        if timed:
            ledger.timed(before, kernel.clock.now, ok)
        good += ok
    return good


def _space_amp(store) -> float:
    """Store bytes on media over the logical bytes its snapshots name."""
    logical = sum(s.logical_bytes for s in store.snapshots())
    return store.physical_bytes() / logical


def _op_metrics(ledger: Ledger, end_ns: int) -> dict:
    """Mean and p99 of the workload's user-visible op latency."""
    samples = ledger.latencies(end_ns)
    return {
        "op_mean_us": us(sum(samples) / len(samples)),
        "op_p99_us": us(percentile(samples, 99)),
    }


def _lag_metrics(lags) -> dict:
    return {
        "flush_lag_p50_us": us(percentile(lags, 50)),
        "flush_lag_p90_us": us(percentile(lags, 90)),
    }


# -- kv_steady ---------------------------------------------------------------

def kv_steady_inputs(seed: int) -> list:
    return kv_schedule(seed, "kv", KV_CHECKPOINTS, KV_PAGES, KV_SET_GAP_NS)


def setup_kv_steady(seed: int, _window):
    arrivals = kv_steady_inputs(seed)
    world, server, group = _boot_kv("kv", KV_PAGES)
    world.sls.checkpoint(group, name="ckpt-0000")
    world.sls.barrier(group)
    return arrivals, world, server, group


def run_kv_steady(state, window) -> RoundResult:
    arrivals, world, server, group = state
    ledger = Ledger()
    clock = world.kernel.clock
    model = KvModel()
    window.begin(clock, [world])
    bytes_before = world.device.stats.bytes_written
    t1 = host_clock()
    loop, lags, user_bytes = _drive_kv(world, server, group, arrivals,
                                       model, ledger)
    timed_s = host_clock() - t1
    end_ns = clock.now
    checkpoints_failed = ledger.failed  # SETs cannot fail
    counts = window.end()
    write_amp = (world.device.stats.bytes_written - bytes_before) / user_bytes

    # Untimed: restore the newest image from the store onto a second
    # machine and compare every page with the model.
    other = boot_world("kv-restored", device=world.device, clock=clock)
    start = clock.now
    procs, _metrics = other.sls.restore(group.latest_image,
                                        backend_name="disk0",
                                        store=world.store)
    restore_ns = clock.now - start
    failed = ledger.failed
    _verify_pages(other.kernel, procs[0], "redis-heap", range(KV_PAGES),
                  model.page, ledger, "kv restore")
    if ledger.failed > failed:
        restore_ns += FAILURE_PENALTY_NS

    virtual = {
        **_lag_metrics(lags),
        **_op_metrics(ledger, end_ns),
        "restore_ms": ms(restore_ns),
        "write_amp": write_amp,
        "space_amp": _space_amp(world.store),
    }
    return RoundResult(
        virtual=virtual, counts=counts, timed_host_s=timed_s,
        ops_ok=len(lags) - checkpoints_failed, ledger=ledger,
        late_ns=loop.late_ns, input_digest=digest(arrivals),
    )


# -- fleet -------------------------------------------------------------------

def fleet_inputs(seed: int):
    """Per-function code deltas and the invocation storm."""
    rng = RngFactory(root_seed=seed)
    code = rng.stream("fleet.code")
    blobs = [code.randbytes(code.randint(256, 1024))
             for _ in range(FLEET_FUNCTIONS)]
    pick = skewed_picker(rng.stream("fleet.targets"), FLEET_FUNCTIONS)
    payloads = rng.stream("fleet.payloads")
    arrivals = []
    due = 0
    for gap in paced_gaps(rng.stream("fleet.gaps"), FLEET_INVOCATIONS,
                        FLEET_GAP_NS):
        due += gap
        payload = payloads.randbytes(payloads.randint(8, 64))
        arrivals.append(Arrival(due, "invoke", (pick(), payload)))
    return blobs, arrivals


def _fn_name(i: int) -> str:
    return f"fn-{i:04d}"


def _code_page(fn: int, page: int, blob: bytes) -> bytes:
    """What ``ServerlessManager.deploy`` writes into code page ``page``."""
    content = b"%s:%d:%s" % (_fn_name(fn).encode(), page, blob)
    return content[:PAGE_SIZE].ljust(PAGE_SIZE, b"\0")


def setup_fleet(seed: int, window):
    """Boot and provision: deploy every function (the commit path).

    The per-layer window opens here, so the traced run covers the
    deploys as well as the storm."""
    blobs, arrivals = fleet_inputs(seed)
    world = boot_world("fleet")
    world.sls.scheduler.register_tenant("fleet", qos=TenantQoS())
    manager = ServerlessManager(world.sls, backend=world.backend)
    ledger = Ledger()
    window.begin(world.kernel.clock, [world])
    lags = []
    for fn, blob in enumerate(blobs):
        deployed = manager.deploy(_fn_name(fn), customize=blob,
                                  tenant="fleet")
        ledger.op(deployed.image.durable, f"deploy {fn} not durable")
        lags.append(deployed.image.metrics.flush_lag_ns)
    return seed, blobs, arrivals, world, manager, ledger, lags


def run_fleet(state, window) -> RoundResult:
    seed, blobs, arrivals, world, manager, ledger, lags = state
    kernel = world.kernel
    clock = kernel.clock
    deploy_bytes = world.device.stats.bytes_written
    t1 = host_clock()
    done = 0
    loop = OpenLoop(kernel)
    restores = []
    for seq, arrival in enumerate(arrivals, start=1):
        due = loop.issue(arrival.due_ns)
        started = clock.now
        fn, payload = arrival.args
        result = manager.invoke(_fn_name(fn), payload=payload,
                                keep_instance=True)
        ok = ledger.op(result.output == b"hello, " + payload,
                       f"invocation {seq}: wrong reply")
        ledger.timed(due, clock.now, ok)
        done += ok
        # The kept instance is named after its invocation sequence.
        instance = next(p for p in kernel.procs.all_processes()
                        if p.name.endswith(f"#{seq}") and p.is_alive())
        sysc = Syscalls(kernel, instance)
        heap = next(e for e in instance.aspace.entries if e.name == "heap")
        ledger.op(sysc.peek(heap.start, len(payload)) == payload,
                  f"invocation {seq}: payload not in the heap")
        _verify_pages(kernel, instance, "fn-code", range(FLEET_CODE_PAGES),
                      lambda page, fn=fn: _code_page(fn, page, blobs[fn]),
                      ledger, f"invocation {seq} code")
        # A warm start's restore is lazy: it completes as the handler
        # faults in the pages it touches (its heap and its code).
        restores.append(clock.now - started)
        kernel.exit(instance)
        kernel.reap(instance)
    timed_s = host_clock() - t1
    counts = window.end()

    user_bytes = sum(len(_code_page(fn, page, blob).rstrip(b"\0"))
                     for fn, blob in enumerate(blobs)
                     for page in range(FLEET_CODE_PAGES))
    virtual = {
        **_lag_metrics(lags),
        **_op_metrics(ledger, clock.now),
        "restore_ms": ms(sum(restores) / len(restores)),
        "write_amp": deploy_bytes / user_bytes,
        "space_amp": _space_amp(world.store),
    }
    return RoundResult(
        virtual=virtual, counts=counts, timed_host_s=timed_s, ops_ok=done,
        ledger=ledger, late_ns=loop.late_ns,
        input_digest=input_digest("fleet", seed),
    )


# -- reboot ------------------------------------------------------------------

def reboot_inputs(seed: int):
    """The dataset, the kv history (one checkpoint more than will be
    durable) and a skewed order over ``REBOOT_FAULTS`` distinct pages."""
    rng = RngFactory(root_seed=seed)
    chunks = rng.stream("reboot.dataset")
    dataset = [chunks.randbytes(64) * (DATASET_VALUE_BYTES // 64)
               for _ in range(REBOOT_PAGES)]
    arrivals = kv_schedule(seed, "reboot", REBOOT_CHECKPOINTS + 1,
                           REBOOT_PAGES, REBOOT_SET_GAP_NS)
    pick = skewed_picker(rng.stream("reboot.faults"), REBOOT_PAGES)
    order: dict[int, None] = {}
    while len(order) < REBOOT_FAULTS:
        order.setdefault(pick())
    return dataset, arrivals, list(order)


def setup_reboot(seed: int, _window):
    """Boot, load the working set and build a history that crosses the
    retention window; returns with one checkpoint's flush in flight."""
    dataset, arrivals, order = reboot_inputs(seed)
    world, server, group = _boot_kv("reboot", REBOOT_PAGES)
    model = KvModel()
    for slot, value in enumerate(dataset):
        server.set(slot, value)
        model.set(slot, value)
    acked: dict[int, dict[int, bytes]] = {}
    fulls: list[int] = []

    def on_checkpoint(k, image):
        acked[k] = dict(model.pages)
        if not image.incremental:
            fulls.append(k)

    # REBOOT_CHECKPOINTS checkpoints, each barriered, then the SETs of
    # one more interval and a checkpoint whose flush is still in
    # flight when the power goes.
    last = REBOOT_CHECKPOINTS + 1
    history = [a for a in arrivals if a.kind != "ckpt" or a.args[0] < last]
    loop, lags, user_bytes = _drive_kv(
        world, server, group, history, model, Ledger(), on_checkpoint)
    # The first checkpoint persists the dataset: its bytes are user bytes.
    user_bytes += sum(len(value) for value in dataset)
    write_amp = world.device.stats.bytes_written / user_bytes
    world.sls.checkpoint(group, name=f"ckpt-{last:04d}")
    return (seed, order, world, acked, fulls, loop.late_ns, lags,
            write_amp)


def run_reboot(state, window) -> RoundResult:
    seed, order, world, acked, fulls, late_ns, lags, write_amp = state
    ledger = Ledger()
    expect_name = f"ckpt-{REBOOT_CHECKPOINTS:04d}"
    expect_pages = acked[REBOOT_CHECKPOINTS]

    def expect(slot: int) -> bytes:
        return expect_pages.get(slot) or _initial_page(slot)

    # Known defect (NOTES.md): a consolidating full checkpoint records
    # its page-map delta against its parent, and the post-reboot image
    # loader treats a full checkpoint's delta as complete, so every
    # page unchanged since that parent comes back as a zero page.
    consolidated = max((k for k in fulls if k > 1), default=None)

    def known(slot: int, data: bytes) -> bool:
        if consolidated is None or data != ZERO_PAGE:
            return False
        return acked[consolidated - 1].get(slot) == expect_pages.get(slot)

    clock = world.kernel.clock
    window.begin(clock, [world])
    t1 = host_clock()
    world.device.crash()
    after = boot_world("reboot-after", device=world.device, clock=clock)
    window.add_world(after)
    start = clock.now
    report = after.store.recover()
    recover_ns = clock.now - start
    newest = after.store.snapshots()[-1]
    ledger.op(not report.errors and newest.name == expect_name,
              f"recovered {newest.name} ({report.errors})")
    findings = fsck.check_store(after.store)
    ledger.op(findings.clean, f"fsck: {findings.counts()}")

    start = clock.now
    image = load_image_from_store(after.store, newest)
    procs, _metrics = after.sls.restore(image, backend_name="disk0",
                                        store=after.store)
    restore_ns = recover_ns + clock.now - start
    failed = ledger.failed
    good = _verify_pages(after.kernel, procs[0], "redis-heap",
                         range(REBOOT_PAGES), expect, ledger,
                         "eager restore", known=known)
    if ledger.failed > failed:
        restore_ns += FAILURE_PENALTY_NS

    lazy, _metrics = after.sls.restore(
        load_image_from_store(after.store, newest), backend_name="disk0",
        store=after.store, lazy=True, new_instance=True, name_suffix="#lazy",
    )
    good += _verify_pages(after.kernel, lazy[0], "redis-heap", order,
                          expect, ledger, "lazy restore", timed=True,
                          known=known)
    timed_s = host_clock() - t1
    counts = window.end()
    counts["objstore.recover.snapshots_recovered"] = report.snapshots_recovered
    counts["objstore.recover.virt_ms"] = ms(recover_ns)
    counts["objstore.fsck.findings"] = len(findings.findings)

    virtual = {
        **_lag_metrics(lags),
        **_op_metrics(ledger, clock.now),
        "restore_ms": ms(restore_ns),
        "write_amp": write_amp,
        "space_amp": _space_amp(after.store),
    }
    return RoundResult(
        virtual=virtual, counts=counts, timed_host_s=timed_s, ops_ok=good,
        ledger=ledger, late_ns=late_ns,
        input_digest=input_digest("reboot", seed),
    )


def input_digest(name: str, seed: int) -> str:
    """Digest of the inputs workload ``name`` generates from ``seed``."""
    if name == "kv_steady":
        return digest(kv_steady_inputs(seed))
    if name == "fleet":
        blobs, arrivals = fleet_inputs(seed)
        return digest(arrivals + [Arrival(0, "code", (b,)) for b in blobs])
    dataset, arrivals, order = reboot_inputs(seed)
    return digest(arrivals + [Arrival(0, "fault", tuple(order)),
                              Arrival(0, "dataset", tuple(dataset))])


#: workload -> (set-up from a seed, timed phase over the set-up state,
#: set-ups per round whose median is ``setup_s``)
WORKLOADS = {
    "kv_steady": (setup_kv_steady, run_kv_steady, 3),
    "fleet": (setup_fleet, run_fleet, 1),
    "reboot": (setup_reboot, run_reboot, 1),
}
