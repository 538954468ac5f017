"""Per-layer measurement: counters for every run, spans for the traced one.

Counters are deltas of what the program already exposes (``IoStats``,
``StoreStats``, ``PageCache``, the dedup index, the fault counters)
over a workload's timed phase.  Spans exist only in the traced run:
:class:`Tracer` wraps the layer entry points listed in
:data:`ENTRY_POINTS` from outside the program, records one span per
call (name, host start/end, virtual start/end, parent, op id), keeps
them in memory and restores every wrapped attribute when the timed
phase ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import pstats
import sys
from collections import defaultdict
from typing import Callable

from common import host_clock_ns, percentile, us

#: layer span name -> (module, attribute path) of the entry point.
#: Module-level functions are replaced in every module that imported
#: them by name, so calls through any alias are seen.
ENTRY_POINTS = (
    ("apps.set", "repro.apps.kvstore", "RedisLikeServer.set"),
    ("apps.deploy", "repro.apps.serverless", "ServerlessManager.deploy"),
    ("apps.invoke", "repro.apps.serverless", "ServerlessManager.invoke"),
    ("core.checkpoint", "repro.core.orchestrator", "SLS.checkpoint"),
    ("core.barrier", "repro.core.orchestrator", "SLS.barrier"),
    ("core.scheduler.submit", "repro.core.scheduler",
     "CheckpointScheduler.submit"),
    ("core.restore", "repro.core.restore", "RestoreEngine.restore"),
    ("core.load_image", "repro.core.restore", "load_image_from_store"),
    ("objstore.commit", "repro.objstore.store", "ObjectStore.commit_snapshot"),
    ("objstore.batch_flush", "repro.objstore.store", "WriteBatch.flush"),
    ("objstore.delete", "repro.objstore.store", "ObjectStore.delete_snapshot"),
    ("objstore.read", "repro.objstore.store", "ObjectStore.read_page"),
    ("objstore.read", "repro.objstore.store",
     "ObjectStore.read_pages_coalesced"),
    ("objstore.recover", "repro.objstore.store", "ObjectStore.recover"),
    ("objstore.fsck", "repro.objstore.fsck", "check_store"),
    ("objstore.record.encode", "repro.objstore.record", "encode"),
    ("objstore.record.decode", "repro.objstore.record", "decode"),
    ("objstore.checksum", "repro.objstore.checksum", "fletcher64"),
)


def _device_bytes(obj) -> int:
    store = getattr(obj, "store", obj)
    return store.device.stats.bytes_written


#: span name -> probe(args) read before and after the call; the span
#: keeps the difference (device bytes written inside the call)
PROBES = {
    "objstore.commit": lambda args: _device_bytes(args[0]),
    "objstore.batch_flush": lambda args: _device_bytes(args[0]),
}


class Tracer:
    """In-memory span recorder over wrapped entry points."""

    def __init__(self):
        #: [name, parent index, op id, host0, host1, virt0, virt1, extra]
        self.spans: list[list] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._ops = 0
        self._clock = None
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, results = self.spans, self._stack, self.results
        probe = PROBES.get(name)
        clock_of = self._clock_now
        now = host_clock_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                op = spans[parent][2]
            else:
                parent = -1
                self._ops += 1
                op = self._ops
            before = probe(args) if probe else 0
            span = [name, parent, op, now(), 0, clock_of(), 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = now()
                span[6] = clock_of()
            if probe:
                span[7] = probe(args) - before
            elif name == "objstore.checksum":
                span[7] = len(args[0])
            results[name].append(result)
            return result

        return wrapper

    def _clock_now(self) -> int:
        return self._clock.now

    def install(self, clock) -> None:
        self._clock = clock
        for name, module_name, path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- derived numbers ------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Host self time of every span (duration minus children)."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child[span[1]] += span[4] - span[3]
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for i, (name, parent, op, h0, h1, v0, v1, extra) in enumerate(
                    self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "op": op,
                    "host_start_ns": h0, "host_end_ns": h1,
                    "virt_start_ns": v0, "virt_end_ns": v1,
                    **({"bytes": extra} if extra else {}),
                }) + "\n")

    def layer_metrics(self) -> dict:
        selfs = self.self_ns()
        total = defaultdict(int)
        incl = defaultdict(int)
        virt = defaultdict(int)
        calls = defaultdict(int)
        extra = defaultdict(int)
        for span, own in zip(self.spans, selfs):
            name = span[0]
            total[name] += own
            incl[name] += span[4] - span[3]
            virt[name] += span[6] - span[5]
            calls[name] += 1
            extra[name] += span[7]
        flush_in_commit = sum(
            s[7] for s in self.spans
            if s[0] == "objstore.batch_flush" and s[1] >= 0
            and self.spans[s[1]][0] == "objstore.commit"
        )

        def mean(table, name, scale):
            return table[name] / calls[name] / scale if calls[name] else 0.0

        out = {
            "apps.set.host_us": mean(incl, "apps.set", 1e3),
            "apps.deploy.host_ms": mean(incl, "apps.deploy", 1e6),
            "apps.invoke.host_us": mean(incl, "apps.invoke", 1e3),
            "core.checkpoint.host_ms": total["core.checkpoint"] / 1e6,
            "core.barrier.wait_us": mean(virt, "core.barrier", 1e3),
            "core.restore.host_ms": total["core.restore"] / 1e6,
            "core.load_image.host_ms": total["core.load_image"] / 1e6,
            "objstore.commit.calls": calls["objstore.commit"],
            "objstore.commit.host_ms": total["objstore.commit"] / 1e6,
            "objstore.commit.self_bytes":
                extra["objstore.commit"] - flush_in_commit,
            "objstore.batch_flush.host_ms":
                total["objstore.batch_flush"] / 1e6,
            "objstore.delete.calls": calls["objstore.delete"],
            "objstore.delete.host_ms": total["objstore.delete"] / 1e6,
            "objstore.read.calls": calls["objstore.read"],
            "objstore.read.host_us": mean(total, "objstore.read", 1e3),
            "objstore.recover.host_s": total["objstore.recover"] / 1e9,
            "objstore.fsck.host_s": total["objstore.fsck"] / 1e9,
            "objstore.record.encode_host_ms":
                total["objstore.record.encode"] / 1e6,
            "objstore.record.decode_host_ms":
                total["objstore.record.decode"] / 1e6,
            "objstore.checksum.host_ms": total["objstore.checksum"] / 1e6,
            "objstore.checksum.bytes": extra["objstore.checksum"],
        }
        # Numbers the returned objects carry (CheckpointMetrics,
        # RestoreMetrics, scheduler tickets).
        images = self.results["core.checkpoint"]
        stops = [i.metrics.stop_time_ns for i in images]
        out["core.checkpoint.stop_p50_us"] = (
            us(percentile(stops, 50)) if stops else 0.0)
        out["core.checkpoint.stop_p90_us"] = (
            us(percentile(stops, 90)) if stops else 0.0)
        out["core.checkpoint.pages_captured"] = sum(
            i.metrics.pages_captured for i in images)
        out["core.checkpoint.metadata_copy_us"] = _mean_us(
            i.metrics.metadata_copy_ns for i in images)
        out["core.checkpoint.cow_arm_us"] = _mean_us(
            i.metrics.data_copy_ns for i in images)
        tickets = self.results["core.scheduler.submit"]
        waits = [t.started_at_ns - t.submitted_at_ns for t in tickets
                 if t.started_at_ns is not None]
        out["core.scheduler.queue_wait_us"] = _mean_us(waits)
        out["core.scheduler.rejected"] = sum(
            1 for t in tickets if t.status == "rejected")
        restores = [m for _procs, m in self.results["core.restore"]]
        for field in ("objstore_read", "memory", "metadata"):
            out[f"core.restore.{field}_us"] = _mean_us(
                getattr(m, f"{field}_ns") for m in restores)
        return out


def _mean_us(values) -> float:
    values = list(values)
    return us(sum(values) / len(values)) if values else 0.0


class NullTracer:
    """The untraced run's stand-in: no wrapping, no spans."""

    def install(self, clock) -> None:
        pass

    def uninstall(self) -> None:
        pass


# -- counters ----------------------------------------------------------------

def _snapshot(worlds) -> dict:
    """Public counters of every distinct device, store and kernel."""
    snap: dict = defaultdict(int)
    seen = set()
    for world in worlds:
        for obj in (world.device, world.store, world.kernel):
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if obj is world.device:
                io = obj.stats
                for f in ("writes", "bytes_written", "reads", "bytes_read",
                          "doorbells", "submit_stall_ns", "busy_ns"):
                    snap[f"hw.{f}"] += getattr(io, f)
                for q, queue in enumerate(io.queues):
                    snap[f"hw.queue{q}.busy_ns"] += queue.busy_ns
            elif obj is world.store:
                st = obj.stats
                for f in ("batch_records", "batch_extents", "pages_delta",
                          "pages_compressed", "page_media_bytes",
                          "page_full_bytes", "pages_deduped"):
                    snap[f"store.{f}"] += getattr(st, f)
                cache = obj.pagecache
                snap["cache.hits"] += cache.hits
                snap["cache.misses"] += cache.misses
                snap["cache.evictions"] += cache.evictions
            else:
                snap["mem.major"] += obj.mem.stats.major
                snap["mem.cow"] += obj.mem.stats.cow
    return snap


class Window:
    """Counter deltas over one timed phase, plus the traced run's spans.

    Workloads call ``begin(clock, worlds)`` when their timed phase
    starts, ``add_world`` for a machine booted inside it, and ``end()``
    when it stops; ``end`` returns the per-layer counts.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer if tracer is not None else NullTracer()
        self.worlds: list = []

    def begin(self, clock, worlds) -> None:
        self.clock = clock
        self.worlds = list(worlds)
        self.before = _snapshot(self.worlds)
        self.virt0 = clock.now
        self.tracer.install(clock)

    def add_world(self, world) -> None:
        self.worlds.append(world)

    def end(self) -> dict:
        self.tracer.uninstall()
        after = _snapshot(self.worlds)
        d = {k: after[k] - self.before.get(k, 0) for k in after}
        window = max(1, self.clock.now - self.virt0)
        lookups = d["cache.hits"] + d["cache.misses"]
        full = d["store.page_full_bytes"]
        queues = [d[k] for k in d if k.startswith("hw.queue")]
        store = self.worlds[-1].store
        return {
            "mem.major_faults": d["mem.major"],
            "mem.cow_faults": d["mem.cow"],
            "objstore.batch_flush.records": d["store.batch_records"],
            "objstore.batch_flush.extents": d["store.batch_extents"],
            "objstore.codec.pages_delta": d["store.pages_delta"],
            "objstore.codec.pages_compressed": d["store.pages_compressed"],
            "objstore.codec.media_over_full_x1000":
                d["store.page_media_bytes"] * 1000 // full if full else 0,
            "objstore.pagecache.hit_rate_permille":
                d["cache.hits"] * 1000 // lookups if lookups else 0,
            "objstore.pagecache.misses": d["cache.misses"],
            "objstore.pagecache.evictions": d["cache.evictions"],
            "objstore.dedup.unique_pages": store.dedup.stats.unique_pages,
            "objstore.pages_deduped": d["store.pages_deduped"],
            "hw.writes": d["hw.writes"],
            "hw.bytes_written": d["hw.bytes_written"],
            "hw.doorbells": d["hw.doorbells"],
            "hw.submit_stall_us": us(d["hw.submit_stall_ns"]),
            "hw.busy_us": us(d["hw.busy_ns"]),
            "hw.queue_util_max_permille":
                max(queues) * 1000 // window if queues else 0,
            "hw.reads": d["hw.reads"],
            "hw.bytes_read": d["hw.bytes_read"],
            # reboot's timed phase fills these in
            "objstore.recover.snapshots_recovered": 0,
            "objstore.recover.virt_ms": 0.0,
            "objstore.fsck.findings": 0,
        }


# -- host profile ------------------------------------------------------------

def package_of(filename: str) -> str:
    """``repro.<package>`` for program files, else a coarse bucket."""
    marker = "/src/repro/"
    if marker in filename:
        rest = filename.split(marker, 1)[1]
        head = rest.split("/", 1)[0]
        return "repro." + (head[:-3] if head.endswith(".py") else head)
    if "/perfbench/" in filename:
        return "perfbench"
    return "python"


def profile_call(fn: Callable):
    """Run ``fn`` under cProfile; returns (result, package table text)."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler)
    by_package: dict[str, float] = defaultdict(float)
    for (filename, _line, _name), row in stats.stats.items():
        by_package[package_of(filename)] += row[2]  # tottime
    total = sum(by_package.values()) or 1.0
    lines = ["package                 self_s   share",
             "----------------------  -------  ------"]
    for package, secs in sorted(by_package.items(), key=lambda kv: -kv[1]):
        lines.append(f"{package:<22}  {secs:7.3f}  {secs / total:6.1%}")
    return result, "\n".join(lines) + "\n"


def late_p99_us(late_ns: list) -> float:
    return us(percentile(late_ns, 99)) if late_ns else 0.0
