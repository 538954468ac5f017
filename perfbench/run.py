"""End-to-end benchmark of the Aurora single-level-store reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv_steady --seed 1 --seconds 25 --trace 0

Runs one workload (``kv_steady``, ``fleet`` or ``reboot``, see
NOTES.md) in rounds until ``--seconds`` have passed.  Every round
rebuilds its world from the seed, so the virtual-clock metrics must be
byte-identical across rounds; host-clock metrics are the median over
rounds.  ``--trace 0`` prints every end-to-end metric of
BENCHMARK.json; ``--trace 1`` runs an untraced, a traced and a
profiled round and prints every per-layer metric, writing the spans
(JSONL) and a per-package host self-time table under
``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Exits 1 without a result when the program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: rounds per measured run: at least two (the determinism check), at
#: most this many
MIN_ROUNDS = 2
MAX_ROUNDS = 9

#: str/bytes hashing is salted per process, and the resulting dict
#: layouts moved host timings of identical work by up to 2x between
#: processes; every run uses this salt instead
HASH_SEED = "0"


def _load():
    """Import the program and the workloads, or explain why not."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {src}")
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise SystemExit(f"error: {spec} not found")
    sys.path.insert(0, str(src))
    from repro.sim.hermetic import hermetic_ids

    import layers
    import workloads
    from common import host_clock

    return SimpleNamespace(spec=json.loads(spec.read_text()),
                           hermetic_ids=hermetic_ids, host_clock=host_clock,
                           layers=layers, workloads=workloads)


def _round(bench, name, seed, window):
    """Set up (several times when cheap) and run one timed phase."""
    setup, timed, setups = bench.workloads.WORKLOADS[name]
    hermetic_ids, host_clock = bench.hermetic_ids, bench.host_clock
    times = []
    for i in range(setups):
        last = i == setups - 1
        # Ids are varint-encoded into checkpoint metadata: pin them so
        # the virtual numbers do not depend on what ran before, and
        # let every set-up start from the same ids.
        with hermetic_ids():
            start = host_clock()
            state = setup(seed, window if last else bench.layers.Window())
            times.append(host_clock() - start)
            if last:
                result = timed(state, window)
        del state
    result.setup_host_s = times
    return result


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check(rounds, bench, name, seed) -> list[str]:
    """Determinism and failure-attribution checks; returns problems."""
    problems = []
    first = rounds[0]
    ref = json.dumps(first.virtual, sort_keys=True)
    for i, r in enumerate(rounds[1:], start=2):
        if json.dumps(r.virtual, sort_keys=True) != ref:
            problems.append(f"round {i} virtual metrics differ from round 1")
        if (r.ledger.attempted, r.ledger.failed) != (
                first.ledger.attempted, first.ledger.failed):
            problems.append(f"round {i} op counts differ from round 1")
    held_out = bench.workloads.input_digest(name, seed + 1_000_003)
    if held_out == first.input_digest:
        problems.append("a held-out seed generated the same inputs")
    problems += first.ledger.unexplained
    return problems


def measure(args, bench) -> dict:
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(_round(bench, args.workload, args.seed,
                             bench.layers.Window()))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        if len(rounds) >= MAX_ROUNDS or (
                len(rounds) >= MIN_ROUNDS
                and elapsed + per_round > args.seconds):
            break
    first = rounds[0]
    values = dict(first.virtual)
    values["setup_s"] = statistics.median(
        t for r in rounds for t in r.setup_host_s)
    values["peak_rss_mib"] = _peak_rss_mib()
    values["ok_op_share"] = 1 - first.ledger.failed / first.ledger.attempted
    problems = _check(rounds, bench, args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{first.ledger.attempted} ops attempted, "
          f"{first.ledger.failed} failed")
    return _result(bench.spec["end_to_end"], values, first, problems)


def trace(args, bench) -> dict:
    """Untraced, traced and profiled rounds of one seed."""
    layers = bench.layers
    plain = _round(bench, args.workload, args.seed, layers.Window())
    tracer = layers.Tracer()
    traced = _round(bench, args.workload, args.seed, layers.Window(tracer))
    profiled, table = layers.profile_call(
        lambda: _round(bench, args.workload, args.seed, layers.Window()))
    rounds = [plain, traced, profiled]
    values = dict(traced.counts)
    values.update(tracer.layer_metrics())
    plain_rate = plain.ops_ok / plain.timed_host_s
    traced_rate = traced.ops_ok / traced.timed_host_s
    values["host.ops_per_s"] = plain_rate
    values["obs.tracing_overhead_pct"] = (
        (plain_rate - traced_rate) / plain_rate * 100)
    values["loadgen.late_p99_us"] = layers.late_p99_us(traced.late_ns)
    problems = _check(rounds, bench, args.workload, args.seed)

    out = HERE / "out" / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(out / "spans.jsonl")
    (out / "host_self_time.txt").write_text(
        f"{args.workload} seed {args.seed}: host self time by package "
        f"(cProfile, one profiled round)\n\n" + table)
    result = _result(bench.spec["per_layer"], values, traced, problems)
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(f"{args.workload} seed {args.seed}: {len(tracer.spans)} spans, "
          f"artifacts in {out.relative_to(ROOT)}")
    return result


def _result(catalogue, values, first, problems) -> dict:
    metrics = {}
    for entry in catalogue:
        name = entry["name"]
        if name not in values:
            problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"  {name:<40} {values[name]:>16.6g} {entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for failure in first.ledger.failures:
        print(f"  failed op: {failure}")
    return {
        "correct": not problems,
        "attempted": first.ledger.attempted,
        "failed": first.ledger.failed,
        "metrics": metrics,
    }


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = _load()
    if args.workload not in bench.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(have: {', '.join(bench.workloads.WORKLOADS)})")
    run = trace if args.trace else measure
    result = run(args, bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
