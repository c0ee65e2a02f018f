"""One benchmark child: set up one workload, run it once, report.

Started by ``run.py`` in a fresh interpreter (fixed ``PYTHONHASHSEED``,
no ``REPRO_*`` variables, ``PYTHONPATH=src``).  Prints one JSON object
as its last line of standard output.

    python3 perfbench/child.py --workload NAME --seed N [--trace] [--profile]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from time import perf_counter


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop; tracks the host's speed."""
    times = []
    for _ in range(repeats):
        started = perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) % 1_000_003
        times.append((perf_counter() - started) * 1e3)
    return sorted(times)[repeats // 2]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, workload, phase_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced child (see README.md)."""
    run = tracer.summary("run")
    setup = tracer.summary("setup")
    names, layers = run["names"], run["layers"]

    def span(name: str, summary=run) -> dict[str, float]:
        return summary["names"].get(
            name, {"count": 0, "main_count": 0, "s": 0.0, "self_s": 0.0, "amount": 0}
        )

    blocks = workload.block_totals()
    txs = blocks["txs"]
    out: dict[str, float] = {
        "sim.events": span("sim.step")["count"],
        "sim.events_per_tx": _ratio(span("sim.step")["count"], txs),
        "sim.step_self_s": span("sim.step")["self_s"],
        "crypto.keygen.count": span("crypto.keygen", setup)["count"],
        "crypto.keygen.s": span("crypto.keygen", setup)["s"],
        "crypto.aes.calls": span("crypto.aes")["count"],
        "crypto.aes.bytes": span("crypto.aes")["amount"],
        "crypto.aes.s": span("crypto.aes")["s"],
        "crypto.hmac.count": span("crypto.hmac")["count"],
        "crypto.hmac.s": span("crypto.hmac")["s"],
        "crypto.rsa_private.count": span("crypto.rsa_private")["count"],
        "crypto.rsa_private.s": span("crypto.rsa_private")["s"],
        "crypto.seal.count": span("crypto.seal")["count"],
        "crypto.seal.s": span("crypto.seal")["s"],
        "crypto.open.count": span("crypto.open")["count"],
        "crypto.open.s": span("crypto.open")["s"],
        "ledger.encode.count": span("ledger.encode")["count"],
        "ledger.encodes_per_tx": _ratio(span("ledger.encode")["count"], txs),
        "ledger.encode.s": sum(
            span(n)["s"] for n in ("ledger.encode", "ledger.digest", "ledger.size_bytes")
        ),
        "ledger.append.count": span("ledger.append")["count"],
        "ledger.append.s": span("ledger.append")["s"],
        "ledger.state_put.count": span("ledger.state_put")["count"],
        "fabric.register.count": span("fabric.register", setup)["count"],
        "fabric.register.s": span("fabric.register", setup)["s"],
        "fabric.endorse.count": span("fabric.endorse")["count"],
        "fabric.endorse.s": span("fabric.endorse")["s"],
        "fabric.validate_commit.count": span("fabric.validate_commit")["count"],
        "fabric.validate_commit.s": span("fabric.validate_commit")["s"],
        "fabric.pool_wait.s": span("fabric.pool_wait")["s"],
        "fabric.blocks": blocks["blocks"],
        "fabric.tx_per_block": _ratio(txs, blocks["blocks"]),
        "fabric.valid_ratio": _ratio(blocks["valid_txs"], txs),
        "views.process_secret.count": span("views.process_secret")["count"],
        "views.process_secret.s": span("views.process_secret")["s"],
        "views.view_entry.count": span("views.view_entry")["count"],
        "views.view_entry.s": span("views.view_entry")["s"],
        "views.tlc_flush.count": span("views.tlc_flush")["count"],
        "views.query.count": span("views.query")["count"],
        "views.query.s": span("views.query")["s"],
        "views.read.count": span("views.read")["count"],
        "views.read.self_s": span("views.read")["self_s"],
        "views.soundness.count": span("views.soundness")["count"],
        "views.soundness.s": span("views.soundness")["s"],
        "views.completeness.count": span("views.completeness")["count"],
        "views.completeness.s": span("views.completeness")["s"],
        "views.ledger_accesses": span("views.soundness")["amount"]
        + span("views.completeness")["amount"],
        "views.grant.count": span("views.grant")["count"],
        "views.grant.s": span("views.grant")["s"],
        "views.revoke.count": span("views.revoke")["count"],
        "views.revoke.s": span("views.revoke")["s"],
        "storage.wal.count": span("storage.wal")["count"],
        "storage.wal.s": span("storage.wal")["s"],
        "storage.snapshots.count": span("storage.snapshot")["count"],
        "serving.submitted": span("serving.submit")["count"],
        "serving.batches": span("serving.dispatch")["count"],
        "serving.batch_mean": _ratio(
            span("serving.dispatch")["amount"], span("serving.dispatch")["count"]
        ),
        "serving.dispatch.s": span("serving.dispatch")["s"],
        "sharding.route.count": span("sharding.route")["count"],
    }
    for layer in ("crypto", "ledger", "fabric", "views", "storage", "serving", "sharding"):
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    extra = workload.extra_work()
    out["serving.shed"] = extra.get("shed", 0)
    out["serving.queue_peak"] = extra.get("queue_peak", 0)
    per_shard = extra.get("valid_per_shard", [blocks["valid_txs"]])
    out["sharding.balance"] = _ratio(max(per_shard), sum(per_shard) / len(per_shard))
    out["faults.dropped"] = extra.get("dropped", 0)
    out["faults.retries"] = extra.get("retries", 0)
    out["faults.redeliveries"] = extra.get("redeliveries", 0)
    out["faults.retries_per_tx"] = _ratio(extra.get("retries", 0), workload.ops())
    out["trace.uncovered_pct"] = 100.0 * (phase_s - run["root_main_s"]) / phase_s
    out["trace.worker_s"] = run["root_worker_s"]
    out["trace.spans"] = sum(entry["count"] for entry in names.values())
    return out


def profile_counts(profiler, tracer) -> dict[str, list[int]]:
    """Main-thread span counts next to cProfile's call counts."""
    import pstats

    stats = pstats.Stats(profiler).stats
    run = tracer.summary("run")["names"]
    out = {}
    for name, originals in tracer.originals.items():
        calls = 0
        for fn in originals:
            code = fn.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if key in stats:
                calls += stats[key][1]
        out[name] = [run.get(name, {}).get("main_count", 0), calls]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--sabotage", default=None)
    args = parser.parse_args(argv)
    if args.profile and not args.trace:
        parser.error("--profile compares span counts, so it needs --trace")

    leaked = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if leaked:
        print(f"REPRO_* variables must be stripped: {leaked}", file=sys.stderr)
        return 2

    import seeding
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    seeding.arm()
    workload = cls(args.seed, sabotage=args.sabotage)
    tracer = None
    if args.trace:
        import probes
        from tracer import Tracer

        tracer = Tracer()
        probes.install(tracer)

    gc.collect()
    started = perf_counter()
    workload.setup()
    setup_s = perf_counter() - started

    workload.attach()
    gc.collect()
    probe_before = host_probe_ms()
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    if tracer is not None:
        tracer.phase = "run"
    if profiler is not None:
        profiler.enable()
    started = perf_counter()
    workload.run()
    phase_s = perf_counter() - started
    if profiler is not None:
        profiler.disable()
    if tracer is not None:
        tracer.phase = "check"
    probe_after = host_probe_ms()

    workload.check()
    sim = workload.sim_metrics()
    fail_pct = 100.0 * workload.failed / workload.attempted
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "setup_s": setup_s,
        "phase_s": phase_s,
        "ops": workload.ops(),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "samples_ms": {k: [v * 1e3 for v in vals] for k, vals in workload.samples.items()},
        "work": {
            "attempted": workload.attempted,
            "failed": workload.failed,
            "fail_pct": fail_pct,
            "fingerprint": workload.fingerprint(),
            **workload.block_totals(),
            **sim,
            **workload.extra_work(),
        },
        "checks": workload.checks,
        "backends": workload.backends(),
        "probe_ms": {"before": probe_before, "after": probe_after},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, workload, phase_s)
    if profiler is not None:
        result["profile_check"] = profile_counts(profiler, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
