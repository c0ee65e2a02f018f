"""The repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The command starts fresh interpreters
one after another (``child.py``), each of which sets the workload up
once and runs its fixed, seed-determined work once, until the measured
phases add up to ``--seconds`` (and at least ``MIN_CHILDREN`` ran).
It then checks that every child passed its correctness checks and that
all children of the seed did identical work, and prints:

- a ``{"report": ...}`` line with every workload metric, its unit and
  its sample count, the host-speed probe and the backends used;
- as the last line, ``{"correct", "attempted", "failed", "metrics"}``:
  the end-to-end metrics (``--trace 0``) or the per-layer metrics of
  the traced children (``--trace 1``).

Exit status: 0 when everything is correct, 1 when a check failed (the
result is still printed), 2 when the checkout or a child is broken (no
result is printed).  See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("wl1-hi-tlc", "view-read-audit", "shard4-open-loss")

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of the per-layer metrics, printed with ``--trace 1``.
#: Units ``count``, ``bytes`` and ``ratio`` are work counters: every
#: traced child of one seed must report exactly the same value.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.events_per_tx", "ratio"),
    ("sim.step_self_s", "s"),
    ("crypto.keygen.count", "count"),
    ("crypto.keygen.s", "s"),
    ("crypto.aes.calls", "count"),
    ("crypto.aes.bytes", "bytes"),
    ("crypto.aes.s", "s"),
    ("crypto.hmac.count", "count"),
    ("crypto.hmac.s", "s"),
    ("crypto.rsa_private.count", "count"),
    ("crypto.rsa_private.s", "s"),
    ("crypto.seal.count", "count"),
    ("crypto.seal.s", "s"),
    ("crypto.open.count", "count"),
    ("crypto.open.s", "s"),
    ("crypto.self_s", "s"),
    ("ledger.encode.count", "count"),
    ("ledger.encodes_per_tx", "ratio"),
    ("ledger.encode.s", "s"),
    ("ledger.append.count", "count"),
    ("ledger.append.s", "s"),
    ("ledger.state_put.count", "count"),
    ("ledger.self_s", "s"),
    ("fabric.register.count", "count"),
    ("fabric.register.s", "s"),
    ("fabric.endorse.count", "count"),
    ("fabric.endorse.s", "s"),
    ("fabric.validate_commit.count", "count"),
    ("fabric.validate_commit.s", "s"),
    ("fabric.pool_wait.s", "s"),
    ("fabric.blocks", "count"),
    ("fabric.tx_per_block", "ratio"),
    ("fabric.valid_ratio", "ratio"),
    ("fabric.self_s", "s"),
    ("views.process_secret.count", "count"),
    ("views.process_secret.s", "s"),
    ("views.view_entry.count", "count"),
    ("views.view_entry.s", "s"),
    ("views.tlc_flush.count", "count"),
    ("views.query.count", "count"),
    ("views.query.s", "s"),
    ("views.read.count", "count"),
    ("views.read.self_s", "s"),
    ("views.soundness.count", "count"),
    ("views.soundness.s", "s"),
    ("views.completeness.count", "count"),
    ("views.completeness.s", "s"),
    ("views.ledger_accesses", "count"),
    ("views.grant.count", "count"),
    ("views.grant.s", "s"),
    ("views.revoke.count", "count"),
    ("views.revoke.s", "s"),
    ("views.self_s", "s"),
    ("storage.wal.count", "count"),
    ("storage.wal.s", "s"),
    ("storage.snapshots.count", "count"),
    ("storage.self_s", "s"),
    ("serving.submitted", "count"),
    ("serving.batches", "count"),
    ("serving.batch_mean", "ratio"),
    ("serving.shed", "count"),
    ("serving.queue_peak", "count"),
    ("serving.dispatch.s", "s"),
    ("serving.self_s", "s"),
    ("sharding.route.count", "count"),
    ("sharding.balance", "ratio"),
    ("sharding.self_s", "s"),
    ("faults.dropped", "count"),
    ("faults.retries", "count"),
    ("faults.redeliveries", "count"),
    ("faults.retries_per_tx", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.uncovered_pct", "%"),
    ("trace.worker_s", "s"),
    ("trace.spans", "count"),
)
WORK_UNITS = ("count", "bytes", "ratio")

MIN_CHILDREN = 5
MAX_CHILDREN = 16
#: Traced runs alternate untraced and traced children, at least this
#: many pairs, so the tracing overhead compares like with like.
MIN_PAIRS = 2
#: No child starts after this many seconds, so a run ends well inside
#: three minutes even on a slow host.
LAUNCH_BUDGET_S = 110.0
RUN_LIMIT_S = 170.0


class BrokenRun(Exception):
    """A child could not run; no result can be printed."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = "src"
    return env


def run_child(args, traced: bool, started: float) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    if traced:
        command.append("--trace")
    if args.sabotage:
        command += ["--sabotage", args.sabotage]
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(
            command, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BrokenRun(f"child timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BrokenRun(
            f"child exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for fraction in (0.99, 0.95, 0.90, 0.75):
        rank = math.ceil(fraction * n)
        if n - rank >= 10:
            return fraction, ordered[rank - 1]
    return None


def timing(name: str, samples: list[float], unit: str = "ms") -> dict:
    """A timing as median plus its best-supported tail percentile."""
    out = {
        f"{name}_p50_{unit}": {
            "value": statistics.median(samples) if samples else None,
            "unit": unit,
            "n": len(samples),
        }
    }
    tail = tail_percentile(samples)
    if tail is not None:
        fraction, value = tail
        out[f"{name}_p{round(fraction * 100)}_{unit}"] = {
            "value": value, "unit": unit, "n": len(samples)
        }
    return out


def host_rate(children: list[dict]) -> float:
    """Median over children of operations per host second."""
    return statistics.median(c["ops"] / c["phase_s"] for c in children)


def workload_report(workload: str, children: list[dict]) -> dict:
    """Every metric the workload has a meaning for, with unit and n."""
    plain = [c for c in children if not c["traced"]]
    first = plain[0]["work"]
    ops = sum(c["ops"] for c in plain)
    report: dict = {
        "setup_s": {
            "value": statistics.median(c["setup_s"] for c in plain),
            "unit": "s",
            "n": len(plain),
        },
        "peak_rss_mb": {
            "value": statistics.median(c["peak_rss_mb"] for c in plain),
            "unit": "MiB",
            "n": len(plain),
        },
        "fail_pct": {"value": first["fail_pct"], "unit": "%", "n": first["attempted"]},
    }
    if workload == "view-read-audit":
        report["host_ops_per_s"] = {"value": host_rate(plain), "unit": "1/s", "n": ops}
        for kind in ("read", "audit", "rekey"):
            samples = [s for c in plain for s in c["samples_ms"][kind]]
            metrics = timing(kind, samples)
            if kind == "rekey":
                metrics = {k: v for k, v in metrics.items() if k.endswith("p50_ms")}
            report.update(metrics)
    else:
        report["host_tx_per_s"] = {"value": host_rate(plain), "unit": "1/s", "n": ops}
        n = first["sim_latency_samples"]
        report["sim_goodput_tps"] = {"value": first["sim_goodput_tps"], "unit": "tx/sim-s", "n": n}
        report["sim_p50_ms"] = {"value": first["sim_p50_ms"], "unit": "sim-ms", "n": n}
        report["sim_p99_ms"] = {"value": first["sim_p99_ms"], "unit": "sim-ms", "n": n}
    return report


def determinism_problems(children: list[dict]) -> list[str]:
    """Differences between children of one seed in any work counter."""
    problems = []
    reference = children[0]["work"]
    for index, child in enumerate(children[1:], start=1):
        for key in sorted(set(reference) | set(child["work"])):
            if reference.get(key) != child["work"].get(key):
                problems.append(
                    f"child {index}: work[{key}] = {child['work'].get(key)!r}, "
                    f"child 0 had {reference.get(key)!r}"
                )
    traced = [c for c in children if c["traced"]]
    work_names = [name for name, unit in PER_LAYER if unit in WORK_UNITS]
    for child in traced[1:]:
        for name in work_names:
            if name in child["layers"] and child["layers"][name] != traced[0]["layers"][name]:
                problems.append(
                    f"traced child: {name} = {child['layers'][name]!r}, "
                    f"first traced child had {traced[0]['layers'][name]!r}"
                )
    return problems


def layer_metrics(children: list[dict]) -> dict:
    traced = [c for c in children if c["traced"]]
    plain = [c for c in children if not c["traced"]]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_pct":
            traced_s = statistics.median(c["phase_s"] for c in traced)
            plain_s = statistics.median(c["phase_s"] for c in plain)
            value = 100.0 * (traced_s - plain_s) / plain_s
        elif unit in WORK_UNITS:
            # Equal in every traced child (checked by determinism_problems).
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(c["layers"][name] for c in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def collect(args) -> list[dict]:
    started = time.monotonic()
    children: list[dict] = []

    def measured() -> float:
        return sum(c["phase_s"] for c in children)

    if args.trace:
        pairs = 0
        while pairs < MIN_PAIRS or measured() < args.seconds:
            if len(children) >= MAX_CHILDREN or time.monotonic() - started > LAUNCH_BUDGET_S:
                break
            # Alternate which side runs first, so a drift in host speed
            # does not land on one side only.
            order = (False, True) if pairs % 2 == 0 else (True, False)
            for traced in order:
                children.append(run_child(args, traced, started))
            pairs += 1
    else:
        while len(children) < MIN_CHILDREN or measured() < args.seconds:
            if len(children) >= MAX_CHILDREN or time.monotonic() - started > LAUNCH_BUDGET_S:
                break
            children.append(run_child(args, False, started))
    needed = 2 * MIN_PAIRS if args.trace else MIN_CHILDREN
    if len(children) < needed:
        raise BrokenRun(f"only {len(children)} children ran within the time budget")
    return children


def checkout_problem() -> str | None:
    for path in ("src/repro/__init__.py", "src/repro/bench/harness.py"):
        if not os.path.isfile(path):
            return f"{path} not found: run from the root of a repository checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--sabotage",
        default=None,
        help="break the run on purpose (self-test only): tamper-entry",
    )
    args = parser.parse_args(argv)

    problem = checkout_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    try:
        children = collect(args)
    except BrokenRun as exc:
        print(f"benchmark run broken: {exc}", file=sys.stderr)
        return 2

    failed_checks = [
        f"{check['name']}: {check['detail']}"
        for child in children
        for check in child["checks"]
        if not check["ok"]
    ]
    problems = determinism_problems(children)
    for line in failed_checks + problems:
        print(f"FAILED {line}", file=sys.stderr)
    plain = [c for c in children if not c["traced"]]
    probes = [c["probe_ms"] for c in children]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "children": len(children),
        "traced_children": len(children) - len(plain),
        "measured_s": sum(c["phase_s"] for c in plain),
        "setup_s_all": [round(c["setup_s"], 4) for c in plain],
        "phase_s_all": [round(c["phase_s"], 4) for c in plain],
        "metrics": workload_report(args.workload, children),
        "host_probe_ms": {
            "before_p50": statistics.median(p["before"] for p in probes),
            "after_p50": statistics.median(p["after"] for p in probes),
            "all": [[round(p["before"], 3), round(p["after"], 3)] for p in probes],
        },
        "backends": children[0]["backends"],
        "deterministic": not problems,
    }
    print(json.dumps({"report": report}))

    if args.trace:
        metrics = layer_metrics(children)
    else:
        found = report["metrics"]
        values = {
            "setup_s": found["setup_s"]["value"],
            # wl1 and shard4 call their rate host_tx_per_s in the report.
            "host_ops_per_s": (found.get("host_ops_per_s") or found["host_tx_per_s"])["value"],
            "peak_rss_mb": found["peak_rss_mb"]["value"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    correct = not failed_checks and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(c["attempted"] for c in children),
                "failed": sum(c["failed"] for c in children),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
