"""The benchmark's three workloads.

Each workload is built from one seed and does a fixed amount of work,
so two runs of one seed repeat every count and every simulated number.
A workload has four steps, which the child process (``child.py``)
times separately:

- ``__init__``: generate the inputs (not timed);
- ``setup``: build the deployment — network, identities, views and
  preloaded data (timed as ``setup_s``);
- ``run``: the measured phase;
- ``check``: correctness checks over what the run observed (not timed).

Why each workload exists is written down in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from time import perf_counter
from typing import Any

from repro.errors import AccessDeniedError, LedgerViewError


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted list."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


class BlockCounter:
    """Counts what one network commits after it is attached."""

    def __init__(self, network) -> None:
        self.blocks = 0
        self.txs = 0
        self.valid = 0
        network.on_block(self._on_block)

    def _on_block(self, block, result) -> None:
        self.blocks += 1
        self.txs += len(block.transactions)
        self.valid += result.valid_count


class Workload:
    """Shared bookkeeping; subclasses fill in the four steps."""

    name = ""

    def __init__(self, seed: int, sabotage: str | None = None) -> None:
        self.seed = seed
        self.sabotage = sabotage
        self.counters: list[BlockCounter] = []
        #: Host timings of the measured phase, per kind of operation.
        self.samples: dict[str, list[float]] = {}
        #: Simulated latencies (ms) of the measured phase.
        self.sim_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict[str, Any]] = []

    def networks(self) -> list:
        raise NotImplementedError

    def attach(self) -> None:
        """Start counting blocks; called between setup and the run."""
        self.counters = [BlockCounter(network) for network in self.networks()]

    def _check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def block_totals(self) -> dict[str, int]:
        return {
            "blocks": sum(c.blocks for c in self.counters),
            "txs": sum(c.txs for c in self.counters),
            "valid_txs": sum(c.valid for c in self.counters),
        }

    def fingerprint(self) -> str:
        """Hash over every network's reference-peer tip."""
        digest = hashlib.sha256()
        for network in self.networks():
            digest.update(network.reference_peer.chain.tip_hash)
        return digest.hexdigest()[:32]

    def backends(self) -> dict[str, Any]:
        """The backends the run actually used (first network)."""
        from repro.crypto import backend as crypto_backend
        from repro.fabric import parallel
        from repro.ledger import backend as ledger_backend

        network = self.networks()[0]
        storage = "none"
        if network.storage is not None:
            storage = type(network.storage.fs).__name__
        return {
            "crypto": crypto_backend.get_backend().name,
            "ledger": ledger_backend.resolve_backend(network.config.ledger_backend).name,
            "pipeline": network.pipeline.name,
            "pipeline_workers": parallel.get_workers(),
            "commit": network.commit_backend.name,
            "orderer": network.orderer_backend,
            "storage": storage,
        }

    def sim_metrics(self) -> dict[str, float]:
        raise NotImplementedError

    def extra_work(self) -> dict[str, Any]:
        """Workload-specific deterministic counters."""
        return {}


# -- wl1-hi-tlc ----------------------------------------------------------------


class Wl1HiTlc(Workload):
    """Fig 4/5 write path: WL1 under HI views with the TxListContract."""

    name = "wl1-hi-tlc"
    CLIENTS = 16
    BATCH = 25
    ITEMS_PER_CLIENT = 25

    def __init__(self, seed: int, sabotage: str | None = None) -> None:
        super().__init__(seed, sabotage)
        from repro.workload.generator import SupplyChainWorkload
        from repro.workload.presets import wl1_topology

        self.topology = wl1_topology()
        self.traces = [
            SupplyChainWorkload(
                self.topology,
                items=self.ITEMS_PER_CLIENT,
                seed=seed * 1000 + client,
                item_prefix=f"c{client}-",
            ).generate_interleaved()
            for client in range(self.CLIENTS)
        ]
        self.outcomes: list[Any] = []

    def setup(self) -> None:
        from repro.bench.harness import build_view_setup
        from repro.fabric.config import benchmark_config

        self.env, self.network, self.manager = build_view_setup(
            "HI", self.topology, config=benchmark_config(), use_txlist=True
        )

    def networks(self) -> list:
        return [self.network]

    def attach(self) -> None:
        from repro.faults import InvariantMonitor

        super().attach()
        self.monitor = InvariantMonitor(self.network)

    def _batches(self, trace):
        # An item repeat closes the batch early: consecutive hops of one
        # item must commit in order.
        batch, items = [], set()
        for request in trace:
            if len(batch) >= self.BATCH or request.item in items:
                yield batch
                batch, items = [], set()
            batch.append(request)
            items.add(request.item)
        if batch:
            yield batch

    def _client(self, trace):
        env, manager = self.env, self.manager
        tid_of_index: dict[int, str] = {}
        for batch in self._batches(trace):
            events = []
            for request in batch:
                extra_views = {}
                if request.history:
                    history = [tid_of_index[h] for h in request.history if h in tid_of_index]
                    if history:
                        extra_views[f"V_{request.receiver}"] = history
                submitted = env.now
                event = manager.invoke_with_secret_async(
                    request.fn, request.args, request.public, request.secret,
                    extra_views=extra_views,
                )
                event.callbacks.append(
                    lambda _e, t=submitted: self.sim_latencies.append(env.now - t)
                )
                events.append(event)
            outcomes = yield env.all_of(events)
            for request, outcome in zip(batch, outcomes):
                tid_of_index[request.index] = outcome.tid
                self.outcomes.append(outcome)

    def run(self) -> None:
        env = self.env
        self.attempted = sum(len(trace) for trace in self.traces)
        self.sim_start = env.now
        done = env.all_of([env.process(self._client(trace)) for trace in self.traces])
        env.run(until=done)
        self.sim_end = env.now

    def check(self) -> None:
        from repro.fabric.peer import ValidationCode

        valid = [o for o in self.outcomes if o.notice.code is ValidationCode.VALID]
        self.failed = self.attempted - len(valid)
        self._check(
            "every request answered",
            len(self.outcomes) == self.attempted,
            f"{len(self.outcomes)} of {self.attempted}",
        )
        self._check("every request VALID", self.failed == 0, f"{self.failed} not valid")
        tids = [o.tid for o in self.outcomes]
        self._check("one tid per request", len(set(tids)) == len(tids))
        chain = self.network.reference_peer.chain
        missing = [tid for tid in tids if not chain.has_transaction(tid)]
        self._check("every tid on the chain", not missing, f"missing {missing[:3]}")
        try:
            self.monitor.assert_exactly_once()
            self._check("exactly once in the ordered log", True)
        except LedgerViewError as exc:
            self._check("exactly once in the ordered log", False, str(exc))

    def sim_metrics(self) -> dict[str, float]:
        committed = self.attempted - self.failed
        seconds = (self.sim_end - self.sim_start) / 1000.0
        return {
            "sim_goodput_tps": committed / seconds,
            "sim_p50_ms": percentile(self.sim_latencies, 0.50),
            "sim_p99_ms": percentile(self.sim_latencies, 0.99),
            "sim_latency_samples": len(self.sim_latencies),
        }

    def ops(self) -> int:
        return self.attempted - self.failed


# -- view-read-audit -----------------------------------------------------------


class ViewReadAudit(Workload):
    """Read side: read a view, audit it; rotate a reader's key now and then."""

    name = "view-read-audit"
    VIEWS = 9
    READERS_PER_VIEW = 2
    TXS_PER_VIEW = 40
    OPS = 64
    REKEY_EVERY = 8

    def __init__(self, seed: int, sabotage: str | None = None) -> None:
        super().__init__(seed, sabotage)
        rng = random.Random(seed)
        self.preload = []
        for i in range(self.VIEWS * self.TXS_PER_VIEW):
            item = f"it{i:04d}"
            body = {"amount": rng.randrange(1, 1000), "price_cents": rng.randrange(100, 99_999)}
            self.preload.append(
                (
                    {"item": item, "owner": "n"},
                    {"item": item, "to": "n", "vslot": i % self.VIEWS},
                    json.dumps(body).encode(),
                )
            )
        self.samples = {"read": [], "audit": [], "rekey": []}
        self.ledger_accesses = 0
        self.served_digest = hashlib.sha256()
        self.refusals = 0

    def setup(self) -> None:
        from repro import build_network
        from repro.fabric.config import benchmark_config
        from repro.fabric.network import Gateway
        from repro.views.encryption_based import EncryptionBasedManager
        from repro.views.manager import ViewReader
        from repro.views.predicates import AttributeEquals
        from repro.views.types import ViewMode
        from repro.views.verification import ViewVerifier

        network = build_network(benchmark_config())
        self.network = network
        owner = network.register_user("view-owner")
        # The TLC list is flushed once, after preloading, so views stay
        # fixed during the measured phase.
        manager = EncryptionBasedManager(
            Gateway(network, owner), use_txlist=True, txlist_flush_interval_ms=1e12
        )
        self.manager = manager
        self.predicates = {}
        for v in range(self.VIEWS):
            name = f"V{v}"
            self.predicates[name] = AttributeEquals("vslot", v)
            manager.create_view(name, self.predicates[name], ViewMode.REVOCABLE)
        self.readers = []
        for v in range(self.VIEWS):
            for r in range(self.READERS_PER_VIEW):
                user = network.register_user(f"reader-{v}-{r}")
                gateway = Gateway(network, user)
                self.readers.append(
                    (f"V{v}", user, ViewReader(user, gateway), ViewVerifier(gateway))
                )
        env = network.env
        events = [
            manager.invoke_with_secret_async("create_item", args, public, secret)
            for args, public, secret in self.preload
        ]
        outcomes = env.run(until=env.all_of(events))
        manager.txlist.flush()
        for name, user, _reader, _verifier in self.readers:
            manager.grant_access(name, user.user_id)
        self.expected = {f"V{v}": set() for v in range(self.VIEWS)}
        for (_args, public, _secret), outcome in zip(self.preload, outcomes):
            self.expected[f"V{public['vslot']}"].add(outcome.tid)

    def networks(self) -> list:
        return [self.network]

    def attach(self) -> None:
        super().attach()
        if self.sabotage == "tamper-entry":
            # A Byzantine owner: every served entry carries a forged
            # per-transaction key.
            from repro.views import manager as manager_module

            original = self.manager._processed_from_buffer
            self.manager._processed_from_buffer = lambda record, tid: manager_module._tampered(
                original(record, tid)
            )

    def _rekey(self, name, user, reader) -> None:
        manager = self.manager
        started = perf_counter()
        manager.revoke_access(name, user.user_id)
        revoked = perf_counter()
        try:
            reader.read_view(manager, name)
            refused = False
        except AccessDeniedError:
            refused = True
        self.refusals += refused
        if not refused:
            self._check(f"revoked reader {user.user_id} refused", False)
        granted = perf_counter()
        manager.grant_access(name, user.user_id)
        self.samples["rekey"].append((revoked - started) + (perf_counter() - granted))

    def run(self) -> None:
        self.sim_start = self.network.env.now
        for op in range(self.OPS):
            self._op(op)
        self.sim_end = self.network.env.now

    def _op(self, op: int) -> None:
        from repro.views.types import Concealment

        manager = self.manager
        name, user, reader, verifier = self.readers[op % len(self.readers)]
        if op % self.REKEY_EVERY == self.REKEY_EVERY - 1:
            self._rekey(name, user, reader)
        self.attempted += 1
        predicate = self.predicates[name]
        try:
            started = perf_counter()
            result = reader.read_view(manager, name)
            read = perf_counter()
            sound = verifier.verify_soundness(name, predicate, result, Concealment.ENCRYPTION)
            complete = verifier.verify_completeness(
                name, predicate, set(result.secrets), use_txlist=True
            )
            audited = perf_counter()
        except LedgerViewError as exc:
            self.failed += 1
            self._check(f"op {op} read", False, f"{type(exc).__name__}: {exc}")
            return
        self.samples["read"].append(read - started)
        self.samples["audit"].append(audited - read)
        self.ledger_accesses += sound.ledger_accesses + complete.ledger_accesses
        served = set(result.secrets)
        if not (sound.ok and complete.ok and served == self.expected[name]):
            self.failed += 1
            self._check(
                f"op {op} audit",
                False,
                f"sound={sound.ok} complete={complete.ok} "
                f"served={len(served)} expected={len(self.expected[name])}",
            )
            return
        for tid in sorted(served):
            self.served_digest.update(tid.encode() + result.secrets[tid])

    def check(self) -> None:
        rekeys = self.OPS // self.REKEY_EVERY
        self._check(
            "every read sound, complete and exact",
            self.failed == 0,
            f"{self.failed} of {self.attempted} failed",
        )
        self._check(
            "every revoked reader refused until granted again",
            self.refusals == rekeys,
            f"{self.refusals} of {rekeys}",
        )

    def sim_metrics(self) -> dict[str, float]:
        # Only the rekeys advance simulated time in this workload.
        return {"sim_rekey_ms": self.sim_end - self.sim_start}

    def extra_work(self) -> dict[str, Any]:
        return {
            "ledger_accesses": self.ledger_accesses,
            "served_digest": self.served_digest.hexdigest()[:32],
            "refusals": self.refusals,
        }

    def ops(self) -> int:
        return self.attempted - self.failed


# -- shard4-open-loss ----------------------------------------------------------


class Shard4OpenLoss(Workload):
    """Open-loop Poisson counter bumps into 4 shards under 2% message loss."""

    name = "shard4-open-loss"
    SHARDS = 4
    SESSIONS = 8
    RATE_TPS = 250.0
    REQUESTS = 1500
    HOT_FRACTION = 0.1
    LOSS = 0.02

    def __init__(self, seed: int, sabotage: str | None = None) -> None:
        super().__init__(seed, sabotage)
        from repro.faults import FaultPlan, MessageFaultRule

        self.plan = FaultPlan(
            seed=seed,
            messages=(
                MessageFaultRule(channel="client_to_orderer", drop=self.LOSS),
                MessageFaultRule(channel="orderer_to_peer", drop=self.LOSS),
            ),
        )

    def setup(self) -> None:
        from repro.fabric.config import SINGLE_REGION, benchmark_config
        from repro.serving import ShardedTarget
        from repro.sharding.network import ShardedGateway, ShardedNetwork
        from repro.workload.zipf import CounterContract

        # occ rebases the hot-key MVCC conflicts, so every offered
        # request commits and no operation of the run fails.
        config = benchmark_config(
            latency=SINGLE_REGION,
            batch_timeout_ms=15.0,
            storage_backend="memory",
            commit_backend="occ",
            fault_plan=self.plan.to_json(),
        )
        self.sharded = ShardedNetwork(config=config, shard_count=self.SHARDS)
        for network in self.sharded.shards:
            network.install_chaincode(CounterContract())
        self.target = ShardedTarget(ShardedGateway(self.sharded, "bench-client"))

    def networks(self) -> list:
        return list(self.sharded.shards)

    def attach(self) -> None:
        from repro.faults import InvariantMonitor

        super().attach()
        self.monitors = [InvariantMonitor(network) for network in self.sharded.shards]

    def run(self) -> None:
        from repro.serving import AdmissionConfig, OpenLoopConfig, counter_builder, run_open_loop

        self.metrics, self.requests = run_open_loop(
            self.target,
            OpenLoopConfig(
                offered_tps=self.RATE_TPS,
                requests=self.REQUESTS,
                sessions=self.SESSIONS,
                seed=self.seed,
            ),
            counter_builder(conflict_rate=self.HOT_FRACTION, seed=self.seed),
            admission=AdmissionConfig(),
        )
        self.attempted = self.REQUESTS
        for request in self.requests:
            if request.completed_ms is not None:
                self.sim_latencies.append(request.completed_ms - request.arrival_ms)

    def check(self) -> None:
        metrics = self.metrics
        unresolved = sum(1 for r in self.requests if r.outcome is None)
        self.failed = metrics.aborted + metrics.shed + unresolved
        lateness = max(r.arrived_ms - r.arrival_ms for r in self.requests)
        self.lateness_ms = lateness
        self._check("generator never late", lateness <= 1e-6, f"max lateness {lateness} ms")
        self._check(
            "committed + aborted + shed = offered",
            metrics.committed + metrics.aborted + metrics.shed == self.REQUESTS
            and metrics.offered == self.REQUESTS,
            f"{metrics.committed}+{metrics.aborted}+{metrics.shed} vs {self.REQUESTS}",
        )
        self._check("no request unresolved", unresolved == 0, f"{unresolved} unresolved")
        self._check("every request committed", self.failed == 0, f"{self.failed} failed")
        for network, monitor in zip(self.sharded.shards, self.monitors):
            network.faults.heal()
            try:
                monitor.check()
                self._check(f"invariants after heal ({network.chain_name})", True)
            except LedgerViewError as exc:
                self._check(f"invariants after heal ({network.chain_name})", False, str(exc))

    def sim_metrics(self) -> dict[str, float]:
        arrivals = [r.arrival_ms for r in self.requests]
        window_s = (max(arrivals) - min(arrivals)) / 1000.0
        return {
            "sim_goodput_tps": self.metrics.committed / window_s,
            "sim_p50_ms": percentile(self.sim_latencies, 0.50),
            "sim_p99_ms": percentile(self.sim_latencies, 0.99),
            "sim_latency_samples": len(self.sim_latencies),
        }

    def fault_totals(self) -> dict[str, int]:
        totals = {"dropped": 0, "retries": 0, "redeliveries": 0}
        for network in self.sharded.shards:
            summary = network.faults.summary()
            totals["dropped"] += sum(summary["messages_dropped"].values())
            totals["retries"] += summary["retries"]
            totals["redeliveries"] += summary["redeliveries"]
        return totals

    def extra_work(self) -> dict[str, Any]:
        per_shard = [c.valid for c in self.counters]
        return {
            **self.fault_totals(),
            "shed": self.metrics.shed,
            "queue_peak": self.metrics.queue_depth_peak,
            "valid_per_shard": per_shard,
        }

    def ops(self) -> int:
        return self.metrics.committed


WORKLOADS = {cls.name: cls for cls in (Wl1HiTlc, ViewReadAudit, Shard4OpenLoss)}
