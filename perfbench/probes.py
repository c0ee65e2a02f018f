"""Where the traced run puts its spans: one table per layer.

Every entry wraps a public function of the program (see
``tracer.Tracer``).  Span names are ``<layer>.<what>``; names that
share a group add up to one inclusive time without double-counting
calls nested inside each other (``Transaction.digest`` calls
``Transaction.serialize``).
"""

from __future__ import annotations

import concurrent.futures

from tracer import Tracer


def _nbytes(args, result):
    # SymmetricKey.encrypt/decrypt(self, data): bytes processed.
    return len(args[1]) if len(args) > 1 else 0


def _batch_len(args, result):
    # <target>.dispatch(self, batch): requests in the micro-batch.
    return len(args[1])


def _ledger_accesses(args, result):
    return result.ledger_accesses


def install(tracer: Tracer) -> None:
    """Patch every probe.  Imports happen here so an untraced child
    pays nothing for this module."""
    from repro.crypto import envelope, hashing, rsa
    from repro.crypto.symmetric import SymmetricKey
    from repro.fabric import parallel
    from repro.fabric.identity import MembershipServiceProvider
    from repro.fabric.peer import Peer
    from repro.ledger.chain import Blockchain
    from repro.ledger.statedb import StateDatabase
    from repro.ledger.transaction import Transaction
    from repro.serving.gateway import AsyncGateway, NetworkTarget, ShardedTarget
    from repro.sharding.network import ShardedGateway
    from repro.sim.core import Environment
    from repro.storage import snapshot
    from repro.storage.wal import WriteAheadLog
    from repro.views.encryption_based import EncryptionBasedManager
    from repro.views.hash_based import HashBasedManager
    from repro.views.manager import ViewManager, ViewReader
    from repro.views.txlist_contract import TxListService
    from repro.views.verification import ViewVerifier

    method = tracer.patch_method
    function = tracer.patch_function

    # sim
    method(Environment, "step", "sim.step", "sim")

    # crypto
    function(rsa, "generate_keypair", "crypto.keygen", "crypto")
    for attr in ("encrypt", "decrypt"):
        method(SymmetricKey, attr, "crypto.aes", "crypto", amount=_nbytes)
    method(SymmetricKey, "generate", "crypto.aes", "crypto")
    function(hashing, "hmac_sha256", "crypto.hmac", "crypto")
    for attr in ("decrypt", "sign"):
        method(rsa.RSAPrivateKey, attr, "crypto.rsa_private", "crypto")
    function(envelope, "seal", "crypto.seal", "crypto")
    function(envelope, "seal_many", "crypto.seal", "crypto")
    function(envelope, "open_sealed", "crypto.open", "crypto")

    # ledger
    method(Transaction, "serialize", "ledger.encode", "ledger")
    method(Transaction, "digest", "ledger.digest", "ledger", group="ledger.encode")
    method(
        Transaction, "size_bytes", "ledger.size_bytes", "ledger", group="ledger.encode"
    )
    method(Blockchain, "append", "ledger.append", "ledger")
    method(StateDatabase, "put", "ledger.state_put", "ledger")

    # fabric
    method(MembershipServiceProvider, "register", "fabric.register", "fabric")
    method(Peer, "endorse", "fabric.endorse", "fabric")
    method(Peer, "validate_and_commit", "fabric.validate_commit", "fabric")
    # The main thread blocks on pipeline-pool jobs in these two calls.
    method(concurrent.futures.Future, "result", "fabric.pool_wait", "fabric")
    function(parallel, "wait", "fabric.pool_wait", "fabric")

    # views
    for cls in (EncryptionBasedManager, HashBasedManager):
        method(cls, "process_secret", "views.process_secret", "views")
        method(cls, "view_entry", "views.view_entry", "views")
    method(TxListService, "build_flush_proposal", "views.tlc_flush", "views")
    method(ViewManager, "query_view", "views.query", "views")
    method(ViewReader, "read_view", "views.read", "views")
    method(
        ViewVerifier, "verify_soundness", "views.soundness", "views",
        amount=_ledger_accesses,
    )
    method(
        ViewVerifier, "verify_completeness", "views.completeness", "views",
        amount=_ledger_accesses,
    )
    method(ViewManager, "grant_access_async", "views.grant", "views")
    method(ViewManager, "revoke_access_async", "views.revoke", "views")

    # storage
    method(WriteAheadLog, "append", "storage.wal", "storage")
    function(snapshot, "write_snapshot", "storage.snapshot", "storage")

    # serving
    method(AsyncGateway, "submit", "serving.submit", "serving")
    for cls in (NetworkTarget, ShardedTarget):
        method(cls, "dispatch", "serving.dispatch", "serving", amount=_batch_len)

    # sharding
    method(ShardedGateway, "submit_async", "sharding.route", "sharding")
