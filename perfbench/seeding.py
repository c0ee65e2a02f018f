"""Seed every random draw the program makes, from the benchmark's side.

The program draws key material, nonces, salts, OAEP seeds and RSA prime
candidates from :mod:`secrets`, and numbers transactions from a
process-wide counter.  ``arm()`` puts one seeded generator behind
the three ``secrets`` functions the program calls and restarts the
counter, as the test suites' re-arm fixtures do, so a run is repeatable
down to every byte.  It must run before the workload's setup.

The entropy stream does not depend on the workload seed.  RSA key
generation searches for primes, and how long the search takes depends
on the random candidates: with keys drawn per seed, ``setup_s`` would
measure the luck of each seed's prime search rather than the program.
The workload seed still varies everything the workloads generate —
request traces, payloads, arrival times and message loss.
"""

from __future__ import annotations

import itertools
import random
import secrets
import threading


ENTROPY_SEED = "perfbench-entropy"


def arm() -> None:
    rng = random.Random(ENTROPY_SEED)
    lock = threading.Lock()

    def token_bytes(nbytes: int | None = None) -> bytes:
        with lock:
            return rng.randbytes(32 if nbytes is None else nbytes)

    def randbits(k: int) -> int:
        with lock:
            return rng.getrandbits(k)

    def randbelow(n: int) -> int:
        with lock:
            return rng.randrange(n)

    secrets.token_bytes = token_bytes
    secrets.randbits = randbits
    secrets.randbelow = randbelow

    from repro.ledger import transaction

    transaction._tid_counter = itertools.count(1)
