"""The arena footprint gate: one storage per thread, sized by its
largest binding.

A compiled plan binds per (thread, batch size), and every binding of
any plan on a thread takes batch-prefix views of that thread's one
storage (``repro.compile.arena``).  This bench builds the serving set-up
the ``overload`` workload measures — ``ode_botnet`` at the ``paper``
profile on one thread replica, the default degrade ladder, and the
bench's warm-up (batches 1–8 through the server, then one batch of 8
per tier) — in a fresh subprocess, so its peak RSS and minor faults are
the set-up's own.  For each thread that bound a plan it records the
bytes and arrays its storage holds, the bytes of every array its live
bindings hold (the storage's, and any a binding made before a growth
still keeps), the bindings it made, and the largest one's bytes (its
views at its own batch).

The gate is structural: no thread's live bindings may hold more than
:data:`MAX_HELD_PER_BINDING` times its largest binding.  A storage
holds one array per buffer key, grown to a power of two rows, so the
bound holds however many plans and batch sizes bind on the thread; an
arena per binding holds the sum of them all.  Persists
``BENCH_arena_footprint.json``.
"""

import json
import os
import subprocess
import sys

from _artifacts import record_bench
from conftest import show

MODEL = "ode_botnet"
PROFILE = "paper"
MAX_BATCH = 8
MAX_HELD_PER_BINDING = 2.0


def _measure():
    """The set-up in this process: per-thread storage and bindings,
    peak RSS and minor faults."""
    import resource
    import threading
    import weakref

    import numpy as np

    from repro.compile import arena as arena_module
    from repro.compile import plan as plan_module
    from repro.models import PROFILES
    from repro.runtime import SessionConfig
    from repro.serve import Server

    storages = {}
    bindings = []
    thread_storage = arena_module.thread_storage
    bind = plan_module._BoundPlan.__init__

    def recorded_storage():
        storage = thread_storage()
        storages.setdefault(threading.current_thread().name, storage)
        return storage

    def recorded_bind(self, plan, shape, dtype):
        bind(self, plan, shape, dtype)
        n = shape[0]
        bindings.append((
            threading.current_thread().name, weakref.ref(self),
            sum(a.nbytes // len(a) * n for a in self.arena.arrays.values()),
        ))

    arena_module.thread_storage = recorded_storage
    plan_module._BoundPlan.__init__ = recorded_bind

    size = PROFILES[PROFILE]["input_size"]
    sample = np.random.default_rng(0).standard_normal(
        (3, size, size)).astype(np.float32)
    before = resource.getrusage(resource.RUSAGE_SELF)
    server = Server.build(
        MODEL, PROFILE, 1, config=SessionConfig(backend="compiled"),
        seed=0, mode="thread", shed_policy="degrade", queue_capacity=16,
        degrade_headroom=24, max_batch_size=MAX_BATCH,
    )
    try:
        for k in range(1, MAX_BATCH + 1):
            for future in [server.submit(sample) for _ in range(k)]:
                future.result(timeout=300)
        batch = np.stack([sample] * MAX_BATCH)
        for replica in server.pool:
            for tier in replica.tier_sessions:
                replica.run(batch, tier=tier)
        after = resource.getrusage(resource.RUSAGE_SELF)
        threads = {}
        for name, storage in sorted(storages.items()):
            arrays = list(storage.arrays.values())
            made = [(ref, b) for thread, ref, b in bindings if thread == name]
            held = {id(a): a for ref, _ in made if ref() is not None
                    for a in ref().arena.arrays.values()}
            threads[name] = {
                "storage_bytes": int(sum(a.nbytes for a in arrays)),
                "arrays": len(arrays),
                "held_bytes": int(sum(a.nbytes for a in held.values())),
                "bindings": len(made),
                "live_bindings": sum(ref() is not None for ref, _ in made),
                "largest_binding_bytes": int(max(b for _, b in made)),
            }
    finally:
        server.close()
    return {
        "model": MODEL,
        "profile": PROFILE,
        "threads": threads,
        "peak_rss_mb": after.ru_maxrss / 1024,
        "minor_faults": after.ru_minflt - before.ru_minflt,
    }


def test_held_per_thread_is_bounded_by_its_largest_binding():
    # a fresh interpreter, which inherits this one's one-BLAS-thread
    # environment, so the peak RSS and faults are the set-up's
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    threads = result["threads"]
    rows = [
        f"{name:<24s} {t['bindings']:2d} bindings ({t['live_bindings']} "
        f"live), largest {t['largest_binding_bytes'] / 2**20:5.1f} MB; "
        f"storage {t['storage_bytes'] / 2**20:5.1f} MB in {t['arrays']} "
        f"arrays; held {t['held_bytes'] / 2**20:5.1f} MB "
        f"({t['held_bytes'] / t['largest_binding_bytes']:.2f}x)"
        for name, t in threads.items()
    ]
    show(
        "arena footprint after the overload set-up "
        f"({MODEL} @ {PROFILE}, one thread replica, default ladder)",
        "\n".join(rows) + f"\npeak RSS {result['peak_rss_mb']:.1f} MB, "
        f"{result['minor_faults']} minor faults in the set-up "
        f"(held ≤ {MAX_HELD_PER_BINDING}x the largest binding)",
    )
    record_bench("arena_footprint", {
        "max_held_per_binding": MAX_HELD_PER_BINDING, **result,
    })
    assert len(threads) >= 2, threads  # the replica's and the main thread
    for name, t in threads.items():
        assert t["held_bytes"] <= (
            MAX_HELD_PER_BINDING * t["largest_binding_bytes"]
        ), (name, t)


if __name__ == "__main__":
    print(json.dumps(_measure()))
