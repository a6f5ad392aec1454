"""Cluster benchmark: 1 vs 2 workers under deterministic load.

The cluster analogue of ``test_serve_throughput``.  Real worker
*subprocesses* are launched through the CLI (``python -m
repro.cluster.worker --listen 127.0.0.1:0``), discovered through the
``CLUSTER_WORKER_READY`` readiness line, and driven over loopback TCP
by a parent-side :class:`~repro.serve.Server` whose pool is built
entirely from :class:`~repro.cluster.RemoteReplica` slots.

Three claims, in decreasing strictness:

1. **Correctness is unconditional** — every leg completes with zero
   hung futures and zero unexpected errors, and each worker's hello
   frame proves its replicas map **one** shared weight set (the
   ``RPROWTS1`` versioned header every worker's pool lays out).
   Asserted on every machine.
2. **Numbers are always produced** — throughput for 1 and 2 workers is
   printed and persisted to ``BENCH_cluster_scaling.json`` whether or
   not the gate below is active.
3. **Workers scale** — two single-replica process-mode workers sustain
   >= 1.6x the completed throughput of one.  Only asserted with >= 3
   usable cores (two worker processes plus the parent's serving
   threads); below that the artifact records why the gate was off.

Runs standalone:

    pytest benchmarks/test_cluster_scaling.py -q -s
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster import WorkerClient, connect_worker, parse_address
from repro.cluster.shmem import STORE_MAGIC, STORE_SCHEMA
from repro.serve import (
    ReplicaPool,
    Server,
    arrival_offsets,
    calibrate_rate,
    run_load,
)

from _artifacts import record_bench
from conftest import show

PROFILE = "tiny"
MODEL = "ode_botnet"
DURATION_S = 2.0
SEED = 0

CORES = len(os.sched_getaffinity(0))
# each leg runs this many single-replica process-mode workers; the
# 2-worker leg needs a core per worker process plus one for the
# parent's serving threads before a hard 1.6x gate is reliable
GATE_SCALING = CORES >= 3
GATE_SKIP_REASON = (
    None if GATE_SCALING
    else f"only {CORES} usable core(s); the 1.6x gate needs >= 3"
)


def _samples(n=32):
    rng = np.random.default_rng(SEED)
    return rng.standard_normal((n, 3, 32, 32)).astype(np.float32)


def _launch_worker():
    """One worker subprocess; returns ``(proc, (host, port))``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cluster.worker",
         "--listen", "127.0.0.1:0", "--replicas", "1",
         "--mode", "process",
         "--model", MODEL, "--profile", PROFILE, "--seed", str(SEED)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("CLUSTER_WORKER_READY "):
        proc.kill()
        raise RuntimeError(f"worker did not become ready: {line!r}")
    return proc, parse_address(line.split()[1])


def _stop_worker(proc):
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


def _serve_remote(addresses, rate_hz):
    """A server whose pool is purely remote slots; replay one schedule."""
    replicas = []
    for address in addresses:
        replicas.extend(connect_worker(address, timeout_s=60))
    server = Server(
        ReplicaPool(replicas), queue_capacity=32, max_batch_size=8,
        max_wait_ms=2.0, shed_policy="reject",
    )
    try:
        offsets = arrival_offsets(rate_hz, DURATION_S, seed=SEED)
        report = run_load(server, _samples(), offsets, seed=SEED)
        queue_snap = server.metrics()["queue"]
    finally:
        server.close()
    return report, queue_snap


def test_cluster_worker_scaling():
    workers = []
    try:
        for _ in range(2):
            workers.append(_launch_worker())

        # one mapped weight copy per host, proven by the versioned
        # header each worker advertises in its hello frame
        for _proc, address in workers:
            client = WorkerClient.connect(address, connect_timeout_s=60)
            try:
                header = client.info["shared_weights"]
                assert header is not None, "worker is not sharing weights"
                assert header["magic"] == STORE_MAGIC.decode()
                assert header["schema"] == STORE_SCHEMA
                assert header["arrays"] > 0
                assert header["weights_version"] >= 1
            finally:
                client.close()

        addresses = [address for _proc, address in workers]
        # calibrate one worker's capacity directly over the wire
        calib = connect_worker(addresses[0], timeout_s=60)
        try:
            pool = ReplicaPool(calib)
            with Server(pool, max_batch_size=8) as server:
                per_worker = calibrate_rate(server, _samples(1)[0],
                                            seed=SEED)
        finally:
            pass  # server.close() closed the replicas
        rate = 1.8 * per_worker

        single, single_q = _serve_remote(addresses[:1], rate)
        multi, multi_q = _serve_remote(addresses, rate)
    finally:
        for proc, _address in workers:
            _stop_worker(proc)

    for leg, report, queue_snap in (
            ("1 worker", single, single_q),
            ("2 workers", multi, multi_q)):
        assert report.hung == 0, f"{leg}: hung futures"
        assert report.errors == 0, f"{leg}: {report.error_examples}"
        assert report.completed > 0, f"{leg}: nothing completed"
        assert queue_snap["high_water"] <= 32, f"{leg}: unbounded queue"

    scaling = multi.achieved_rate / single.achieved_rate
    show(
        f"Cluster worker scaling (process-mode workers over loopback "
        f"TCP, {CORES} core(s))",
        f"offered rate       : {rate:8.1f} samples/s "
        f"(1.8x calibrated single-worker capacity)\n"
        f"1 worker           : {single.achieved_rate:8.1f}/s  "
        f"p95 {single.latency_percentile(95):7.1f} ms  "
        f"(shed {single.shed})\n"
        f"2 workers          : {multi.achieved_rate:8.1f}/s  "
        f"p95 {multi.latency_percentile(95):7.1f} ms  "
        f"(shed {multi.shed})\n"
        f"scaling            : {scaling:.2f}x "
        f"(gate: >= 1.6x, "
        f"{'ON' if GATE_SCALING else 'OFF — needs >= 3 cores'})",
    )
    record_bench("cluster_scaling", {
        "model": MODEL,
        "profile": PROFILE,
        "workers": 2,
        "replicas_per_worker": 1,
        "worker_mode": "process",
        "shared_weights": True,
        "offered_rate_hz": rate,
        "single_worker_rate_hz": single.achieved_rate,
        "multi_worker_rate_hz": multi.achieved_rate,
        "scaling": scaling,
        "gate_active": GATE_SCALING,
        "required_scaling": 1.6,
    }, gate_skip_reason=GATE_SKIP_REASON)

    if not GATE_SCALING:
        pytest.skip(
            f"only {CORES} usable core(s): two worker processes plus "
            f"the parent's serving threads need >= 3 cores before a "
            f"hard 1.6x scaling gate is reliable (numbers printed and "
            f"recorded above)"
        )
    assert scaling >= 1.6, (
        f"2 workers only {scaling:.2f}x one worker on {CORES} cores "
        f"(expected >= 1.6x)"
    )
