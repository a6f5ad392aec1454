"""The four serve workloads and the run that measures one of them.

Every workload is a fixed, seeded load against :class:`repro.serve.Server`
built from public API only.  The model is always ``ode_botnet`` with the
weights of model seed 0; the run seed drives only the generated inputs
(burst schedule, sample images, hot-swap weight perturbations).  Rates
and concurrency are constants here, never calibrated, so a faster
program is offered the same load.
"""

from __future__ import annotations

import gc
import resource
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from drivers import burst_schedule, run_closed_loop, run_open_loop, wait_all
from oracle import classify_swap, expected_generation_rows, expected_tier_rows

MODEL = "ode_botnet"
MODEL_SEED = 0
#: an open-loop run whose median send lateness exceeds this is invalid:
#: the generator fell behind its schedule, and its backlog grows.  Waits
#: for the interpreter lock or a stalled host delay only some requests
#: (on a busy host p99 reached 26 ms while the median stayed within
#: 0.08-0.19 ms); they are charged to latency, which runs from the
#: scheduled send
MAX_LAG_P50_MS = 5.0
#: futures still unresolved this long after the load ends count as hung
HUNG_TIMEOUT_S = 60.0
#: requests in flight within this long after a publish returns count as
#: post-swap
POST_SWAP_MS = 20.0
#: per-request sample draws; longer runs cycle through them
DRAWS = 1 << 16
#: hot-swap publish period
SWAP_EVERY_S = 0.5


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the server it runs against (why each exists
    is recorded in ``BENCHMARK.json`` and ``bench/README.md``)."""

    name: str
    profile: str = "tiny"
    replicas: int = 1
    mode: str = "thread"
    policy: str = "reject"
    capacity: int = 64
    #: extra queue slots for the degrade ladder (``None``: capacity)
    headroom: int = None
    max_batch: int = 8
    max_wait_ms: float = 2.0
    #: open-loop bursts: requests per burst, and the burst period
    burst: int = None
    burst_every_s: float = None
    #: closed-loop requests in flight (when there are no bursts)
    outstanding: int = 8
    #: seconds between hot-swap publishes; ``None`` means no writer
    publish_every_s: float = None
    n_samples: int = 16
    #: set-ups per untraced run; ``setup_s`` is their median.  A tiny
    #: set-up takes 50-150 ms and varies by half from one to the next
    setups: int = 9

    @property
    def open_loop(self) -> bool:
        return self.burst is not None


WORKLOADS = {
    w.name: w for w in (
        Workload("steady", outstanding=1),
        Workload("saturate", mode="process", outstanding=8),
        Workload("overload", profile="paper", policy="degrade", capacity=16,
                 headroom=24, burst=40, burst_every_s=3.0, n_samples=8,
                 setups=3),
        Workload("hot_swap", replicas=2, outstanding=2,
                 publish_every_s=SWAP_EVERY_S),
    )
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class Inputs:
    """Everything a run derives from its seed, made before any timing."""

    def __init__(self, workload, seed, seconds):
        from repro.adapt import DEFAULT_ADAPT_PREFIXES
        from repro.models import PROFILES, build_model

        w = workload
        self.seed = seed
        streams = np.random.SeedSequence(seed).spawn(4)
        size = PROFILES[w.profile]["input_size"]
        self.samples = np.random.default_rng(streams[0]).standard_normal(
            (w.n_samples, 3, size, size)).astype(np.float32)
        self.schedule = None
        if w.open_loop:
            self.schedule = burst_schedule(w.burst, w.burst_every_s, seconds,
                                           streams[1])
        self.order = np.random.default_rng(streams[2]).integers(
            0, w.n_samples, DRAWS)
        base = build_model(MODEL, profile=w.profile, seed=MODEL_SEED,
                           inference=True).state_dict()
        self.states = [base]
        if w.publish_every_s is not None:
            rng = np.random.default_rng(streams[3])
            for _ in range(int(np.ceil(seconds / w.publish_every_s)) - 1):
                self.states.append(perturb(base, rng, DEFAULT_ADAPT_PREFIXES))

    def sample(self, i):
        """Sample index of request *i*."""
        return int(self.order[i % DRAWS])


def perturb(state, rng, prefixes, scale=0.05):
    """A copy of *state* with seeded ``scale`` relative noise on every
    parameter under *prefixes* (the adaptation subset)."""
    return {
        key: (value * (1.0 + scale * rng.standard_normal(value.shape)))
        .astype(value.dtype) if key.startswith(prefixes) else value
        for key, value in state.items()
    }


def make_oracle(workload, inputs):
    """Expected rows for this workload (reference paths, untimed)."""
    if workload.publish_every_s is not None:
        return expected_generation_rows(MODEL, workload.profile,
                                        inputs.states, inputs.samples)
    from repro.serve import DEFAULT_LADDER

    tiers = DEFAULT_LADDER if workload.policy == "degrade" else None
    return expected_tier_rows(MODEL, workload.profile, inputs.states[0],
                              inputs.samples, tiers)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def build_server(workload, sample, tracer=None):
    """``Server.build`` plus a fixed warm-up; returns ``(server, seconds)``.

    The warm-up submits ``k * replicas`` requests at once for k = 1..8
    and waits, then runs one full batch on every degrade-tier session,
    so lazy per-shape plan binding is paid here.  It is fixed work, not
    fixed time, so work moved into set-up shows in ``setup_s``.
    """
    from repro.runtime import SessionConfig
    from repro.serve import Server

    w = workload
    t0 = time.perf_counter()
    server = Server.build(
        MODEL, w.profile, w.replicas, config=SessionConfig(backend="compiled"),
        seed=MODEL_SEED, mode=w.mode, shed_policy=w.policy,
        queue_capacity=w.capacity, degrade_headroom=w.headroom,
        max_batch_size=w.max_batch, max_wait_ms=w.max_wait_ms, tracer=tracer,
    )
    for k in range(1, w.max_batch + 1):
        futures = [server.submit(sample) for _ in range(k * w.replicas)]
        for fut in futures:
            fut.result(timeout=HUNG_TIMEOUT_S)
    batch = np.stack([sample] * w.max_batch)
    for replica in server.pool:
        for tier in replica.tier_sessions:
            replica.run(batch, tier=tier)
    return server, time.perf_counter() - t0


# ----------------------------------------------------------------------
# one measured phase
# ----------------------------------------------------------------------
class Phase:
    """The outcome of driving one server with the workload's load."""

    def __init__(self, record, verdicts, cpu_s, queue, scheduler, swaps,
                 spans=None, dropped=0):
        self.record = record
        #: per request: a tier name / "ok", "torn", or "fail:<why>"
        self.verdicts = verdicts
        #: CPU seconds the load, the server and its replicas used
        self.cpu_s = cpu_s
        self.queue = queue
        self.scheduler = scheduler
        #: hot-swap publishes: (generation, start, end, pause_ms)
        self.swaps = swaps
        self.spans = spans
        self.dropped = dropped

    @property
    def attempted(self):
        return len(self.verdicts)

    @property
    def failed(self):
        return sum(1 for v in self.verdicts if v.startswith("fail"))

    def served(self):
        """Mask of requests answered correctly (torn reads excluded)."""
        return np.array([not v.startswith(("fail", "torn"))
                         for v in self.verdicts], dtype=bool)

    def latencies_ms(self):
        """Latency of every correct completion."""
        return self.record.latency_ms()[self.served()]


def _counter_delta(after, before, keys=None):
    """What the measured phase added to the server's counters."""
    keys = after.keys() if keys is None else keys
    return {k: after[k] - before.get(k, 0) for k in keys}


def drive(workload, server, inputs, oracle, seconds):
    """Run the load against *server*, check every answer, close it."""
    from repro.adapt import WeightPublisher

    w = workload
    if server.tracer is not None:
        server.tracer.clear()  # drop the warm-up's spans
    before = server.metrics()

    def submit(i):
        return server.submit(inputs.samples[inputs.sample(i)])

    swaps = []
    writer = None
    gc.collect()  # start clean: set-up's garbage is not the run's cost
    cpu_before = cpu_seconds()
    if w.publish_every_s is not None:
        publisher = WeightPublisher(server.pool)
        t_start = time.perf_counter()

        def publish_all():
            for g in range(1, len(inputs.states)):
                delay = t_start + g * w.publish_every_s - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                t0 = time.perf_counter()
                pause = publisher.publish(inputs.states[g])["pause_ms"]
                swaps.append((g, t0, time.perf_counter(), pause))

        writer = threading.Thread(target=publish_all, name="bench-writer")
        writer.start()
    try:
        if w.open_loop:
            record = run_open_loop(submit, inputs.schedule)
        else:
            record = run_closed_loop(submit, seconds, w.outstanding)
    finally:
        if writer is not None:
            writer.join()
    wait_all(record, HUNG_TIMEOUT_S)
    after = server.metrics()
    tracer = server.tracer
    server.close()  # joins process replicas, so their CPU time counts
    cpu_s = cpu_seconds() - cpu_before
    verdicts = check(record, inputs, oracle,
                     swaps if w.publish_every_s is not None else None)
    queue = _counter_delta(after["queue"], before["queue"],
                           ("admitted", "degraded_admissions"))
    queue["degraded_by_tier"] = _counter_delta(
        after["queue"]["degraded_by_tier"], before["queue"]["degraded_by_tier"])
    # the warm-up's own depth (k * replicas) is a floor under this
    queue["high_water"] = after["queue"]["high_water"]
    return Phase(
        record, verdicts, cpu_s, queue,
        _counter_delta(after["scheduler"], before["scheduler"],
                       ("dispatched_batches", "completed")),
        swaps,
        spans=None if tracer is None else tracer.spans(),
        dropped=0 if tracer is None else tracer.dropped,
    )


def cpu_seconds():
    """CPU time of this process and its joined children (process
    replicas), user and system.  Time the host takes from the VM
    (steal) or that the process spends waiting is not in it."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def check(record, inputs, oracle, swaps=None):
    """Classify every request's outcome (see :class:`Phase`).

    Without *swaps* an answer must match exactly one tier; with them
    (a hot-swap run, possibly with no publish yet) it is judged against
    the generations :func:`~oracle.classify_swap` allows.
    """
    verdicts = []
    for i, outcome in enumerate(record.outcome):
        if outcome is None:
            verdicts.append("fail:hung")
            continue
        if isinstance(outcome, str):
            verdicts.append(f"fail:{outcome}")
            continue
        matching = oracle.matching(inputs.sample(i), outcome)
        if swaps is None:
            verdicts.append(matching[0] if len(matching) == 1
                            else "fail:wrong")
            continue
        sent, done = record.sent[i], record.done[i]
        lo = max([g for g, _, end, _ in swaps if end <= sent], default=0)
        hi = max([g for g, start, _, _ in swaps if start <= done], default=0)
        overlapped = any(start < done and end > sent
                         for _, start, end, _ in swaps)
        verdict = classify_swap(matching, lo, hi, overlapped)
        verdicts.append(verdict if verdict in ("ok", "torn")
                        else f"fail:{verdict}")
    return verdicts


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def percentile(values, q):
    """Linear-interpolated percentile; NaN when *values* is empty."""
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if len(values) else float("nan")


def end_to_end(phase, setup_times):
    """The end-to-end metrics of one untraced phase: ``{name: (value,
    unit, samples)}``."""
    lat = phase.latencies_ms()
    n = len(lat)
    return {
        "setup_s": (float(np.median(setup_times)), "s", len(setup_times)),
        "p50_ms": (percentile(lat, 50), "ms", n),
        "cpu_ms_per_req": (phase.cpu_s * 1e3 / n if n else float("nan"),
                           "ms", n),
    }


def lag_valid(workload, phase):
    """Open-loop runs are valid only if the generator kept its schedule."""
    if not workload.open_loop or phase.attempted == 0:
        return True
    return percentile(phase.record.lag_ms(), 50) <= MAX_LAG_P50_MS


def run(name, seed, seconds, trace):
    """Measure workload *name*; returns ``(result, detail)``.

    ``result`` carries ``correct`` / ``attempted`` / ``failed`` and the
    metrics as ``{name: (value, unit, samples)}``; ``detail`` has what
    the human-readable report and ``--out`` add.
    """
    import layers

    w = WORKLOADS[name]
    # a traced run splits its time between an untraced and a traced replay
    span = seconds / 2 if trace else seconds
    inputs = Inputs(w, seed, span)
    oracle = make_oracle(w, inputs)
    sample = inputs.samples[0]
    if not trace:
        times, server = [], None
        for _ in range(w.setups):
            if server is not None:
                server.close()
            server, dt = build_server(w, sample)
            times.append(dt)
        phases = [drive(w, server, inputs, oracle, span)]
        metrics = end_to_end(phases[0], times)
    else:
        from repro.trace import Tracer

        server, _ = build_server(w, sample)
        untraced = drive(w, server, inputs, oracle, span)
        tracer = Tracer(capacity=1 << 20, sample_every=1, kernel_spans=False)
        server, _ = build_server(w, sample, tracer=tracer)
        traced = drive(w, server, inputs, oracle, span)
        phases = [untraced, traced]
        metrics = layers.per_layer(untraced, traced, seed)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    valid = all(lag_valid(w, p) for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    outcomes = Counter(v for p in phases for v in p.verdicts)
    detail = {
        "valid": valid,
        "lag_p50_ms": max(percentile(p.record.lag_ms(), 50) for p in phases),
        "lag_p99_ms": max(percentile(p.record.lag_ms(), 99) for p in phases),
        "outcomes": dict(outcomes),
        "hung": outcomes["fail:hung"],
        "torn": outcomes["torn"],
    }
    return result, detail


__all__ = ["Workload", "WORKLOADS", "run", "build_server", "perturb"]
