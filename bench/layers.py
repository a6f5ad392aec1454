"""Per-layer metrics, measured from the outside.

Two sources, both outside ``src/``:

* the program's own spans from a traced replay of the workload
  (``admission`` / ``dispatch`` / ``session``), folded with
  :func:`repro.trace.stage_latency` and
  :func:`repro.trace.tail_attribution`;
* direct timed calls into each layer's public functions from the
  benchmark thread: ``InferenceSession.predict_batch`` on every plan,
  one pass of each under :func:`repro.kernels.collect`, and
  ``WeightPublisher.publish`` into an idle pool.

The direct calls do not depend on the workload, so every workload
reports every metric; on a workload that bypasses a layer the number is
that layer's no-load baseline.
"""

from __future__ import annotations

import time

import numpy as np

from workloads import MODEL, MODEL_SEED, POST_SWAP_MS, percentile, perturb

#: plans timed directly: name -> (profile, degrade tier or None)
PLANS = {
    "compiled.tiny": ("tiny", None),
    "full.paper": ("paper", None),
    "reduced.paper": ("paper", "reduced"),
    "int8.paper": ("paper", "int8"),
    "int4.paper": ("paper", "int4"),
}
#: plans whose kernel time is split by kernel
SHARE_PLANS = ("compiled.tiny", "full.paper")
SHARE_KERNELS = ("conv2d", "matmul", "batchnorm2d", "maxpool2d",
                 "layernorm", "add")
#: idle-pool publishes measured on workloads without a writer
IDLE_PUBLISHES = 8


def ref_gemm_ms(reps=50):
    """Median time of a fixed 256x256 float64 matmul: box-speed drift."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def _timed(fn, reps):
    fn()  # bind shapes
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _plan_session(profile, tier, state):
    from repro.models import build_model
    from repro.runtime import InferenceSession, SessionConfig
    from repro.serve import BUILTIN_TIERS

    config = SessionConfig(backend="compiled")
    if tier is None:
        net = build_model(MODEL, profile=profile, pretrained_state=state,
                          inference=True)
        return InferenceSession(net, config=config), net
    spec = BUILTIN_TIERS[tier]
    session = spec.build_session(MODEL, profile, seed=MODEL_SEED,
                                 state=state, config=config)
    return session, spec.build_model(MODEL, profile, state=state)


def plan_metrics(seed):
    """``plan.*`` and ``kernels.*``: direct calls on every plan."""
    from repro import kernels
    from repro.models import PROFILES, build_model
    from repro.profiling.flops import model_macs

    out = {}
    rng = np.random.default_rng(seed)
    states = {}
    for plan, (profile, tier) in PLANS.items():
        if profile not in states:
            states[profile] = build_model(
                MODEL, profile=profile, seed=MODEL_SEED).state_dict()
        session, net = _plan_session(profile, tier, states[profile])
        size = PROFILES[profile]["input_size"]
        x8 = rng.standard_normal((8, 3, size, size)).astype(np.float32)
        reps = 30 if profile == "tiny" else 5
        b1 = _timed(lambda: session.predict_batch(x8[:1]), reps)
        b8 = _timed(lambda: session.predict_batch(x8), reps)
        macs = model_macs(net)
        out[f"plan.{plan}.b1_ms"] = (b1 * 1e3, "ms", reps)
        out[f"plan.{plan}.b8_ms"] = (b8 * 1e3, "ms", reps)
        out[f"plan.{plan}.gmacs"] = (8 * macs / b8 / 1e9, "GMAC/s", reps)
        with kernels.collect() as counters:
            t0 = time.perf_counter()
            session.predict_batch(x8)
            wall = time.perf_counter() - t0
        recorded = counters.total_seconds()
        nbytes = sum(counters.bytes.values())
        out[f"kernels.{plan}.bytes_per_sample"] = (nbytes / 8, "B", 1)
        out[f"kernels.{plan}.coverage"] = (recorded / wall, "fraction", 1)
        if plan in SHARE_PLANS:
            for name in SHARE_KERNELS:
                share = counters.seconds.get(name, 0.0) / (recorded or 1.0)
                out[f"kernels.{plan}.share.{name}"] = (share, "fraction", 1)
    return out


def idle_publish_ms(seed):
    """Pause of ``WeightPublisher.publish`` into an idle 2-replica tiny
    pool (the no-load baseline of the publish path)."""
    from repro.adapt import DEFAULT_ADAPT_PREFIXES, WeightPublisher
    from repro.runtime import SessionConfig
    from repro.serve import ReplicaPool

    pool = ReplicaPool.build(MODEL, "tiny", 2, seed=MODEL_SEED,
                             config=SessionConfig(backend="compiled"))
    try:
        rng = np.random.default_rng(seed)
        publisher = WeightPublisher(pool)
        return [
            publisher.publish(perturb(pool.reference_state, rng,
                                      DEFAULT_ADAPT_PREFIXES))["pause_ms"]
            for _ in range(IDLE_PUBLISHES)
        ]
    finally:
        pool.close()


def span_metrics(spans):
    """Fold one traced phase's spans into admission/pool/session/tail."""
    from repro.trace import stage_latency, tail_attribution

    nan = {"count": 0, "p50_ms": float("nan"), "p99_ms": float("nan"),
           "total_ms": float("nan")}
    stages = stage_latency(spans)
    wait = stages.get("admission", nan)
    session = stages.get("session", nan)
    rows = sum(int(s.attrs.get("batch", 0)) for s in spans
               if s.name == "session")
    inner = {}
    for s in spans:
        if s.name == "session":
            inner[s.parent_id] = inner.get(s.parent_id, 0.0) + s.dur
    # dispatch minus the session under it: pipe + pickle for process
    # replicas, bookkeeping only for thread replicas
    overhead = [(d.dur - inner.get(d.span_id, 0.0)) * 1e3 for d in spans
                if d.name == "dispatch"]
    tail = tail_attribution(spans, 99)
    out = {
        "admission.wait_p50_ms": (wait["p50_ms"], "ms", wait["count"]),
        "admission.wait_p99_ms": (wait["p99_ms"], "ms", wait["count"]),
        "pool.dispatch_overhead_ms": (
            float(np.mean(overhead)) if overhead else float("nan"), "ms",
            len(overhead)),
        "session.p50_ms": (session["p50_ms"], "ms", session["count"]),
        "session.p99_ms": (session["p99_ms"], "ms", session["count"]),
        "session.ms_per_sample": (
            session["total_ms"] / rows if rows else float("nan"), "ms", rows),
    }
    for stage in ("queue", "compute", "dispatch_overhead", "deliver"):
        out[f"tail.{stage}_ms"] = (
            tail.get("stages_ms", {}).get(stage, float("nan")), "ms",
            tail["n_tail"])
    return out


def swap_metrics(phase):
    """Post-swap vs quiet tail latency and torn reads.

    A request is post-swap when it was in flight within ``POST_SWAP_MS``
    after a publish returned.  Without a writer nothing is post-swap, and
    both metrics are the p99 of every correct completion: the no-swap
    baseline.
    """
    served = phase.served()
    sent = np.asarray(phase.record.sent)[served]
    done = np.asarray(phase.record.done)[served]
    lat = phase.record.latency_ms()[served]
    torn = sum(1 for v in phase.verdicts if v == "torn")
    if not phase.swaps:
        p99 = (percentile(lat, 99), "ms", len(lat))
        return {"hot_swap.post_swap_p99_ms": p99,
                "hot_swap.quiet_p99_ms": p99,
                "hot_swap.torn": (torn, "count", phase.attempted)}
    post = np.zeros(len(sent), dtype=bool)
    for _, _, mark, _ in phase.swaps:
        post |= (sent < mark + POST_SWAP_MS / 1e3) & (done > mark)
    return {
        "hot_swap.post_swap_p99_ms": (percentile(lat[post], 99), "ms",
                                      int(post.sum())),
        "hot_swap.quiet_p99_ms": (percentile(lat[~post], 99), "ms",
                                  int((~post).sum())),
        "hot_swap.torn": (torn, "count", phase.attempted),
    }


def per_layer(untraced, traced, seed):
    """Every per-layer metric: ``{name: (value, unit, samples)}``."""
    out = {"env.ref_gemm_ms": (ref_gemm_ms(), "ms", 50)}
    lag = untraced.record.lag_ms()
    out["driver.lag_p99_ms"] = (percentile(lag, 99), "ms", len(lag))
    out["driver.lag_max_ms"] = (float(np.max(lag)), "ms", len(lag))

    queue = untraced.queue
    admitted = max(1, queue["admitted"])
    out["admission.high_water"] = (queue["high_water"], "count", 1)
    out["admission.degraded_frac"] = (
        queue["degraded_admissions"] / admitted, "fraction", admitted)
    for tier in ("reduced", "int8", "int4"):
        out[f"admission.degraded_frac.{tier}"] = (
            queue["degraded_by_tier"].get(tier, 0) / admitted, "fraction",
            admitted)
    sched = untraced.scheduler
    out["scheduler.batch_mean"] = (
        sched["completed"] / max(1, sched["dispatched_batches"]), "count",
        sched["dispatched_batches"])

    out.update(span_metrics(traced.spans))
    lat = untraced.latencies_ms()
    # the end-to-end tail: host stalls move it too much for a bound
    out["tail.p95_ms"] = (percentile(lat, 95), "ms", len(lat))
    p50_off = percentile(lat, 50)
    p50_on = percentile(traced.latencies_ms(), 50)
    out["trace.overhead_p50_frac"] = (p50_on / p50_off - 1.0, "fraction",
                                      len(traced.latencies_ms()))
    out["trace.dropped"] = (traced.dropped, "count", len(traced.spans))

    out.update(swap_metrics(untraced))
    pauses = ([p for _, _, _, p in untraced.swaps] if untraced.swaps
              else idle_publish_ms(seed))
    out["publisher.pause_p50_ms"] = (float(np.median(pauses)), "ms",
                                     len(pauses))
    out["publisher.pause_max_ms"] = (float(np.max(pauses)), "ms",
                                     len(pauses))
    out.update(plan_metrics(seed))
    return out


__all__ = ["PLANS", "per_layer", "plan_metrics", "span_metrics",
           "swap_metrics", "ref_gemm_ms"]
