"""Trace-overhead benchmark: tracing off must be free, on must be cheap.

`repro.trace`'s first design commitment (docs/OBSERVABILITY.md) is that
the *disabled* path costs nothing: every traced seam guards on one
thread-local read before running the exact pre-trace code. This file
pins that promise on the hottest traced path — the compiled
`ode_botnet`/`tiny` eval forward the serve path runs — with a <2%
budget, and *prints* the
enabled-tracing cost (full spans, and `kernel_spans=False`) so
regressions of the opt-in path are visible in CI logs without flaking
the suite on it.

The disabled check times the guard itself: it counts the
`current_tracer()` reads one untraced call takes and prices them from a
loop of many reads, so host noise in the forward cannot pass or fail
it. The enabled cost times tracing off, coarse and full within each
rep, rotating which goes first, and records the median of the per-rep
ratios, so a burst of host load lands on all three alike.
"""

import contextlib
import sys
import time

import numpy as np

from _artifacts import record_bench
from repro.models import build_model
from repro.runtime import InferenceSession, SessionConfig
from repro.trace import Tracer, current_tracer

RNG = np.random.default_rng(0)

#: reps of the enabled-cost comparison, and back-to-back calls per side
REPS = 15
INNER = 3


def _best_of(fn, repeats=9, inner=3):
    """Minimum wall-clock seconds of *inner* back-to-back calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _session_and_input():
    model = build_model("ode_botnet", profile="tiny", seed=0, inference=True)
    session = InferenceSession(model, config=SessionConfig(backend="fused"))
    assert session.plan_kind == "compiled"
    x = RNG.standard_normal((8, 3, 32, 32)).astype(np.float32)
    session.predict_batch(x)  # warm-up: plan binding, BLAS threads
    return session, x


def _count_guards(fn):
    """How many times *fn* reads the ambient tracer: every ``repro``
    module that imported :func:`current_tracer` gets a counting twin
    for the call."""
    reads = [0]

    def counting():
        reads[0] += 1
        return current_tracer()

    seams = [m for name, m in list(sys.modules.items())
             if name.startswith("repro.")
             and getattr(m, "current_tracer", None) is current_tracer]
    for module in seams:
        module.current_tracer = counting
    try:
        fn()
    finally:
        for module in seams:
            module.current_tracer = current_tracer
    return reads[0]


def test_disabled_tracing_under_2_percent():
    """No tracer anywhere (the shipped default): the guards an untraced
    call takes cost under 2% of that call.

    With no tracer ambient the session takes the identical fast path it
    took before the trace layer existed, plus one thread-local read per
    traced seam (the session dispatch and each ODE block's step loop).
    Timing the call against itself measures host noise, not the guard,
    so this prices the reads: their count on one call, times the cost
    of one read over a loop of many (loop overhead included, so the
    estimate errs high), against the best-of-N untraced call.
    """
    session, x = _session_and_input()
    assert current_tracer() is None
    guards = _count_guards(lambda: session.predict_batch(x))
    assert guards >= 1
    loop = 100_000

    def reads():
        for _ in range(loop):
            current_tracer()

    guard_s = _best_of(reads, repeats=5, inner=1) / loop
    call_s = _best_of(lambda: session.predict_batch(x), inner=1)
    overhead = guards * guard_s / call_s
    print(f"\ndisabled tracing: {guards} guards x {guard_s * 1e9:.0f} ns "
          f"= {overhead:.3%} of a {call_s * 1e3:.2f} ms call")
    assert overhead < 0.02, (
        f"disabled-trace overhead {overhead:.2%} (budget 2%)"
    )


def test_enabled_tracing_cost_printed():
    """Tracing on: measured and *printed*, asserted only for sanity.

    The opt-in cost depends on how many kernel calls the plan makes, so
    CI prints it (run with ``-s``) rather than gating on a number that
    varies across machines. Each rep times :data:`INNER` calls with
    tracing off, coarse (``kernel_spans=False``) and full, rotating
    which goes first; the overheads are the medians of the per-rep
    ratios. The sanity bounds only catch pathology (tracing somehow
    faster than not, or >2x slower).
    """
    session, x = _session_and_input()
    tracers = {
        "coarse": Tracer(capacity=1 << 16, kernel_spans=False),
        "full": Tracer(capacity=1 << 16, kernel_spans=True),
    }
    for tracer in tracers.values():
        with tracer.activate():
            session.predict_batch(x)  # warm-up on the traced branch

    def timed(mode):
        tracer = tracers.get(mode)
        with tracer.activate() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            for _ in range(INNER):
                session.predict_batch(x)
            return (time.perf_counter() - t0) / INNER

    modes = ("off", "coarse", "full")
    per_call = {mode: [] for mode in modes}
    for rep in range(REPS):
        for mode in modes[rep % 3:] + modes[:rep % 3]:
            per_call[mode].append(timed(mode))
    off = np.asarray(per_call["off"])
    ms = {mode: float(np.median(t)) * 1e3 for mode, t in per_call.items()}
    ratio = {mode: float(np.median(np.asarray(per_call[mode]) / off))
             for mode in tracers}
    coarse_n = len(tracers["coarse"].spans())
    full_n = len(tracers["full"].spans())

    print("\ntrace overhead on compiled ode_botnet/tiny eval forward "
          f"(batch 8, median of {REPS} interleaved reps):")
    print(f"  tracing off            {ms['off']:8.2f} ms/call")
    print(
        f"  on, kernel_spans=False {ms['coarse']:8.2f} ms/call"
        f"  ({ratio['coarse'] - 1.0:+.1%}, {coarse_n} spans retained)"
    )
    print(
        f"  on, kernel spans       {ms['full']:8.2f} ms/call"
        f"  ({ratio['full'] - 1.0:+.1%}, {full_n} spans retained)"
    )

    record_bench("trace_overhead", {
        "model": "ode_botnet",
        "plan": session.plan_kind,
        "batch": 8,
        "off_ms_per_call": ms["off"],
        "coarse_ms_per_call": ms["coarse"],
        "full_ms_per_call": ms["full"],
        "coarse_overhead": ratio["coarse"] - 1.0,
        "full_overhead": ratio["full"] - 1.0,
        "coarse_spans": coarse_n,
        "full_spans": full_n,
    })

    assert full_n > coarse_n > 0
    assert ratio["full"] < 2.0, "full tracing should stay well under 2x"


def test_traced_forward_is_bit_exact():
    """The overhead numbers only count if tracing changes nothing."""
    session, x = _session_and_input()
    untraced = session.predict_batch(x)
    with Tracer().activate():
        traced = session.predict_batch(x)
    assert np.array_equal(untraced, traced)
