"""Smoke benchmark: the batched runtime vs per-sample graph forwards.

The inference runtime's pitch is throughput: one batched, graph-free
``predict_batch`` over N images should beat N single-image forwards that
each build an autograd graph.  This pins the claim at >= 2x on the tiny
proposed model, on the ``reference`` session (the module-forward
oracle, so the compiler's own speedup is not counted) — a deliberately
loose bound so the smoke test passes on any CI machine while still
catching a runtime that silently regresses to per-sample dispatch.

Runs standalone (no ``--benchmark-only`` needed):

    pytest benchmarks/test_runtime_throughput.py -q -s
"""

import time

import numpy as np

from repro.models import build_model
from repro.runtime import InferenceSession, SessionConfig
from repro.tensor import Tensor

from _artifacts import record_bench
from conftest import show

N_SAMPLES = 32
REPEATS = 3


def _best_of(repeats, fn):
    """Best wall-clock of ``repeats`` runs (robust to CI noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_predict_batch_at_least_2x_over_per_sample():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((N_SAMPLES, 3, 32, 32)).astype(np.float32)

    model = build_model("ode_botnet", profile="tiny", seed=0)
    session = InferenceSession(
        build_model("ode_botnet", profile="tiny", seed=0, inference=True),
        config=SessionConfig(backend="reference"),
    )
    assert session.plan_kind == "module"

    def per_sample():
        # the pre-runtime idiom: one graph-building forward per image
        return [model(Tensor(x[i : i + 1])).data for i in range(N_SAMPLES)]

    def batched():
        return session.predict_batch(x)

    per_sample()  # warm-up (first-touch allocations, BLAS threads)
    batched()

    t_loop = _best_of(REPEATS, per_sample)
    t_batch = _best_of(REPEATS, batched)
    speedup = t_loop / t_batch

    show(
        "Runtime throughput smoke (tiny ode_botnet, 32 images)",
        f"per-sample graph forwards : {N_SAMPLES / t_loop:8.1f} img/s"
        f"  ({t_loop * 1e3:7.1f} ms)\n"
        f"InferenceSession batched  : {N_SAMPLES / t_batch:8.1f} img/s"
        f"  ({t_batch * 1e3:7.1f} ms)\n"
        f"speedup                   : {speedup:.1f}x (gate: >= 2x)",
    )
    record_bench("runtime_throughput", {
        "model": "ode_botnet",
        "plan": session.plan_kind,
        "n_samples": N_SAMPLES,
        "per_sample_ms": t_loop * 1e3,
        "batched_ms": t_batch * 1e3,
        "batched_img_per_s": N_SAMPLES / t_batch,
        "speedup": speedup,
        "required_speedup": 2.0,
    })

    assert speedup >= 2.0, (
        f"predict_batch only {speedup:.2f}x faster than per-sample "
        f"training-mode forwards (expected >= 2x)"
    )

    out = session.predict_batch(x)
    assert out.shape == (N_SAMPLES, 10)
    assert np.all(np.isfinite(out))
