"""Kernel-dispatch smoke benchmarks: the seam must be free, `fused` fast.

Two contracts from the kernel-layer refactor:

* **dispatch is cheap** — routing a kernel through the module-level
  dispatcher (thread-state lookup + collector truthiness check) costs
  <5% over calling the backend method directly;
* **`fused` earns its keep** — on the paper model's eval forward
  (the module forward, :class:`~repro.runtime.ModulePlan`) the fused
  kernels are ≥1.2× the reference kernels.

Wall-clock asserts use best-of-N minima, which are robust to scheduler
noise on shared CI runners.
"""

import time

import numpy as np

from _artifacts import record_bench
from repro import kernels
from repro.models import build_model
from repro.runtime import ModulePlan

RNG = np.random.default_rng(0)


def _best_of(fn, repeats=7, inner=3):
    """Minimum wall-clock seconds of *inner* back-to-back calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_dispatch_overhead_under_5_percent():
    """Module-level kernels.matmul vs the backend method, same arrays.

    256x256 GEMMs take long enough that per-call Python overhead is a
    small fraction; the dispatcher may add at most 5% on top of the
    direct call (measured generously: best-of-N of batched calls).
    """
    a = RNG.normal(size=(256, 256)).astype(np.float32)
    b = RNG.normal(size=(256, 256)).astype(np.float32)
    backend = kernels.get_backend("reference")
    direct = _best_of(lambda: backend.matmul(a, b), repeats=15, inner=20)
    with kernels.use_backend("reference"):
        dispatched = _best_of(lambda: kernels.matmul(a, b), repeats=15, inner=20)
    overhead = dispatched / direct - 1.0
    assert overhead < 0.05, f"dispatch overhead {overhead:.1%} (budget 5%)"


def test_fused_beats_reference_on_odenet_eval_forward():
    """`fused` ≥ 1.2x `reference` on the ODENet module forward."""
    plan = ModulePlan(build_model("odenet", profile="tiny", inference=True))
    x = RNG.standard_normal((8, 3, 32, 32)).astype(np.float32)

    def run_with(backend):
        with kernels.use_backend(backend):
            plan(x)  # warm-up (fused workspace fill)
            return _best_of(lambda: plan(x))

    ref_s = run_with("reference")
    fused_s = run_with("fused")
    speedup = ref_s / fused_s
    record_bench("kernel_dispatch", {
        "model": "odenet",
        "plan": "module forward",
        "batch": int(x.shape[0]),
        "reference_ms": ref_s * 1e3,
        "fused_ms": fused_s * 1e3,
        "speedup": speedup,
        "required_speedup": 1.2,
    })
    assert speedup >= 1.2, f"fused speedup {speedup:.2f}x (need >=1.2x)"


def test_fused_parity_on_benchmark_model():
    """The speed claim only counts if outputs still agree (<=1e-6 rel)."""
    plan = ModulePlan(build_model("odenet", profile="tiny", inference=True))
    x = RNG.standard_normal((4, 3, 32, 32)).astype(np.float32)
    with kernels.use_backend("reference"):
        ref = plan(x)
    with kernels.use_backend("fused"):
        fused = plan(x)
    scale = max(1.0, float(np.abs(ref).max()))
    assert float(np.abs(ref - fused).max()) <= 1e-6 * scale
