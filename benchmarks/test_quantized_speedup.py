"""The quantized plan's speed gate: ≥5× the scalar fixed-point path.

The fixed-point fast executor exists to make full-network fixed-point
inference *fast enough to serve*: the scalar reference path
(``QuantizedODENetExecutor.run`` under the ``reference`` backend) walks
every integer GEMM in pure numpy loops over int64 raws, while the
scale-folded :class:`~repro.fixedpoint.QuantizedPlan` reroutes the same
integers through float BLAS wherever the accumulator provably fits the
mantissa.  The claim is only interesting because the outputs are
**bit-identical** — this bench asserts identity first, then times both
paths at the paper deployment point (``ode_botnet`` at the paper
profile, 16(8)-12(4), batch 8), asserts the headline ≥5×, prints the
table and persists ``BENCH_quantized_speedup.json`` for CI.
"""

import time

import numpy as np
import pytest

from _artifacts import record_bench
from conftest import show
from repro import kernels
from repro.fixedpoint import (
    QuantizedODENetExecutor,
    QuantizedPlan,
    parse_format_pair,
)
from repro.models import build_model
from repro.models.registry import PROFILES

RNG = np.random.default_rng(0)

MODEL = "ode_botnet"
PROFILE = "paper"
FORMAT = "16(8)-12(4)"
BATCH = 8
REQUIRED_SPEEDUP = 5.0


def _best_of(fn, repeats=3, inner=1):
    """Best-of-*repeats* mean-of-*inner* wall seconds per call."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


@pytest.fixture(scope="module")
def quantized_speedup_row():
    """Build, verify bit-identity, time both paths, persist the artifact."""
    model = build_model(MODEL, profile=PROFILE, inference=True)
    ffmt, pfmt = parse_format_pair(FORMAT)
    executor = QuantizedODENetExecutor(model, ffmt, pfmt)
    plan = QuantizedPlan.from_executor(executor)

    size = PROFILES[PROFILE]["input_size"]
    x = RNG.standard_normal((BATCH, 3, size, size)).astype(np.float32)

    with kernels.use_backend("reference"):
        ref = executor.run(x)
    fast = plan.run(x)
    np.testing.assert_array_equal(ref, fast)  # the claim's precondition

    def scalar():
        with kernels.use_backend("reference"):
            executor.run(x)

    plan.run(x)  # warm
    scalar_s = _best_of(scalar)
    plan_s = _best_of(lambda: plan.run(x), repeats=5, inner=3)
    return {
        "model": MODEL,
        "profile": PROFILE,
        "format": FORMAT,
        "batch": BATCH,
        "scalar_ms": scalar_s * 1e3,
        "plan_ms": plan_s * 1e3,
        "speedup": scalar_s / plan_s,
        "bit_identical": True,
    }


def test_quantized_plan_beats_scalar_reference(quantized_speedup_row):
    """The quantized plan ≥ 5x the scalar fixed-point reference path."""
    row = quantized_speedup_row
    show(
        "quantized plan vs scalar fixed point — full-model forward",
        f"{row['model']} @ {row['profile']} {row['format']} "
        f"batch {row['batch']}\n"
        f"scalar {row['scalar_ms']:9.2f} ms   "
        f"plan {row['plan_ms']:7.2f} ms   "
        f"speedup {row['speedup']:.2f}x  (need >={REQUIRED_SPEEDUP}x)",
    )
    record_bench(
        "quantized_speedup",
        {"required_speedup": REQUIRED_SPEEDUP, "rows": [row]},
    )
    assert row["speedup"] >= REQUIRED_SPEEDUP, (
        f"quantized plan speedup {row['speedup']:.2f}x over the scalar "
        f"reference path (need >={REQUIRED_SPEEDUP}x)"
    )


def test_quantized_backend_alone_accelerates_executor():
    """Even without the plan, the executor on the fused kernels must
    beat its own scalar path — the integer reroute carries weight."""
    model = build_model(MODEL, profile="tiny", inference=True)
    ffmt, pfmt = parse_format_pair(FORMAT)
    executor = QuantizedODENetExecutor(model, ffmt, pfmt)
    x = RNG.standard_normal((BATCH, 3, 32, 32)).astype(np.float32)
    with kernels.use_backend("reference"):
        ref = executor.run(x)
        scalar_s = _best_of(lambda: executor.run(x))
    with kernels.use_backend("fused"):
        out = executor.run(x)
        fast_s = _best_of(lambda: executor.run(x))
    np.testing.assert_array_equal(ref, out)
    assert fast_s < scalar_s
