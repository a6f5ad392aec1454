"""The compiled plan's speed gate: ≥1.3× the module forward on fused.

:class:`~repro.compile.CompiledPlan` is the float fast executor — same
numerics as the module-forward oracle (≤1e-6 of ``reference``), better
schedule: BN folded into conv weights, the Euler step body running
channels-last out of one preallocated arena.  This bench times the plan
every compiled session binds against the module forward
(:class:`ModulePlan`) on the same ``fused`` kernels for each compilable
registry model at two points — ``tiny`` at batch 8, where Python
dispatch dominates, and the ``paper`` geometry at batch 1 —
asserts the headline ≥1.3× claim at both, prints the table and
persists it as ``BENCH_compile_speedup.json`` for CI artifact upload.
"""

import time

import numpy as np
import pytest

from _artifacts import record_bench
from conftest import show
from repro import kernels
from repro.models import PROFILES, build_model
from repro.runtime import InferenceSession, ModulePlan, SessionConfig

RNG = np.random.default_rng(0)

MODELS = ("odenet", "ode_botnet")
#: (profile, batch): the dispatch-bound test geometry and the 96×96
#: serve geometry
POINTS = (("tiny", 8), ("paper", 1))
REQUIRED_SPEEDUP = 1.3


def _best_of(fn, repeats=7, inner=5):
    """Best-of-*repeats* mean-of-*inner* wall seconds per call."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


@pytest.fixture(scope="module")
def compile_speedup_rows():
    """Time module forward vs compiled per model and point, persist."""
    rows = []
    for profile, batch in POINTS:
        size = PROFILES[profile]["input_size"]
        x = RNG.standard_normal((batch, 3, size, size)).astype(np.float32)
        for name in MODELS:
            model = build_model(name, profile=profile, inference=True)
            compiled = InferenceSession(
                model, config=SessionConfig(backend="fused")
            )
            assert compiled.plan_kind == "compiled"
            compiled.predict_batch(x)  # warm: plan binding
            compiled_s = _best_of(lambda: compiled.predict_batch(x))
            module = ModulePlan(model)
            with kernels.use_backend("fused"):
                module(x)  # warm: fused workspaces
                module_s = _best_of(lambda: module(x))
            rows.append({
                "model": name,
                "profile": profile,
                "batch": batch,
                "baseline": "module forward on fused kernels",
                "fused_ms": module_s * 1e3,
                "compiled_ms": compiled_s * 1e3,
                "speedup": module_s / compiled_s,
            })

    body = "\n".join(
        f"{r['model']:12s} {r['profile']:6s} b{r['batch']}  module/fused "
        f"{r['fused_ms']:8.3f} ms   compiled {r['compiled_ms']:8.3f} ms   "
        f"speedup {r['speedup']:.2f}x  (need >={REQUIRED_SPEEDUP}x)"
        for r in rows
    )
    show("compiled plan vs module forward on fused kernels", body)
    record_bench(
        "compile_speedup",
        {"required_speedup": REQUIRED_SPEEDUP, "rows": rows},
    )
    return rows


@pytest.mark.parametrize("name", MODELS)
def test_compiled_beats_fused(compile_speedup_rows, name):
    """The compiled plan ≥ 1.3x the module forward on fused kernels."""
    _assert_speedup(compile_speedup_rows, name, "tiny")


@pytest.mark.parametrize("name", MODELS)
def test_compiled_beats_fused_at_paper_geometry(compile_speedup_rows, name):
    """The same gate at the 96×96 serve geometry, batch 1."""
    _assert_speedup(compile_speedup_rows, name, "paper")


def _assert_speedup(rows, name, profile):
    row = next(r for r in rows
               if r["model"] == name and r["profile"] == profile)
    assert row["speedup"] >= REQUIRED_SPEEDUP, (
        f"compiled speedup {row['speedup']:.2f}x over the module forward "
        f"on fused kernels on {name} at {profile} batch {row['batch']} "
        f"(need >={REQUIRED_SPEEDUP}x)"
    )


@pytest.mark.parametrize("name", MODELS)
def test_compiled_parity_with_reference(name):
    """The speed claim only counts if outputs agree (≤1e-6 of reference)."""
    model = build_model(name, profile="tiny", inference=True)
    x = RNG.standard_normal((4, 3, 32, 32)).astype(np.float32)
    ref = InferenceSession(
        model, config=SessionConfig(backend="reference")
    ).predict_batch(x)
    out = InferenceSession(
        model, config=SessionConfig(backend="compiled")
    ).predict_batch(x)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)
