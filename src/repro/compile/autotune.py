"""Schedule search + the on-disk schedule cache.

A *schedule* is a flat dict of per-site strategy choices (see
:mod:`repro.compile.plan`): which conv algorithm each dense site uses
(``tensordot`` vs explicit im2col ``gemm``), which depthwise strategy
each ODE conv uses (``taps`` vs ``patches``), and whether per-step time
planes are precomputed (``unrolled``) or multiplied at step time
(``runtime``).  The right choices are machine-dependent — BLAS builds,
cache sizes and core counts move the crossover points — so
:func:`autotune` searches them empirically: greedy coordinate descent
over the axes, timing the *full* compiled forward with the benchmark
harness's best-of-N discipline (minimum over repeats of a mean over
inner iterations, the same estimator ``benchmarks/`` uses).

Winning schedules are cached as JSON keyed by
``graph_hash`` (structural, from :func:`repro.compile.ir.graph_hash`)
× ``machine_fingerprint``, so a tuned machine never re-tunes until the
model structure, the compiler version or the machine changes.  Cache
location: ``$REPRO_COMPILE_CACHE`` if set, else
``~/.cache/repro/compile``.  :func:`compile_model` consults the cache
transparently; a miss falls back to the heuristic
:func:`default_schedule` without timing anything, so sessions never pay
a tuning cost they didn't ask for.

Every function here takes the lowered stages
(:func:`repro.compile.ir.lower`), so one compile lowers the model once
and derives its cache key, schedule axes and plan from that one list.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from .ir import COMPILE_VERSION, graph_hash, graph_signature, lower
from .plan import CompiledPlan

__all__ = [
    "autotune",
    "compile_model",
    "default_schedule",
    "schedule_axes",
    "machine_fingerprint",
    "graph_hash",
    "graph_signature",
    "cache_dir",
    "cache_path",
    "load_schedule",
    "save_schedule",
]

_CACHE_ENV = "REPRO_COMPILE_CACHE"


def machine_fingerprint() -> str:
    """A short stable identifier of this machine's execution substrate.

    Captures what moves schedule crossover points: CPU architecture and
    model string, core count, and the numpy (hence BLAS) build.
    """
    import hashlib

    raw = json.dumps(
        {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "numpy": np.__version__,
        },
        sort_keys=True,
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:12]


def cache_dir() -> str:
    """The schedule cache directory (``$REPRO_COMPILE_CACHE`` wins)."""
    env = os.environ.get(_CACHE_ENV)
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "compile"
    )


def cache_path(stages) -> str:
    """The cache file the schedule of lowered *stages* lives at on this
    machine."""
    return os.path.join(
        cache_dir(),
        f"schedule-{graph_hash(stages)}-{machine_fingerprint()}.json",
    )


def load_schedule(stages):
    """The cached schedule entry for *stages* on this machine, or None.

    Entries carry the compiler version and are ignored (treated as a
    miss) when it moved — a version bump invalidates every cache.
    """
    path = cache_path(stages)
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if entry.get("compile_version") != COMPILE_VERSION:
        return None
    if not isinstance(entry.get("schedule"), dict):
        return None
    return entry


def save_schedule(stages, schedule, *, tuned=False, best_ms=None,
                  input_shape=None, timings=None) -> str:
    """Persist *schedule* for *stages* on this machine; returns the path."""
    path = cache_path(stages)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    entry = {
        "compile_version": COMPILE_VERSION,
        "graph_hash": graph_hash(stages),
        "machine": machine_fingerprint(),
        "schedule": dict(schedule),
        "tuned": bool(tuned),
        "best_ms": best_ms,
        "input_shape": None if input_shape is None else list(input_shape),
        "timings_ms": timings or {},
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)
    return path


def schedule_axes(stages):
    """The tunable axes of lowered *stages*: ``[(key, [choices...])]``.

    One dense-conv axis per conv/fconv stage, one depthwise axis per
    DSC time conv inside the ODE dynamics, plus the global time-plane
    mode.  The first choice of each axis is the heuristic default.
    """
    axes = []
    for stage in stages:
        if stage.op in ("conv", "fconv"):
            groups = getattr(stage.ir, "groups", 1)
            # the gemm alternative reorders the reduction; that is only
            # parity-safe (≤1e-6 vs reference) for float64 convs, where
            # reassociation costs ~1e-15 — a float32 conv (the stem)
            # would drift past the backend tolerance, so it gets no axis
            if groups == 1 and stage.ir.weight.dtype == np.float64:
                axes.append((f"conv:{stage.name}", ["tensordot", "gemm"]))
        elif stage.op == "ode":
            func = stage.ir.func
            convs = (
                (("conv1", func.conv1), ("conv2", func.conv2))
                if func.kind == "conv"
                else (("down", func.down), ("up", func.up))
            )
            for cname, tc in convs:
                if tc.kind == "dsc":
                    axes.append(
                        (f"dw:{stage.name}.{cname}", ["taps", "patches"])
                    )
    axes.append(("time_planes", ["unrolled", "runtime"]))
    return axes


def default_schedule(stages) -> dict:
    """The heuristic schedule: first choice of every axis, no timing."""
    return {key: choices[0] for key, choices in schedule_axes(stages)}


def _time_plan(stages, schedule, x, repeats, inner):
    """Best-of-*repeats* mean-of-*inner* wall time of one forward, in
    seconds — the benchmark harness's estimator."""
    plan = CompiledPlan(stages, schedule)
    plan(x)  # warm: bind geometry, allocate the arena
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            plan(x)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def autotune(stages, x, *, repeats=5, inner=4, save=True):
    """Search fusion/tile/unroll schedules for *stages* on this machine.

    Greedy coordinate descent: start from :func:`default_schedule`,
    sweep each axis in turn keeping the best choice found so far, timing
    the full compiled forward on *x* as the oracle.  Returns
    ``(schedule, report)`` where ``report`` maps each tried
    ``axis=choice`` to its milliseconds.  ``save=True`` (default) writes
    the winner to the schedule cache.
    """
    x = np.asarray(x)
    best = default_schedule(stages)
    timings = {}
    best_t = _time_plan(stages, best, x, repeats, inner)
    timings["default"] = best_t * 1e3
    for key, choices in schedule_axes(stages):
        for choice in choices:
            if best.get(key) == choice:
                continue
            candidate = dict(best)
            candidate[key] = choice
            t = _time_plan(stages, candidate, x, repeats, inner)
            timings[f"{key}={choice}"] = t * 1e3
            if t < best_t:
                best, best_t = candidate, t
    report = {
        "best_ms": best_t * 1e3,
        "timings_ms": timings,
        "input_shape": list(x.shape),
    }
    if save:
        report["cache_path"] = save_schedule(
            stages, best, tuned=True, best_ms=best_t * 1e3,
            input_shape=x.shape, timings=timings,
        )
    return best, report


def compile_model(model, *, schedule=None):
    """Compile an eval-mode Euler ODENet: lower it once, then bind the
    explicit schedule, else the cached one, else the heuristic default.

    Never tunes implicitly.
    """
    stages = lower(model)
    if schedule is None:
        entry = load_schedule(stages)
        schedule = (
            entry["schedule"] if entry is not None
            else default_schedule(stages)
        )
    return CompiledPlan(stages, schedule)
