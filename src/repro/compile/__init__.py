"""repro.compile — the float fast executor for Euler ODENets.

Lowers an eval-mode :class:`~repro.models.ODENet` into a fused,
arena-backed execution plan (see ``docs/COMPILE.md``):

* :mod:`~repro.compile.ir` — lowering: BatchNorm folding into fused
  scale-shift-ReLU passes and neighbouring convs, time-channel
  decomposition of the ODE dynamics' time-concat convs, and the
  structural graph hash the schedule cache is keyed by.
* :mod:`~repro.compile.arena` — static buffer planning: named
  preallocated workspace buffers plus build-time alias validation of
  the step program.
* :mod:`~repro.compile.steps` — the per-step bodies, allocation-free by
  construction (lint rule CMP001 bans array constructors here).
* :mod:`~repro.compile.plan` — :class:`CompiledPlan`: binds lowered IR
  to a concrete geometry, runs the Euler loop through
  :func:`repro.ode.fixed_grid_loop` out of one arena.
* :mod:`~repro.compile.autotune` — per-machine schedule search with a
  disk cache keyed by graph hash × machine fingerprint.

Most callers never import this package: an
:class:`~repro.runtime.InferenceSession` on any kernel backend but
``reference`` (``SessionConfig(backend="fused")``, ambient
``with kernels.use_backend("fused")``, or ``REPRO_BACKEND=fused``)
binds :func:`compile_model`'s plan for every model it supports.
"""

from .arena import Arena, OpList, PlanValidationError
from .autotune import (
    autotune,
    cache_dir,
    cache_path,
    compile_model,
    default_schedule,
    graph_hash,
    graph_signature,
    load_schedule,
    machine_fingerprint,
    save_schedule,
    schedule_axes,
)
from .ir import COMPILE_VERSION, CompileError, lower
from .plan import CompiledPlan

__all__ = [
    "COMPILE_VERSION",
    "Arena",
    "OpList",
    "PlanValidationError",
    "CompiledPlan",
    "CompileError",
    "compile_model",
    "lower",
    "autotune",
    "default_schedule",
    "schedule_axes",
    "graph_hash",
    "graph_signature",
    "machine_fingerprint",
    "cache_dir",
    "cache_path",
    "load_schedule",
    "save_schedule",
]
