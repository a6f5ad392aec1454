"""repro.compile — the fast executor for Euler ODENets, in both
numeric domains.

Lowers an eval-mode :class:`~repro.models.ODENet` into one fused,
arena-backed execution plan (see ``docs/COMPILE.md``):

* :mod:`~repro.compile.ir` — lowering: BatchNorm folding into fused
  scale-shift-ReLU passes and neighbouring convs, and time-channel
  decomposition of the ODE dynamics' time-concat convs; and
  :func:`lower_fixed`, the fixed-point lowering that keeps every
  rounding site of :class:`~repro.fixedpoint.QuantizedODENetExecutor`.
* :mod:`~repro.compile.arena` — static buffer planning: named
  preallocated workspace buffers plus build-time alias validation of
  the step program.
* :mod:`~repro.compile.steps` — the per-step bodies, allocation-free by
  construction (lint rule CMP001 bans array constructors here).
* :mod:`~repro.compile.plan` — :class:`CompiledPlan`: binds lowered IR
  to a concrete geometry, runs the Euler loop through
  :func:`repro.ode.fixed_grid_loop` out of one arena, and splits a
  paper-geometry batch across the cores; :func:`compile_model` is
  ``CompiledPlan(lower(model))``, or with ``formats``
  ``CompiledPlan(lower_fixed(model, *formats))``, with the model's
  per-sample MACs set on it.

Most callers never import this package: an
:class:`~repro.runtime.InferenceSession` on any kernel backend but
``reference`` (``SessionConfig(backend="fused")``, ambient
``with kernels.use_backend("fused")``, or ``REPRO_BACKEND=fused``)
binds :func:`compile_model`'s plan for every model — float module or
fixed-point executor — it supports.
"""

from .arena import Arena, OpList, PlanValidationError
from .ir import CompileError, lower, lower_fixed
from .plan import CompiledPlan, compile_model

__all__ = [
    "Arena",
    "OpList",
    "PlanValidationError",
    "CompiledPlan",
    "CompileError",
    "compile_model",
    "lower",
    "lower_fixed",
]
