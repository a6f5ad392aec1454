"""The plan table: which execution plan runs a frozen model's forward.

Each numeric domain has exactly one oracle and one fast executor, and
the session's kernel backend, resolved once at construction, picks
between them:

=============  ================================  ===============================
domain         oracle (``reference`` backend)    fast executor (any other)
=============  ================================  ===============================
float          :class:`ModulePlan` — the         :class:`~repro.compile.CompiledPlan`
               module's own forward              — Euler ODENets
fixed point    ``QuantizedODENetExecutor.run``   :class:`~repro.compile.CompiledPlan`
                                                 from ``compile_model(model, formats)``
                                                 — sites within the float64 mantissa
=============  ================================  ===============================

Both fast executors come out of the one compile binder.  A model its
domain's fast executor cannot take (adaptive solvers, ResNet/BoTNet/ViT,
efficient-attention variants, a site wider than the float64 mantissa —
any :class:`~repro.compile.CompileError`) runs its oracle on the
selected kernels instead.  The oracles define the numbers: a
``reference`` float session is bit-identical to ``model(Tensor(x))`` in
eval mode, the compiled float plan agrees to ≤1e-6, and the compiled
fixed-point plan is bit-identical to the executor (pinned by
``tests/test_runtime.py``).
"""

from __future__ import annotations

import numpy as np

from ..nn import Module
from ..tensor import Tensor, inference_mode


class ModulePlan:
    """The float oracle: the module's own forward, graph-free.

    Runs under :func:`~repro.tensor.inference_mode`, so ``Function.apply``
    skips every piece of autograd bookkeeping; numerics are exactly the
    eval-mode training forward.  Works for any architecture the registry
    can build, including adaptive (Dopri5/Bosh3) solver configurations.
    It reads the module's live parameters by design: a weight load moves
    the oracle at once, while a compiled plan holds its own copies and
    moves only when it is rebuilt (``refresh()``).
    """

    def __init__(self, module):
        if module.training:
            raise ValueError("plan an eval-mode model (call model.eval())")
        self.module = module

    def __call__(self, x: np.ndarray) -> np.ndarray:
        with inference_mode():
            return self.module(Tensor(x, _copy=False)).data


def bind_plan(model, fast):
    """Bind *model*'s plan from the table above; returns ``(kind, plan)``.

    *fast* selects the fast executor where the model supports it (any
    kernel backend but ``reference``).  ``kind`` is ``"module"``,
    ``"compiled"``, ``"executor"``, ``"quantized"``, ``"accelerator"``
    (an object with ``run(batch)``, e.g. the FPGA models) or
    ``"callable"``.
    """
    from ..compile import CompiledPlan, CompileError, compile_model
    from ..fixedpoint import QuantizedODENetExecutor

    if isinstance(model, Module):
        model.eval()
        if fast and CompiledPlan.supported(model):
            return "compiled", compile_model(model)
        return "module", ModulePlan(model)
    if isinstance(model, QuantizedODENetExecutor):
        if fast:
            try:
                return "quantized", compile_model(
                    model.model, (model.ffmt, model.pfmt)
                )
            except CompileError:
                pass
        return "executor", model.run
    if callable(getattr(model, "run", None)):
        return "accelerator", model.run
    if callable(model):
        return "callable", model
    raise TypeError(
        f"cannot build an InferenceSession around {type(model).__name__}"
    )
