"""The unified inference entry point: :class:`InferenceSession`.

One object, one API — ``predict(x)`` / ``predict_batch(x)`` — across
every way this repo can run a model:

* a float :class:`~repro.nn.Module` from
  :func:`repro.models.build_model`,
* a :class:`~repro.fixedpoint.QuantizedODENetExecutor` (the paper's
  8/16-bit fixed-point deployment arithmetic),
* an FPGA-style executor (:class:`~repro.fpga.MHSAAccelerator`,
  :class:`~repro.fpga.DeployedMHSA`, or any object with ``run``/
  ``__call__`` mapping a numpy batch to a numpy batch).

The session resolves its kernel backend once, at construction, by the
precedence of :func:`repro.kernels.resolve_backend` (``config.backend``,
else the ambient ``use_backend``, else ``$REPRO_BACKEND``, else
``reference``).  That backend picks the plan — the oracle of the
model's numeric domain under ``reference``, its fast executor under any
other (the table in :mod:`repro.runtime.engine`) — and every dispatch
runs on it, whichever thread dispatches.  The plan is frozen:
parameter mutations are not observed until
:meth:`InferenceSession.refresh`.  Every dispatch is recorded in
:class:`~repro.runtime.SessionStats` (batch size + wall latency).
"""

from __future__ import annotations

import time

import numpy as np

from .. import kernels
from ..trace import KernelSpanCollector, current_tracer
from .config import SessionConfig
from .engine import bind_plan
from .stats import SessionStats


class InferenceSession:
    """Frozen, stats-instrumented forward path for one model.

    Parameters
    ----------
    model:
        a :class:`~repro.nn.Module`, a
        :class:`~repro.fixedpoint.QuantizedODENetExecutor`, or any object
        exposing
        ``run(batch)`` or ``__call__(batch)`` on numpy arrays (e.g. the
        FPGA accelerator models).
    stats:
        optionally share a :class:`SessionStats` instance; by default
        each session owns a fresh one.
    config:
        a :class:`~repro.runtime.SessionConfig`; the session reads its
        kernel backend, which also picks the plan.  ``None`` means
        ``SessionConfig()``.

    Every ``predict_batch`` made while a tracer is ambient on the
    calling thread — the serving layer's ``dispatch`` span, a worker's
    ``tracer.activate()``, or a caller's own ``with
    tracer.activate():`` — records a ``session`` span with nested
    ``solver.step`` and (if the tracer's ``kernel_spans`` is on)
    ``kernel.<name>`` spans.  With no ambient tracer it runs the plan
    and nothing else; wrap calls in :func:`repro.kernels.collect` to
    count their kernels.

    Attributes
    ----------
    plan_kind:
        the bound plan (see :func:`~repro.runtime.engine.bind_plan`):
        ``"module"``, ``"compiled"``, ``"executor"``, ``"quantized"``,
        ``"accelerator"`` or ``"callable"``.
    kernel_backend:
        the kernel backend name every dispatch runs on.

    Notes
    -----
    ``predict_batch`` under ``reference`` is bit-identical to the
    eval-mode training forward for float models and to
    ``QuantizedODENetExecutor.run`` for quantized ones; the fast
    executors change how the computation is scheduled, within 1e-6
    (float) or bit for bit (fixed point).
    """

    def __init__(self, model, *, stats=None, config=None):
        self.config = config if config is not None else SessionConfig()
        self._stats = stats if stats is not None else SessionStats()
        self.kernel_backend = (
            self.config.backend if self.config.backend is not None
            else kernels.backend_name()
        )
        self._fast = kernels.get_backend(self.kernel_backend) is not (
            kernels.get_backend("reference")
        )
        self.model = model
        self.plan_kind, self._plan = bind_plan(model, self._fast)
        self._retired = None

    # ------------------------------------------------------------------
    @property
    def stats(self) -> SessionStats:
        """Serving statistics for this session (shared with batchers)."""
        return self._stats

    def refresh(self) -> None:
        """Re-derive the bound plan from the model's current weights
        (call after mutating them): an executor drops its cached
        quantized weights, and the plan is rebound — a compiled plan,
        float or fixed point, is lowered afresh.  The old plan is kept
        until the next batch has run, so a compiled plan binds to the
        arena arrays its predecessor's bindings hold instead of making
        new ones."""
        from ..fixedpoint import QuantizedODENetExecutor

        if isinstance(self.model, QuantizedODENetExecutor):
            self.model.refresh()
        self._retired = self._plan
        self.plan_kind, self._plan = bind_plan(self.model, self._fast)

    # ------------------------------------------------------------------
    def predict_batch(self, x) -> np.ndarray:
        """Run a batch (leading axis = samples) and return raw outputs."""
        x = np.asarray(x)
        tracer = current_tracer()
        start = time.perf_counter()
        if tracer is None:
            with kernels.use_backend(self.kernel_backend):
                out = self._plan(x)
        else:
            out = self._dispatch_traced(x, tracer)
        self._stats.record(x.shape[0], time.perf_counter() - start)
        self._retired = None
        return np.asarray(out)

    def _dispatch_traced(self, x, tracer):
        """Plan call under a ``session`` span, which keeps *tracer*
        ambient so the solver loop and (when the tracer's
        ``kernel_spans`` is on) the kernel dispatcher nest their spans
        beneath it.  Runs on whichever thread dispatches (serve
        executor threads included) — every mechanism here is
        thread-local."""
        span = tracer.span("session", batch=int(x.shape[0]),
                           plan=self.plan_kind)
        with span, kernels.use_backend(self.kernel_backend):
            if not tracer.kernel_spans:
                return self._plan(x)
            with kernels.collect(KernelSpanCollector(tracer)):
                return self._plan(x)

    def predict(self, x) -> np.ndarray:
        """Run one sample (no batch axis); returns its output row."""
        return self.predict_batch(np.asarray(x)[None])[0]

    def __call__(self, x) -> np.ndarray:
        """Alias for :meth:`predict_batch`."""
        return self.predict_batch(x)

    def __repr__(self):
        return (
            f"InferenceSession(plan={self.plan_kind!r}, "
            f"model={type(self.model).__name__})"
        )
