"""Pluggable kernel backends — the single dispatch seam under all hot math.

Every hot-path array computation in the repo (matmul/linear, im2col
conv + pooling, elementwise/activation, reductions, softmax/ReLU
attention scores, layernorm/batchnorm) funnels through the module-level
functions here, which dispatch to the calling thread's active *backend*:

* ``reference`` — the original numpy kernels, bit-identical to the
  pre-kernel codebase; the default and the semantic ground truth.
* ``fused`` — BLAS-routed convs, per-thread workspace reuse across ODE
  solver steps, and in-place elementwise rewrites; agrees with
  ``reference`` to float rounding (≤1e-6 relative, pinned by the
  parity suite).  Integer (fixed-point raw) GEMMs run on the float BLAS
  path whenever the worst-case accumulator fits the float mantissa, so
  integer results are **bit-identical** to ``reference``.

Four consumer layers sit on this seam: the autograd ops
(``repro.tensor.ops_*``), the eval fast paths (``repro.nn.functional``),
the fixed-point kernels (``repro.fixedpoint``, which wrap these kernels
with quantise/rescale steps), and — transitively — the FPGA simulator's
software reference.  Adding a backend means subclassing
:class:`~repro.kernels.reference.ReferenceBackend`, overriding the
kernels you can beat, and calling :func:`register_backend`; see
``docs/ARCHITECTURE.md`` ("Kernel backends").

The kernel backend also picks the execution plan a
:class:`repro.runtime.InferenceSession` binds: ``reference`` binds the
oracle of the model's numeric domain, any other backend its fast
executor (see :mod:`repro.runtime.engine`).  ``"compiled"`` is accepted
as an alias of ``"fused"``.

Selection follows one documented precedence, resolved by
:func:`resolve_backend`: explicit argument > ambient
``with use_backend(name)`` context > ``$REPRO_BACKEND`` > ``reference``
(see :mod:`repro.kernels.registry`).  Per-kernel call/seconds/bytes
instrumentation activates only inside :func:`collect` blocks — an idle
dispatch costs one attribute lookup and one truthiness check.
"""

from __future__ import annotations

from . import shapes
from .fused import FusedBackend
from .instrument import KernelCounters, active_collectors, collect, record_dispatch
from .reference import ReferenceBackend
from .registry import (
    _init_state,
    available_backends,
    backend_name,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    use_backend,
)

register_backend("reference", ReferenceBackend())
register_backend("fused", FusedBackend())
_init_state()

# _init_state() created the thread-state object; import the rebound name
# so the dispatchers read the armed state.
from .instrument import _stack  # noqa: E402
from .registry import _state  # noqa: E402


def _dispatcher(name, doc):
    def dispatch(*args, **kwargs):
        impl = getattr(_state.backend, name)
        if not _stack.collectors:
            return impl(*args, **kwargs)
        return record_dispatch(name, impl, args, kwargs)

    dispatch.__name__ = name
    dispatch.__qualname__ = name
    dispatch.__doc__ = doc
    return dispatch

#: every kernel a backend provides, in dependency order
KERNELS = (
    "matmul",
    "linear",
    "conv2d",
    "conv2d_backward",
    "maxpool2d",
    "avgpool2d",
    "global_avg_pool",
    "add",
    "mul",
    "relu",
    "relu_forward",
    "softmax",
    "layernorm",
    "batchnorm2d",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "reduce_min",
)

_doc_src = ReferenceBackend
for _k in KERNELS:
    globals()[_k] = _dispatcher(
        _k, f"Dispatch ``{_k}`` to the active backend.\n\n"
            f"Reference semantics: {getattr(_doc_src, _k).__doc__}"
    )
del _k

__all__ = [
    "shapes",
    "ReferenceBackend",
    "FusedBackend",
    "KernelCounters",
    "collect",
    "active_collectors",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "backend_name",
    "default_backend_name",
    "use_backend",
    "KERNELS",
    *KERNELS,
]
