"""Backend registry and the single backend-resolution order.

A *backend* is an object providing one method per kernel (see
:class:`repro.kernels.reference.ReferenceBackend` for the canonical
list).  Backends register under a short name; which backend a kernel
dispatch uses is decided by exactly one documented precedence,
implemented by :func:`resolve_backend`:

1. **explicit argument** — ``InferenceSession(config=SessionConfig(
   backend="compiled"))`` or any API that takes a backend name wins;
2. **ambient context** — the innermost active ``with use_backend(name)``
   on the calling thread;
3. **environment** — ``$REPRO_BACKEND`` (the CI matrix runs the whole
   test suite under every backend this way);
4. **default** — ``"reference"``.

Selection is per-thread, so serve executor threads and tests can pick
different backends concurrently.  ``"compiled"`` is an alias of
``"fused"``: the kernels are the same, and
:class:`repro.runtime.InferenceSession` binds the compiled plan under
any backend but ``reference``.
"""

from __future__ import annotations

import os
import threading

_BACKENDS: dict = {}
#: names that resolve to a registered backend without being listed
_ALIASES = {"compiled": "fused"}
_DEFAULT_ENV = "REPRO_BACKEND"


def register_backend(name: str, backend) -> None:
    """Register *backend* under *name* (last registration wins)."""
    _BACKENDS[str(name)] = backend


def available_backends() -> tuple:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_BACKENDS))


def _resolve(name):
    try:
        return _BACKENDS[_ALIASES.get(name, name)]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None


def default_backend_name() -> str:
    """The process default: ``$REPRO_BACKEND`` or ``"reference"``."""
    return os.environ.get(_DEFAULT_ENV, "reference")


class _ThreadState(threading.local):
    """Per-thread active backend; new threads start at the env default."""

    def __init__(self):
        self.backend = _resolve(default_backend_name())


_state = None  # initialised by _init_state() once backends exist


def _init_state() -> None:
    """Validate the environment default and arm the thread-local state.

    Called once from ``repro.kernels.__init__`` after the built-in
    backends have registered, so a typo in ``REPRO_BACKEND`` fails fast
    at import instead of at the first kernel call.
    """
    global _state
    _resolve(default_backend_name())
    _state = _ThreadState()


def resolve_backend(name: str | None = None):
    """Resolve the backend by the documented precedence, in one place.

    ``resolve_backend("fused")`` is rule 1 (explicit argument, validated
    loudly); ``resolve_backend()`` falls through rules 2-4 — the
    innermost ambient :class:`use_backend` context on this thread, else
    the ``$REPRO_BACKEND`` default the thread started from, else
    ``reference``.  Every consumer (the module-level kernel dispatchers
    and :class:`repro.runtime.InferenceSession`, which resolves once at
    construction) resolves through here, so adding a knob means adding
    it to this function or not at all.
    """
    if name is not None:
        return _resolve(name)
    return _state.backend


def get_backend(name: str | None = None):
    """The backend registered under *name*, or this thread's active one.

    Alias of :func:`resolve_backend` kept for by-name registry lookups.
    """
    return resolve_backend(name)


def backend_name() -> str:
    """Name of this thread's active backend."""
    active = _state.backend
    for name, backend in _BACKENDS.items():
        if backend is active:
            return name
    return type(active).__name__  # pragma: no cover - unregistered


class use_backend:
    """Scoped ambient backend selection for the calling thread.

    ::

        with use_backend("fused"):
            session.predict_batch(x)

    Applies at ``__enter__`` and restores the previous backend at
    ``__exit__`` (construction only validates the name).  This is
    precedence rule 2: it loses to an explicit ``backend=`` argument and
    beats ``$REPRO_BACKEND``.
    """

    def __init__(self, name: str):
        self._backend = _resolve(name)
        self._prev = None

    def __enter__(self):
        self._prev = _state.backend
        _state.backend = self._backend
        return self._backend

    def __exit__(self, *exc):
        _state.backend = self._prev
        return False
