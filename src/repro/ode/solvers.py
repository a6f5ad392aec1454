"""Explicit ODE solvers operating on :class:`~repro.tensor.Tensor` state.

Fixed-grid methods (Euler, Midpoint, Heun, RK4) integrate with a given
number of steps; :class:`Dopri5` is an adaptive Runge-Kutta 4(5) pair
with a PI step-size controller.  All solvers build an autograd graph
through every *accepted* step, so models train discretize-then-optimize
— which for Euler is literally Eq. (14) of the paper, the shared-weight
ResBlock iteration.

The dynamics callable has signature ``f(t: float, z: Tensor) -> Tensor``.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..trace import current_tracer


def fixed_grid_loop(body, t0=0.0, t1=1.0, steps=8, *, solver="euler"):
    """Drive *body* over a fixed time grid — the one solver loop.

    ``body(i, t, h)`` performs step *i* at time *t* with step size *h*
    and owns the state (mutating it in place or in a closure); time is
    advanced by repeated addition, exactly as the autograd solvers do,
    so every consumer accumulates the same ``t`` sequence bit for bit.
    Emits one ``solver.step`` tracer span per step when a tracer is
    active, at zero cost otherwise.

    Two consumers share this driver: the autograd
    :class:`FixedGridSolver` family (Tensor state, which the float
    oracle runs) and :mod:`repro.compile`'s compiled plans (arena-buffer
    Euler) — so trace timelines and step arithmetic stay identical
    whichever execution path runs.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    h = (t1 - t0) / steps
    t = t0
    tracer = current_tracer()
    if tracer is None:
        for i in range(steps):
            body(i, t, h)
            t += h
        return
    for i in range(steps):
        with tracer.span("solver.step", step=i, solver=solver):
            body(i, t, h)
        t += h


class FixedGridSolver:
    """Base class: subclasses provide one-step updates of a given order."""

    name = "abstract"
    order = 0

    def step(self, f, t, z, h):  # pragma: no cover - abstract
        raise NotImplementedError

    def integrate(self, f, z0, t0=0.0, t1=1.0, steps=8):
        """Integrate from *t0* to *t1* in *steps* equal steps."""
        state = [z0]

        def body(i, t, h):
            state[0] = self.step(f, t, state[0], h)

        fixed_grid_loop(body, t0, t1, steps, solver=self.name)
        return state[0]


class Euler(FixedGridSolver):
    """Forward Euler — one function evaluation per step (Eq. 14).

    With C steps this is exactly C weight-shared ResBlocks, the
    configuration the paper deploys.
    """

    name = "euler"
    order = 1

    def step(self, f, t, z, h):
        return z + f(t, z) * h


class Midpoint(FixedGridSolver):
    """Explicit midpoint method (RK2)."""

    name = "midpoint"
    order = 2

    def step(self, f, t, z, h):
        k1 = f(t, z)
        k2 = f(t + 0.5 * h, z + k1 * (0.5 * h))
        return z + k2 * h


class Heun(FixedGridSolver):
    """Heun's method (explicit trapezoidal, RK2)."""

    name = "heun"
    order = 2

    def step(self, f, t, z, h):
        k1 = f(t, z)
        k2 = f(t + h, z + k1 * h)
        return z + (k1 + k2) * (0.5 * h)


class RK4(FixedGridSolver):
    """Classic fourth-order Runge-Kutta."""

    name = "rk4"
    order = 4

    def step(self, f, t, z, h):
        k1 = f(t, z)
        k2 = f(t + 0.5 * h, z + k1 * (0.5 * h))
        k3 = f(t + 0.5 * h, z + k2 * (0.5 * h))
        k4 = f(t + h, z + k3 * h)
        return z + (k1 + (k2 + k3) * 2.0 + k4) * (h / 6.0)


class EmbeddedRKSolver:
    """Adaptive embedded Runge-Kutta pair with a PI step controller.

    Subclasses define the Butcher tableau (``C``, ``A``, ``B_HIGH``,
    ``B_LOW``) and the method order.  Error control runs on raw numpy
    values (``.data``); the autograd graph contains only the accepted
    steps, mirroring torchdiffeq's non-adjoint mode.
    """

    name = "embedded-rk"
    order = 0
    C: np.ndarray
    A: list
    B_HIGH: np.ndarray
    B_LOW: np.ndarray

    def __init__(self, rtol=1e-3, atol=1e-4, max_steps=1000, safety=0.9):
        self.rtol = rtol
        self.atol = atol
        self.max_steps = max_steps
        self.safety = safety
        self.stats = {"accepted": 0, "rejected": 0, "nfe": 0}

    def _error_norm(self, err, z_new_data, z_data):
        scale = self.atol + self.rtol * np.maximum(
            np.abs(z_data), np.abs(z_new_data)
        )
        return float(np.sqrt(np.mean((err / scale) ** 2)))

    def integrate(self, f, z0, t0=0.0, t1=1.0, steps=None):
        """Integrate adaptively; *steps* sets the initial step count hint."""
        self.stats = {"accepted": 0, "rejected": 0, "nfe": 0}
        h = (t1 - t0) / (steps or 10)
        t = t0
        z = z0
        iterations = 0
        tracer = current_tracer()
        while t < t1 - 1e-12:
            if iterations >= self.max_steps:
                raise RuntimeError(
                    f"{self.name} exceeded max_steps={self.max_steps} "
                    f"(t={t:.4f}, target {t1})"
                )
            iterations += 1
            if tracer is None:
                t, z, h = self._attempt_step(f, t, z, h, t1)
            else:
                with tracer.span(
                    "solver.step", step=iterations - 1, solver=self.name,
                ) as span:
                    accepted_before = self.stats["accepted"]
                    t, z, h = self._attempt_step(f, t, z, h, t1)
                    span.set(
                        accepted=self.stats["accepted"] > accepted_before
                    )
        return z

    def _attempt_step(self, f, t, z, h, t1):
        """One attempted (accepted or rejected) step; returns the new
        ``(t, z, h)`` and updates ``self.stats`` in place."""
        h = min(h, t1 - t)
        ks = []
        for i in range(len(self.C)):
            ti = t + self.C[i] * h
            zi = z
            for j, aij in enumerate(self.A[i]):
                if aij != 0.0:
                    zi = zi + ks[j] * (aij * h)
            ks.append(f(ti, zi))
            self.stats["nfe"] += 1
        z_high = z
        for bi, ki in zip(self.B_HIGH, ks):
            if bi != 0.0:
                z_high = z_high + ki * (bi * h)
        err = np.zeros_like(z.data)
        for bh, bl, ki in zip(self.B_HIGH, self.B_LOW, ks):
            diff = bh - bl
            if diff != 0.0:
                err = err + diff * h * ki.data
        norm = self._error_norm(err, z_high.data, z.data)
        if norm <= 1.0:
            t += h
            z = z_high
            self.stats["accepted"] += 1
        else:
            self.stats["rejected"] += 1
        # PI-style step update with clamped growth.
        factor = self.safety * (1.0 / max(norm, 1e-10)) ** (1.0 / self.order)
        h = h * float(np.clip(factor, 0.2, 5.0))
        return t, z, h


class Dopri5(EmbeddedRKSolver):
    """Dormand-Prince 4(5) — torchdiffeq's default adaptive solver."""

    name = "dopri5"
    order = 5
    C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
    A = [
        [],
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
    B_HIGH = np.array(
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
    )
    B_LOW = np.array(
        [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
         187 / 2100, 1 / 40]
    )


class Bosh3(EmbeddedRKSolver):
    """Bogacki-Shampine 2(3) — cheaper adaptive pair (4 stages/step),
    useful when the dynamics are cheap relative to step control."""

    name = "bosh3"
    order = 3
    C = np.array([0.0, 1 / 2, 3 / 4, 1.0])
    A = [
        [],
        [1 / 2],
        [0.0, 3 / 4],
        [2 / 9, 1 / 3, 4 / 9],
    ]
    B_HIGH = np.array([2 / 9, 1 / 3, 4 / 9, 0.0])
    B_LOW = np.array([7 / 24, 1 / 4, 1 / 3, 1 / 8])


_REGISTRY = {
    "euler": Euler,
    "midpoint": Midpoint,
    "heun": Heun,
    "rk4": RK4,
    "dopri5": Dopri5,
    "bosh3": Bosh3,
}


def available_solvers():
    """Names of registered solvers."""
    return sorted(_REGISTRY)


def get_solver(name, **kwargs):
    """Instantiate a solver by name (e.g. ``get_solver('euler')``)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; available: {available_solvers()}"
        ) from None
    return cls(**kwargs)


def odeint(f, z0, t0=0.0, t1=1.0, steps=8, method="euler", **solver_kwargs):
    """One-shot functional interface: integrate *f* from *t0* to *t1*.

    ``f`` takes (t, Tensor) and returns a Tensor; ``z0`` may be a Tensor
    or array-like.
    """
    if not isinstance(z0, Tensor):
        z0 = Tensor(z0)
    solver = get_solver(method, **solver_kwargs)
    return solver.integrate(f, z0, t0=t0, t1=t1, steps=steps)
