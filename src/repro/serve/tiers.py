"""The degrade ladder: ordered quality tiers for overload traffic.

Under the ``degrade`` shedding policy the admission queue no longer has
a single "degraded" flag — it has an **ordered ladder** of quality
tiers, each one cheaper (and lower-fidelity) than the last.  As the
queue fills past ``capacity``, requests are admitted into successively
deeper tiers, trading accuracy for drain rate in steps instead of one
cliff:

``reduced``
    the PR 4 rung — the reduced-ODE-step profile
    (:func:`repro.models.reduced_profile`), same float weights, roughly
    half the solver compute.
``int8``
    the reduced profile executed in 8(4)-8(4) fixed point by a
    :class:`~repro.fixedpoint.QuantizedPlan` — integer arithmetic,
    narrow accumulators, fastest software path the repo has for the
    model.
``int4``
    the same plan at 4(2)-4(2) — the paper's collapse-edge format,
    kept as the last-resort rung because it is the cheapest thing that
    still answers.

Every tier shares the primary session's weight set: tier sessions are
built from the same ``state_dict`` and the quantized tiers derive their
integer weights from it exactly once per replica (the plan's
``version`` counter tracks re-derivations after
:meth:`~repro.serve.Replica.refresh`).  Pools built on a
:class:`~repro.cluster.SharedWeightStore` adopt each tier's float model
onto the shared mapping, so a hot weight swap reaches every rung; pools
without a store move tiers via :meth:`~repro.serve.Replica.load_weights`
before the refresh.

:data:`DEFAULT_LADDER` is the three-rung order above.  A ladder is
always *ordered*: earlier tiers absorb overload first, deeper tiers
engage only as the queue keeps growing.  Each active tier is statically
certified at :meth:`~repro.serve.Server.build` time (see
:mod:`repro.serve.certify`): the overflow checker walks the tier's
model/format pair and refuses ladders whose accumulators would not fit
a 48-bit DSP cascade.
"""

from __future__ import annotations

__all__ = [
    "TierSpec",
    "BUILTIN_TIERS",
    "DEFAULT_LADDER",
    "resolve_ladder",
]


class TierSpec:
    """One rung of the degrade ladder.

    Parameters
    ----------
    name:
        the tier's stable identifier (used in counters, span
        attributes, metrics and the replica wire protocol).
    qformat:
        ``None`` for a float tier, otherwise a paper-notation format
        pair string (``"8(4)-8(4)"``) the tier's
        :class:`~repro.fixedpoint.QuantizedODENetExecutor` runs in.
    reduced:
        execute on the reduced-ODE-step profile (every builtin tier
        does — the ladder is monotone, so the quantized rungs stack on
        top of the step reduction rather than replacing it).
    description:
        one line for reports.
    """

    __slots__ = ("name", "qformat", "reduced", "description")

    def __init__(self, name, qformat=None, reduced=True, description=""):
        self.name = str(name)
        self.qformat = None if qformat is None else str(qformat)
        self.reduced = bool(reduced)
        self.description = str(description)

    @property
    def is_quantized(self) -> bool:
        """True when this tier runs in fixed point."""
        return self.qformat is not None

    def formats(self):
        """The tier's ``(feature_fmt, param_fmt)`` pair (quantized only)."""
        from ..fixedpoint import parse_format_pair

        if self.qformat is None:
            raise ValueError(f"tier {self.name!r} is not quantized")
        return parse_format_pair(self.qformat)

    # ------------------------------------------------------------------
    def build_model(self, model, profile, *, seed=0, state=None):
        """Instantiate the (eval-mode) float model this tier executes."""
        from ..models import build_model, reduced_profile

        use_profile = reduced_profile(profile) if self.reduced else profile
        return build_model(model, profile=use_profile, seed=seed,
                           pretrained_state=state, inference=True)

    def build_session(self, model, profile, *, seed=0, state=None,
                      config=None, stats=None, store=None):
        """Build this tier's :class:`~repro.runtime.InferenceSession`.

        The session shares *state* (the primary session's weight set)
        and *stats*.  Quantized tiers bind a scale-folded
        :class:`~repro.fixedpoint.QuantizedPlan` directly, whatever the
        config's kernel backend — the integer weights are derived
        exactly once here.

        With a *store* (a :class:`repro.cluster.SharedWeightStore`) the
        tier's float model is rebound onto the shared mapping before
        the session packs its plan — the reduced profile keeps every
        parameter shape, so the tier literally shares the primary's
        arrays and a hot weight swap (in-place store write + refresh)
        moves this tier too; quantized tiers re-derive their integer
        weights from the updated floats on
        :meth:`~repro.serve.Replica.refresh`.
        """
        from ..fixedpoint import QuantizedPlan
        from ..runtime import InferenceSession

        net = self.build_model(model, profile, seed=seed, state=state)
        if store is not None:
            store.adopt(net)
        if self.is_quantized:
            net = QuantizedPlan(net, *self.formats())
        return InferenceSession(net, stats=stats, config=config)

    def __repr__(self):
        fmt = f", qformat={self.qformat!r}" if self.qformat else ""
        return f"TierSpec({self.name!r}{fmt})"


#: the tiers the serving layer knows how to build from the registry
BUILTIN_TIERS = {
    "reduced": TierSpec(
        "reduced",
        description="reduced-ODE-step profile, float weights",
    ),
    "int8": TierSpec(
        "int8", qformat="8(4)-8(4)",
        description="reduced profile in 8(4)-8(4) fixed point",
    ),
    "int4": TierSpec(
        "int4", qformat="4(2)-4(2)",
        description="reduced profile in 4(2)-4(2) fixed point",
    ),
}

#: the default three-rung ladder, shallowest degradation first
DEFAULT_LADDER = ("reduced", "int8", "int4")


def resolve_ladder(tiers):
    """Normalise *tiers* into an ordered tuple of :class:`TierSpec`.

    Accepts ``None`` (the :data:`DEFAULT_LADDER`), a comma-separated
    string, or an iterable mixing tier names and :class:`TierSpec`
    instances.  Order is preserved — it *is* the ladder.
    """
    if tiers is None:
        tiers = DEFAULT_LADDER
    if isinstance(tiers, str):
        tiers = [t.strip() for t in tiers.split(",") if t.strip()]
    ladder = []
    for tier in tiers:
        if isinstance(tier, TierSpec):
            ladder.append(tier)
        elif tier in BUILTIN_TIERS:
            ladder.append(BUILTIN_TIERS[tier])
        else:
            raise ValueError(
                f"unknown tier {tier!r}; builtins are "
                f"{sorted(BUILTIN_TIERS)} (or pass a TierSpec)"
            )
    names = [t.name for t in ladder]
    if len(set(names)) != len(names):
        raise ValueError(f"tier names must be unique, got {names}")
    if not ladder:
        raise ValueError("a degrade ladder needs at least one tier")
    return tuple(ladder)
