"""Correctness oracle: expected rows computed off the timed path.

Expected outputs come from the reference implementations, never from
the plans under test: the ``reference`` kernel backend for float
answers (full tier, ``reduced`` rung, every hot-swap generation) and
the scalar :class:`~repro.fixedpoint.QuantizedODENetExecutor` path for
the fixed-point rungs.  Each served row is then matched against them:
float answers within :data:`FLOAT_RTOL` of the expected row's largest
magnitude, fixed-point answers bit-exactly.
"""

from __future__ import annotations

import numpy as np

#: float answers must agree with the reference to this relative error
FLOAT_RTOL = 1e-6


def row_matches(row, expected, exact) -> bool:
    """Whether *row* is the answer *expected* (see module docstring)."""
    row = np.asarray(row)
    if row.shape != expected.shape:
        return False
    if exact:
        return bool(np.array_equal(row, expected))
    scale = float(np.max(np.abs(expected))) or 1.0
    return bool(np.max(np.abs(row - expected)) <= FLOAT_RTOL * scale)


class Oracle:
    """Expected rows per answer kind, one row per sample index.

    ``expected`` maps a kind — a tier name, or a hot-swap generation
    number — to an array of rows indexed by sample; kinds in ``exact``
    must match bit-exactly.
    """

    def __init__(self, expected, exact=()):
        self.expected = {k: np.asarray(v) for k, v in expected.items()}
        self.exact = frozenset(exact)

    def matching(self, sample, row) -> list:
        """Every kind whose expected row for *sample* equals *row*."""
        return [
            kind for kind, rows in self.expected.items()
            if row_matches(row, rows[sample], kind in self.exact)
        ]


def classify_swap(matching, lo, hi, overlapped) -> str:
    """Verdict on one hot-swap read.

    *matching* are the generations the row equals; the read may answer
    from any generation in ``[lo, hi]`` — *lo* the newest generation
    whose ``publish`` returned before the submit, *hi* the newest whose
    ``publish`` started before the answer arrived.  Returns ``"ok"``,
    ``"stale"`` (only older generations match), ``"torn"`` (no
    generation matches, and the read overlapped a publish, which the
    publisher's contract allows: in-flight requests read whichever
    arrays they see) or ``"wrong"``.
    """
    if any(lo <= g <= hi for g in matching):
        return "ok"
    if matching:
        return "stale" if max(matching) < lo else "wrong"
    return "torn" if overlapped else "wrong"


def expected_tier_rows(model, profile, state, samples, tiers):
    """Reference rows for the full tier and each named ladder rung."""
    from repro.fixedpoint import QuantizedODENetExecutor
    from repro.models import build_model
    from repro.runtime import InferenceSession, SessionConfig
    from repro.serve import resolve_ladder

    config = SessionConfig(backend="reference")
    net = build_model(model, profile=profile, pretrained_state=state,
                      inference=True)
    rows = {"full": InferenceSession(net, config=config)
            .predict_batch(samples)}
    exact = set()
    for spec in resolve_ladder(tiers) if tiers else ():
        net = spec.build_model(model, profile, state=state)
        if spec.is_quantized:
            net = QuantizedODENetExecutor(net, *spec.formats())
            exact.add(spec.name)
        rows[spec.name] = InferenceSession(net, config=config) \
            .predict_batch(samples)
    return Oracle(rows, exact)


def expected_generation_rows(model, profile, states, samples):
    """Reference rows for every hot-swap generation (keyed 0, 1, ...)."""
    from repro.models import build_model
    from repro.runtime import InferenceSession, SessionConfig

    config = SessionConfig(backend="reference")
    rows = {}
    for g, state in enumerate(states):
        net = build_model(model, profile=profile, pretrained_state=state,
                          inference=True)
        rows[g] = InferenceSession(net, config=config).predict_batch(samples)
    return Oracle(rows)


__all__ = [
    "FLOAT_RTOL",
    "row_matches",
    "Oracle",
    "classify_swap",
    "expected_tier_rows",
    "expected_generation_rows",
]
