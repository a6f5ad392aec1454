"""Batched inference runtime — the single supported serving path.

::

                          predict / predict_batch ──▶ InferenceSession
                                                          │
                                     ┌────────────────────┴────────────────────┐
                             reference backend                         any other backend
                            (oracle per domain)                   (fast executor per domain)
                        ModulePlan / executor.run          CompiledPlan (float / fixed point)

:class:`InferenceSession` wraps any model the repo can produce — a
float module from :func:`repro.models.build_model`, a
:class:`~repro.fixedpoint.QuantizedODENetExecutor`, or an FPGA
accelerator object — behind one ``predict`` / ``predict_batch`` API,
freezing parameters once and recording batch-size/latency statistics.
Batching concurrent single-sample requests is the serving layer's job
(:class:`repro.serve.Server`).  See ``docs/ARCHITECTURE.md`` §9.
"""

from .config import SessionConfig
from .engine import ModulePlan
from .session import InferenceSession
from .stats import SessionStats

__all__ = [
    "InferenceSession",
    "SessionConfig",
    "SessionStats",
    "ModulePlan",
]
