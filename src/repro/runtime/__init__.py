"""Batched inference runtime — the single supported serving path.

::

    requests ──submit()──▶ MicroBatcher ──batches──▶ InferenceSession
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
:class:`MicroBatcher` turns concurrent single-sample submissions into
batched dispatches.  See ``docs/ARCHITECTURE.md`` §9.
"""

from .batcher import BatcherStopped, MicroBatcher
from .config import SessionConfig
from .engine import ModulePlan
from .session import InferenceSession
from .stats import SessionStats

__all__ = [
    "InferenceSession",
    "SessionConfig",
    "MicroBatcher",
    "BatcherStopped",
    "SessionStats",
    "ModulePlan",
]
