"""Persisted benchmark artifacts: ``BENCH_<name>.json`` at repo root.

Benchmarks print their tables (visible with ``pytest -s``), which is
ephemeral; CI also wants machine-readable numbers it can upload and
diff across commits.  :func:`record_bench` writes one JSON file per
benchmark at the repository root — ``BENCH_compile_speedup.json``,
``BENCH_kernel_dispatch.json``, ... — with a small stable envelope
(schema version, machine fingerprint, numpy version) around the
benchmark's own payload.  Files are written atomically and overwritten
on re-run, so the repo root always holds the latest numbers for this
checkout.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform

import numpy as np

BENCH_SCHEMA_VERSION = 1

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def blas_threads():
    """The thread count the loaded OpenBLAS runs with, asked of the
    library itself; ``None`` where it cannot be found (no
    ``/proc/self/maps``, or another BLAS)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return int(get())
    return None


def bench_path(name: str) -> str:
    """Repo-root path of a benchmark artifact."""
    return os.path.join(_ROOT, f"BENCH_{name}.json")


def record_bench(name: str, payload: dict, *,
                 gate_skip_reason: str | None = None) -> str:
    """Persist *payload* as ``BENCH_<name>.json``; returns the path.

    Benchmarks with a conditional hard gate set ``gate_active`` in
    their payload.  When the gate is off the artifact must say *why*
    (for CI readers diffing numbers across runner shapes), so a
    ``gate_skip_reason`` is required exactly when ``gate_active`` is
    false — passing one alongside an active gate, or omitting it for
    an inactive one, is an error.
    """
    gate_active = payload.get("gate_active")
    if gate_active is False and not gate_skip_reason:
        raise ValueError(
            f"bench {name!r}: gate_active is false but no "
            f"gate_skip_reason was given"
        )
    if gate_active is not False and gate_skip_reason:
        raise ValueError(
            f"bench {name!r}: gate_skip_reason given but the gate "
            f"is active"
        )
    entry = {
        "schema": BENCH_SCHEMA_VERSION,
        "bench": name,
        "machine": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "payload": payload,
    }
    if gate_skip_reason:
        entry["gate_skip_reason"] = str(gate_skip_reason)
    path = bench_path(name)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)
    return path
