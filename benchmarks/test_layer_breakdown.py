"""Layer-by-layer time of the compiled plans at the serve geometry.

The compiled-plan slice of the ROADMAP perf ledger: for ``ode_botnet``
at ``tiny`` (the 32×32 geometry the ``steady``, ``saturate`` and
``hot_swap`` workloads serve) and at ``paper`` and ``paper-reduced``
(the ``full`` and ``reduced`` serve tiers' 96×96 geometry), batch 1
and 8, on the plan every compiled session binds — plus the ``int8``
and ``int4`` rungs' fixed-point plans at ``paper-reduced`` batch 8 — it
records the median milliseconds and share of the forward of

* every bound IR stage (``stem.conv`` … ``head.fc``), each stage timed
  on its own from the previous stage's real output;
* every step op inside each ODE block (``ssr1``, ``conv1.dw``,
  ``conv1.pw``, …, ``mhsa.attend``, ``euler``; in fixed point ``bn1``,
  …, ``mhsa``, ``euler``), summed over the block's Euler steps, with
  the block's state reset from its real input before each replay.

The one gate: within each rep, the stage times sum to within 15% of a
timed whole forward (the median of the per-rep ratios), so the table
accounts for the time it claims to break down.  The stages run one
after another on the calling thread's binding of the whole batch, so
the forward they are set against is that binding's own ``run`` — one
thread, unsplit.  Reps alternate which pass runs first, so neither side
always meets the colder caches.  Each point also records
``forward_split_ms``, the plan's own call, which splits a
``paper``/``paper-reduced`` batch of 2 or more across the cores
(``parts``), timed in the same reps.  Persists
``BENCH_layer_breakdown.json``.  MACs and simulated cycles per row are
out of scope here.
"""

import time

import numpy as np
import pytest

from _artifacts import record_bench
from conftest import show
from repro.compile import compile_model
from repro.models import PROFILES, build_model
from repro.serve import BUILTIN_TIERS

RNG = np.random.default_rng(0)

MODEL = "ode_botnet"
#: (profile, batch, fixed-point tier or None for the float plan)
POINTS = (("tiny", 1, None), ("tiny", 8, None), ("paper", 1, None),
          ("paper", 8, None), ("paper-reduced", 1, None),
          ("paper-reduced", 8, None), ("paper-reduced", 8, "int8"),
          ("paper-reduced", 8, "int4"))
REPS = {1: 21, 8: 7}
TOLERANCE = 0.15


def _median_ms(samples):
    return float(np.median(samples)) * 1e3


def _breakdown(profile, batch, tier):
    """One (profile, batch, tier) point: forward, stage and step-op
    rows."""
    model = build_model(MODEL, profile=profile, inference=True)
    plan = compile_model(
        model, None if tier is None else BUILTIN_TIERS[tier].formats()
    )
    stages = plan.stages
    size = PROFILES[profile]["input_size"]
    x = RNG.standard_normal((batch, 3, size, size)).astype(np.float32)
    plan(x)  # bind every part's geometry, allocate their arenas
    bound = plan._bound(x.shape, x.dtype)
    bound.run(x)  # and the whole batch's on this thread
    names = [stage.name for stage in stages]
    assert len(names) == len(bound.stages)
    reps = REPS[batch]

    # each rep times one whole forward and one stage-by-stage pass back
    # to back, alternating which goes first, so a burst of host load
    # lands on both sides of the gate alike; the gate compares the two
    # within a rep.  The split forward is timed last in each rep.
    forward = []
    split = []
    ratios = []
    stage_s = {name: [] for name in names}
    block_in = {}

    def forward_pass():
        t0 = time.perf_counter()
        bound.run(x)
        return time.perf_counter() - t0

    def stage_pass():
        h = x
        total = 0.0
        for name, (_, fn, is_block) in zip(names, bound.stages):
            if is_block:
                block_in[name] = np.array(h)
            t0 = time.perf_counter()
            h = fn(h)
            dt = time.perf_counter() - t0
            stage_s[name].append(dt)
            total += dt
        return total

    for rep in range(reps):
        if rep % 2:
            stage_sum = stage_pass()
            forward.append(forward_pass())
        else:
            forward.append(forward_pass())
            stage_sum = stage_pass()
        ratios.append(stage_sum / forward[-1])
        t0 = time.perf_counter()
        plan(x)
        split.append(time.perf_counter() - t0)

    op_s = {}
    by_name = {stage.name: stage for stage in stages}
    for name, ops in bound.block_ops.items():
        ts, _ = by_name[name].ir.time_grid()
        z = bound.arena.buffer(f"{name}.z", block_in[name].shape,
                               dtype=block_in[name].dtype)
        ops = tuple(ops)
        for _ in range(reps):
            np.copyto(z, block_in[name])
            acc = dict.fromkeys((op.tag for op in ops), 0.0)
            for i, t in enumerate(ts):
                for op in ops:
                    t0 = time.perf_counter()
                    op.fn(i, t)
                    acc[op.tag] += time.perf_counter() - t0
            for tag, s in acc.items():
                op_s.setdefault((name, tag), []).append(s)

    forward_ms = _median_ms(forward)
    stage_rows = [
        {"stage": name, "ms": _median_ms(stage_s[name]),
         "share": _median_ms(stage_s[name]) / forward_ms}
        for name in names
    ]
    op_rows = [
        {"block": block, "op": tag, "ms": _median_ms(s),
         "share": _median_ms(s) / forward_ms}
        for (block, tag), s in op_s.items()
    ]
    return {
        "profile": profile,
        "batch": batch,
        "tier": tier,
        "reps": reps,
        "forward_ms": forward_ms,
        "parts": plan._parts(batch),
        "forward_split_ms": _median_ms(split),
        "stage_sum_ms": sum(r["ms"] for r in stage_rows),
        "stage_ratio": float(np.median(ratios)),
        "stages": stage_rows,
        "ops": op_rows,
    }


def _render(point):
    lines = [
        f"{point['profile']} batch {point['batch']}"
        f"{' ' + point['tier'] if point['tier'] else ''}: forward "
        f"{point['forward_ms']:.2f} ms, stage sum "
        f"{point['stage_sum_ms']:.2f} ms, per-rep ratio "
        f"{point['stage_ratio']:.3f}; split forward "
        f"{point['forward_split_ms']:.2f} ms in {point['parts']} parts"
    ]
    lines += [f"  {r['stage']:<12s} {r['ms']:9.3f} ms  {r['share']:6.1%}"
              for r in point["stages"]]
    top = sorted(point["ops"], key=lambda r: -r["ms"])[:6]
    lines += [f"    {r['block']}.{r['op']:<14s} {r['ms']:9.3f} ms  "
              f"{r['share']:6.1%}" for r in top]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def layer_breakdown():
    points = [_breakdown(*point) for point in POINTS]
    show(f"compiled plan layer breakdown ({MODEL})",
         "\n".join(_render(p) for p in points))
    record_bench("layer_breakdown", {
        "model": MODEL,
        "tolerance": TOLERANCE,
        "points": points,
    })
    return points


@pytest.mark.parametrize(
    "profile,batch,tier", POINTS,
    ids=[f"{p}-b{b}" + (f"-{t}" if t else "") for p, b, t in POINTS],
)
def test_stage_rows_account_for_the_forward(layer_breakdown, profile,
                                            batch, tier):
    """Within a rep, the stage times sum to within 15% of a timed whole
    forward of the same one-thread binding (median over reps)."""
    point = next(p for p in layer_breakdown
                 if (p["profile"], p["batch"], p["tier"])
                 == (profile, batch, tier))
    gap = abs(point["stage_ratio"] - 1.0)
    assert gap <= TOLERANCE, (
        f"{profile} batch {batch} {tier or 'float'}: the stage times of "
        f"a rep sum to {point['stage_ratio']:.3f}x its whole forward "
        f"(median over {point['reps']} reps; {gap:.1%} apart, allowed "
        f"{TOLERANCE:.0%}); stage rows {point['stage_sum_ms']:.2f} ms vs "
        f"a {point['forward_ms']:.2f} ms forward"
    )
