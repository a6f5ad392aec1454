"""The compiled execution plan: binding lowered IR to arena buffers.

:class:`CompiledPlan` is the fast executor an
:class:`~repro.runtime.InferenceSession` binds for Euler ODENets under
any kernel backend but ``reference`` — for a float module, and, lowered
by :func:`~repro.compile.ir.lower_fixed`, for a
:class:`~repro.fixedpoint.QuantizedODENetExecutor`.  Compile time
(:func:`compile_model`) lowers the model once via
:mod:`repro.compile.ir`, is geometry-free and touches no disk; the
first call with a concrete input shape *binds* the plan — takes its
buffers as batch-prefix views of the calling thread's storage (an
:class:`~repro.compile.arena.Arena`), builds the alias-checked step
program and validates it.  The batch-independent arrays a binding
reads — every Euler step's additive time plane, the GEMM weight
layouts, the tiled depthwise kernels — the plan derives once per stage
and input size and shares, read-only, across batch sizes and threads.
Bindings are cached per thread and per input shape, so steady-state
calls run the Euler loop entirely out of preallocated buffers (zero
per-step numpy allocation; see :mod:`repro.compile.steps`).  A thread's
storage is shared by every plan that binds on it and grows only when a
larger batch first arrives; a binding made before a growth is made
again on its next call.

Activations run channels-last.  The float stem conv reads the NCHW
batch into zero-bordered stride-phase planes and is one batched GEMM
over their contiguous wide rows, contracted in the reference's
(C, KH, KW) order; it hands on a channels-last view of its output.
From the stem's scale-shift-ReLU to the head every stage reads and
writes (N, H, W, C) arena buffers, so each pointwise conv is one flat
(N·H·W, C) GEMM, each strided downsample one im2col GEMM, each
depthwise conv one einsum over contiguous OW·C output rows, and the
MHSA token view a plain reshape.
A (scale-shift-)ReLU feeding a padded conv inside the Euler loop
writes straight into the interior of that conv's zero-bordered canvas.
The fixed-point plan binds the same ops (its stem is a channels-last
im2col GEMM after the input cast) and closes every rounding site with a
:mod:`~repro.compile.steps` epilogue.

When kernel instrumentation is active (inside ``kernels.collect``,
which a traced session dispatch also enters for its ``kernel.*``
spans), every step op routes through ``kernels.record_dispatch`` under
its nearest kernel name (``conv2d``, ``matmul``, ``batchnorm2d``, ...),
so per-kernel counters and spans keep working on the compiled plan.

A call splits a batch whose parts each carry at least
:data:`SPLIT_MIN_MACS` — every ``paper``/``paper-reduced`` batch of 2
or more, no ``tiny``/``small`` batch of up to 8 — into contiguous row
ranges, one per usable core that the loaded BLAS's threads leave free:
the calling thread runs the first, a process-wide pool of helper
threads (made on the first split, replaced in a forked child) the
others, each on its own per-(thread, shape) binding, under the caller's
tracer, parent span and kernel collectors.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

from .. import kernels
from ..fixedpoint import div_round_half_even
from ..kernels import shapes
from ..kernels.blas import blas_threads
from ..ode.solvers import fixed_grid_loop
from ..trace import current_span_id, current_tracer
from . import steps
from .arena import Arena, OpList
from .ir import CompileError, lower, lower_fixed, unsupported_reason

_F64 = np.float64

#: the fewest MACs one part of a split batch carries: about 10 ms of
#: work at the plans' ~3 GMAC/s, against ~16 µs to hand a part to an
#: idle helper thread and take its result back (the median round trip
#: of an empty part on a 2-vCPU x86 host), so the hand-off stays under
#: 1%.  A ``tiny`` (0.42 MMAC a sample) or ``small`` (2.9) batch of up
#: to 8 never splits; a ``paper`` (167) or ``paper-reduced`` (105)
#: batch of 2 or more does.
SPLIT_MIN_MACS = 32_000_000

_helpers = None
_helpers_lock = threading.Lock()


def _usable_cores():
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _helper_pool():
    """The process's pool of ``cores − 1`` helper threads that run the
    handed-off parts of split batches, made on first use."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(
                max_workers=max(1, _usable_cores() - 1),
                thread_name_prefix="repro-plan-split",
            )
        return _helpers


def _forget_helpers():
    """In a forked child: the parent's helper threads do not exist
    here, so the first split makes a pool of the child's own."""
    global _helpers, _helpers_lock
    _helpers = None
    _helpers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _gemm_weight(weight, out_scale=None):
    """A (F, C, KH, KW) conv weight as the (KH·KW·C, F) right operand of
    a channels-last im2col GEMM, each output column scaled by
    *out_scale* (a folded per-channel affine) when given."""
    f = weight.shape[0]
    if out_scale is not None:
        weight = weight * out_scale.reshape(-1, 1, 1, 1)
    return np.ascontiguousarray(weight.transpose(2, 3, 1, 0).reshape(-1, f))


def _depthwise_row_weight(dw, ow):
    """A (C, 1, KH, KW) depthwise kernel as the (KH, KW, OW·C) operand of
    :func:`steps.depthwise`: the channel vector tiled once per output
    column, matching the channels-last order of an output row."""
    return np.tile(dw[:, 0].transpose(1, 2, 0), (1, 1, ow))


def _bind_fconv(name, n, c, h, w, spec, arena, const, dtype):
    """Bind a strided conv (+ folded BN bias, + ReLU) as one arena
    im2col GEMM over ``(N·OH·OW, KH·KW·C)``.

    Canvas, column buffer and output are persistent channels-last
    arena storage with their views built once, so a call is
    copy/copy/GEMM with zero allocation, and the GEMM writes the
    (N, OH, OW, F) output directly.  ``dtype`` is the promoted
    input×weight dtype the reference path computes this conv in.  A
    fixed-point conv (``spec.site`` set) closes its site instead of the
    ReLU: its BN is a site of its own.
    """
    f, _, kh, kw = spec.weight.shape
    (sh, sw), (ph, pw) = spec.stride, spec.padding
    canvas = arena.buffer(f"{name}.canvas", (n, h + 2 * ph, w + 2 * pw, c),
                          dtype=dtype, fill=0, window=(h, w, ph, pw))
    interior = canvas[:, ph : ph + h, pw : pw + w, :]
    patches = shapes.as_strided_patches_nhwc(canvas, kh, kw, sh, sw)
    oh, ow = patches.shape[1:3]
    colbuf = arena.buffer(f"{name}.cols", patches.shape, dtype=dtype)
    col2d = colbuf.reshape(n * oh * ow, kh * kw * c)
    out = arena.buffer(f"{name}.out", (n, oh, ow, f), dtype=dtype)
    out2d = out.reshape(n * oh * ow, f)
    wmat_t = const((name, np.dtype(dtype).str), lambda: _gemm_weight(
        spec.weight).astype(dtype, copy=False))
    bias = None if spec.bias is None else spec.bias.reshape(-1)
    site = spec.site

    def fn(x):
        np.copyto(interior, x)
        np.copyto(colbuf, patches)
        np.matmul(col2d, wmat_t, out=out2d)
        if bias is not None:
            np.add(out, bias, out=out)
        if site is None:
            np.maximum(out, 0.0, out=out)
        else:
            steps.round_site(out, site.lo, site.hi)
        return out

    return fn, (oh, ow, f)


def _bind_stem_conv(name, n, c, h, w, spec, arena, dtype):
    """Bind the float stem conv as one batched arena GEMM over polyphase
    wide rows, contracting K in the (C, KH, KW) order of the reference.

    The zero-padded NCHW input is split into its stride×stride phase
    planes, (N, C, SH, SW, ⌈Hp/SH⌉ + 1, QW) with QW = ⌈Wp/SW⌉; the
    spare row lets the last run of the last tap read past the plane's
    end.  Every tap of a phase then reads one run of OH·QW consecutive
    elements of its plane (:func:`shapes.as_strided_phase_rows`), so a
    call is one strided copy of the input into each plane's interior,
    one copy of each phase's runs into the (N, C·KH·KW, OH·QW) column
    buffer, and one matmul of the (F, C·KH·KW) weight over the N
    per-sample column matrices, with zero allocation.  The QW − OW wide
    columns past each output row are computed and dropped: the stage
    hands on the (N, OH, OW, F) channels-last view of the
    (N, F, OH, QW) output.  ``dtype`` is the promoted input×weight
    dtype the reference path computes this conv in.
    """
    if spec.groups != 1:
        raise CompileError(f"{name}: a grouped stem conv does not bind")
    f, _, kh, kw = spec.weight.shape
    (sh, sw), (ph, pw) = spec.stride, spec.padding
    oh, ow = shapes.conv_out_size(h, w, kh, kw, sh, sw, ph, pw)
    qw = -(-(w + 2 * pw) // sw)
    planes = arena.buffer(
        f"{name}.phases", (n, c, sh, sw, -(-(h + 2 * ph) // sh) + 1, qw),
        dtype=dtype, fill=0, window=(h, w, ph, pw, sh, sw),
    )
    # plane (a, b) row r holds padded row a + SH·r: its interior starts
    # at the first r that lands on input row a + SH·r − PH >= 0
    fills = []
    for a in range(sh):
        r0 = -(-max(ph - a, 0) // sh)
        y0 = a + sh * r0 - ph
        rows = len(range(y0, h, sh))
        for b in range(sw):
            q0 = -(-max(pw - b, 0) // sw)
            x0 = b + sw * q0 - pw
            cols = len(range(x0, w, sw))
            fills.append((planes[:, :, a, b, r0 : r0 + rows, q0 : q0 + cols],
                          y0, x0))
    colbuf = arena.buffer(f"{name}.cols", (n, c, kh, kw, oh * qw),
                          dtype=dtype)
    gathers = [
        (colbuf[:, :, a::sh, b::sw],
         shapes.as_strided_phase_rows(planes, a, b, kh, kw, oh))
        for a in range(sh) for b in range(sw)
    ]
    col3 = colbuf.reshape(n, c * kh * kw, oh * qw)
    out = arena.buffer(f"{name}.out", (n, f, oh, qw), dtype=dtype)
    out3 = out.reshape(n, f, oh * qw)
    wmat = spec.weight.reshape(f, -1).astype(dtype)
    bias = spec.bias
    handed_on = out[:, :, :, :ow].transpose(0, 2, 3, 1)

    def fn(x):
        for interior, y0, x0 in fills:
            np.copyto(interior, x[:, :, y0::sh, x0::sw])
        for dst, runs in gathers:
            np.copyto(dst, runs)
        np.matmul(wmat, col3, out=out3)
        if bias is not None:
            np.add(out, bias, out=out)
        return handed_on

    return fn, (oh, ow, f)


def _time_planes(tc, h, w):
    """Precompute the additive time map of a time-concat conv.

    Returns channels-last ``(m, bias)``: ``m`` is (1, H', W', F) — or
    (F,) for the spatially-constant pointwise case — and ``bias`` is
    (F,) or None, such that the conv's time contribution at time ``t``
    is ``t * m + bias``.
    """
    impl = kernels.get_backend("fused")
    if tc.kind == "dsc":
        ones = np.ones((1, 1, h, w), dtype=_F64)
        mdw = impl.conv2d(ones, tc.dw_t, stride=tc.stride, padding=tc.padding)
        m = mdw[:, 0, :, :, None] * tc.pw_t
    elif tc.is_pointwise:
        m = tc.w_t[:, 0, 0, 0]
    else:
        ones = np.ones((1, 1, h, w), dtype=_F64)
        m = impl.conv2d(ones, tc.w_t, stride=tc.stride,
                        padding=tc.padding).transpose(0, 2, 3, 1)
    return np.ascontiguousarray(m, dtype=_F64), tc.bias


def _step_planes(m, bias, ts, dtype=_F64):
    """The additive plane ``t_i * m (+ bias)`` of every Euler step,
    precomputed at bind time."""
    planes = []
    for t in ts:
        p = t * m
        if bias is not None:
            p = p + bias
        planes.append(np.ascontiguousarray(p, dtype=dtype))
    return planes


def _fixed_step_planes(tc, h, w, ts):
    """Every Euler step's additive plane of a fixed-point time conv, *ts*
    the t channel's raws: ``t_i · M + bias`` as in the float plan, but
    ``site(t_i · M_dw) ⊗ pw_t + bias`` for a depthwise-separable conv,
    whose t channel passes its own depthwise site first.  A plane is an
    exact partial sum of the site's accumulator."""
    if tc.kind != "dsc":
        m, bias = _time_planes(tc, h, w)
        return _step_planes(m, bias, ts, tc.dtype)
    ones = np.ones((1, 1, h, w), dtype=_F64)
    mdw = kernels.get_backend("fused").conv2d(
        ones, tc.dw_t.astype(_F64), stride=tc.stride, padding=tc.padding,
    )[:, 0, :, :, None]
    site = tc.site
    planes = []
    for t in ts:
        p = np.clip(np.rint(t * mdw), site.lo, site.hi) * tc.pw_t
        if tc.bias is not None:
            p = p + tc.bias
        planes.append(np.ascontiguousarray(p, dtype=tc.dtype))
    return planes


def _time_conv_constants(tc, h, w, ts, out_scale, out_shift):
    """A time conv's batch-independent arrays at input size (H, W): its
    Euler steps' additive planes, its GEMM weight and, for a
    depthwise-separable conv, its tiled depthwise rows (else None), with
    ``out_scale`` / ``out_shift`` folded in.  Read-only: every binding
    of the plan shares them, on any thread."""
    sc = None
    if tc.site is not None:
        planes = _fixed_step_planes(tc, h, w, ts)
    else:
        m, bias = _time_planes(tc, h, w)
        if out_scale is not None:
            sc = np.asarray(out_scale, dtype=_F64).reshape(-1)
            m = np.ascontiguousarray(m * sc)
            if bias is not None:
                bias = np.ascontiguousarray(bias * sc)
        if out_shift is not None:
            shift = np.asarray(out_shift, dtype=_F64).reshape(-1)
            bias = shift if bias is None else np.ascontiguousarray(
                bias + shift
            )
        planes = _step_planes(m, bias, ts)
    w_rows = None
    if tc.kind == "dsc":
        kh, kw = tc.dw_x.shape[2:]
        (sh, sw), (ph, pw) = tc.stride, tc.padding
        _, ow = shapes.conv_out_size(h, w, kh, kw, sh, sw, ph, pw)
        w_rows = _depthwise_row_weight(tc.dw_x, ow)
        wmat_t = _gemm_weight(tc.pw_x[:, :, None, None], sc)
    else:
        wmat_t = _gemm_weight(tc.w_x, sc)
    for array in (*planes, wmat_t, w_rows):
        if array is not None:
            array.flags.writeable = False
    return planes, wmat_t, w_rows


class _BoundTimeConv:
    """A time-concat conv bound to geometry + arena, channels-last.

    ``src`` is the (N, H, W, C) buffer the producing op writes into and
    ``src_name`` the arena buffer it lives in: for a padded k×k conv it
    is the interior of the zero-bordered canvas itself, so the
    preceding (scale-shift-)ReLU fills the canvas with no separate copy.
    :meth:`add_ops` registers the conv as step ops whose every view
    (the row or patch view of the canvas, the flat GEMM aliases of the
    arena buffers) is precomputed, so the Euler loop does no per-step
    slicing or reshaping.  The depthwise half of a depthwise-separable
    conv reads the canvas as (N, OH, KH, KW, OW·C) output rows against
    its (KH, KW, C) kernel tiled OW times.  The planes, GEMM weight and
    tiled kernel are the plan's (:func:`_time_conv_constants`), derived
    once per input size.  Buffers take the conv's ``dtype``; a
    fixed-point conv closes each of its sites with
    :func:`steps.round_site`.

    ``out_scale`` / ``out_shift`` fold a per-output-channel affine —
    a following BN's scale/shift, or the Euler step size ``h`` — into
    the conv's weights and additive time plane at bind time, turning
    the downstream op into a bare ReLU or a bare state add (float
    only: folding would move a fixed-point rounding site).
    """

    def __init__(self, tc, prefix, n, h, w, arena, const, ts,
                 out_scale=None, out_shift=None):
        c = tc.in_channels
        dt = tc.dtype
        self.planes, self.wmat_t, self.w_rows = const(
            (prefix, h, w), lambda: _time_conv_constants(
                tc, h, w, ts, out_scale, out_shift))
        self.prefix = prefix
        self.site = tc.site
        self.kind = "pointwise" if tc.is_pointwise else tc.kind
        if self.kind == "pointwise":
            self.src_name = f"{prefix}.in"
            self.src = arena.buffer(self.src_name, (n, h, w, c), dtype=dt)
            self.rows = n * h * w
        else:
            weight = tc.dw_x if self.kind == "dsc" else tc.w_x
            kh, kw = weight.shape[2:]
            (sh, sw), (ph, pw) = tc.stride, tc.padding
            self.src_name = f"{prefix}.canvas"
            canvas = arena.buffer(
                self.src_name, (n, h + 2 * ph, w + 2 * pw, c), dtype=dt,
                fill=0, window=(h, w, ph, pw),
            )
            self.src = canvas[:, ph : ph + h, pw : pw + w, :]
            oh, ow = shapes.conv_out_size(h, w, kh, kw, sh, sw, ph, pw)
            self.rows = n * oh * ow
        if self.kind == "dsc":  # stride 1: the Euler update adds f to z
            self.canvas_rows = shapes.as_strided_rows_nhwc(canvas, kh, kw)
            self.d_rows = arena.buffer(f"{prefix}.dw", (n, oh, ow, c),
                                       dtype=dt).reshape(n, oh, ow * c)
        elif self.kind == "dense":  # conv="full": arena im2col GEMM
            self.patches = shapes.as_strided_patches_nhwc(canvas, kh, kw,
                                                          sh, sw)
            self.colbuf = arena.buffer(f"{prefix}.cols", self.patches.shape,
                                       dtype=dt)

    def _closed(self, fn):
        """*fn*, followed by its fixed-point site (if any)."""
        if self.site is None:
            return fn
        lo, hi = self.site.lo, self.site.hi
        return lambda i, t: steps.round_site(fn(i, t), lo, hi)

    def add_ops(self, ops, dst_name, dst, tag):
        """Register this conv writing ``dst`` (N, H', W', F): a
        depthwise-separable conv as ``<tag>.dw`` + ``<tag>.pw``, any
        other as one ``<tag>`` op."""
        planes, wmat_t = self.planes, self.wmat_t
        out2d = dst.reshape(self.rows, -1)
        if self.kind == "dense":
            patches, colbuf = self.patches, self.colbuf
            col2d = colbuf.reshape(self.rows, -1)
            ops.add(
                "conv2d",
                self._closed(lambda i, t: steps.dense_conv_cols(
                    patches, colbuf, col2d, wmat_t, out2d, planes[i], dst,
                )),
                reads=(self.src_name,),
                writes=(f"{self.prefix}.cols", dst_name), tag=tag,
            )
            return
        if self.kind == "dsc":
            rows, w_rows, d_rows = self.canvas_rows, self.w_rows, self.d_rows
            ops.add("conv2d", self._closed(
                        lambda i, t: steps.depthwise(rows, w_rows, d_rows)),
                    reads=(self.src_name,), writes=(f"{self.prefix}.dw",),
                    tag=f"{tag}.dw")
            src_name = f"{self.prefix}.dw"
            x2d = self.d_rows.reshape(self.rows, -1)
            tag = f"{tag}.pw"
        else:
            src_name, x2d = self.src_name, self.src.reshape(self.rows, -1)
        ops.add(
            "matmul",
            self._closed(lambda i, t: steps.pointwise_affine(
                x2d, wmat_t, planes[i], dst, out2d
            )),
            reads=(src_name,), writes=(dst_name,), tag=tag,
        )


def _bind_conv_func(ir, prefix, n, c, h, w, arena, const, ts, h_step):
    """Bind dsODENet dynamics: two (ssr → time-conv) passes + Euler.

    The second BN's scale/shift are folded into conv1's weights/plane
    (its ssr collapses to a bare ReLU) and the Euler step size into
    conv2's (the update collapses to ``z += f``).  Each ReLU writes the
    next conv's canvas interior.
    """
    ops = OpList()
    z = arena.buffer(f"{prefix}.z", (n, h, w, c))
    f1 = arena.buffer(f"{prefix}.f1", (n, h, w, c))
    f = arena.buffer(f"{prefix}.f", (n, h, w, c))

    tc1 = _BoundTimeConv(
        ir.conv1, f"{prefix}.conv1", n, h, w, arena, const, ts,
        out_scale=ir.scale2, out_shift=ir.shift2,
    )
    tc2 = _BoundTimeConv(
        ir.conv2, f"{prefix}.conv2", n, h, w, arena, const, ts,
        out_scale=h_step,
    )
    s1, sh1 = ir.scale1.reshape(-1), ir.shift1.reshape(-1)
    a, a2 = tc1.src, tc2.src
    scratch = arena.buffer(f"{prefix}.ssr", (n, h, w, c))

    ops.add(
        "batchnorm2d",
        lambda i, t: steps.scale_shift_relu(z, s1, sh1, a, scratch),
        reads=(f"{prefix}.z",), writes=(f"{prefix}.ssr", tc1.src_name),
        tag="ssr1",
    )
    tc1.add_ops(ops, f"{prefix}.f1", f1, "conv1")
    ops.add(
        "batchnorm2d", lambda i, t: steps.relu(f1, a2),
        reads=(f"{prefix}.f1",), writes=(tc2.src_name,), tag="ssr2",
    )
    tc2.add_ops(ops, f"{prefix}.f", f, "conv2")
    ops.add(
        "add", lambda i, t: steps.state_add(z, f),
        reads=(f"{prefix}.f", f"{prefix}.z"),
        writes=(f"{prefix}.z",), tag="euler",
    )
    return z, ops


def _bind_mhsa_func(ir, prefix, n, c, h, w, arena, const, ts, h_step):
    """Bind the bottleneck dynamics: ssr → 1x1 down → MHSA → ssr →
    1x1 up + Euler, fully arena-buffered."""
    if not (ir.conv1.is_pointwise and ir.conv2.is_pointwise):
        raise CompileError(
            "MHSA bottleneck down/up projections must be 1x1 stride-1"
        )
    inner = ir.conv1.out_channels
    heads = ir.mhsa.heads
    dh, ntok = shapes.mhsa_geometry(inner, heads, h, w)

    ops = OpList()
    z = arena.buffer(f"{prefix}.z", (n, h, w, c))
    y = arena.buffer(f"{prefix}.y", (n, h, w, inner))
    m_out = arena.buffer(f"{prefix}.mhsa", (n, h, w, inner))
    f = arena.buffer(f"{prefix}.f", (n, h, w, c))
    down = _BoundTimeConv(
        ir.conv1, f"{prefix}.down", n, h, w, arena, const, ts
    )
    up = _BoundTimeConv(
        ir.conv2, f"{prefix}.up", n, h, w, arena, const, ts,
        out_scale=h_step,
    )
    a, a2 = down.src, up.src

    # Channels-last buffers are token-major already: the token views of
    # the down projection's output and of the merge destination are
    # plain reshapes.  Only an absolute position table needs its own
    # token buffer to be added into.
    ytok = y.reshape(n, ntok, inner)
    b = SimpleNamespace(
        ytok=ytok,
        tok=(
            arena.buffer(f"{prefix}.tok", (n, ntok, inner))
            if ir.mhsa.abs_table is not None else ytok
        ),
        qf=arena.buffer(f"{prefix}.qf", (n, ntok, inner)),
        kf=arena.buffer(f"{prefix}.kf", (n, ntok, inner)),
        vf=arena.buffer(f"{prefix}.vf", (n, ntok, inner)),
        q4=arena.buffer(f"{prefix}.q4", (n, heads, ntok, dh)),
        k4=arena.buffer(f"{prefix}.k4", (n, heads, ntok, dh)),
        v4=arena.buffer(f"{prefix}.v4", (n, heads, ntok, dh)),
        lg=arena.buffer(f"{prefix}.lg", (n, heads, ntok, ntok)),
        rl=(
            arena.buffer(f"{prefix}.rl", (n, heads, ntok, ntok))
            if ir.mhsa.rel_t is not None else None
        ),
        mx=(
            arena.buffer(f"{prefix}.mx", (n, heads, ntok, 1))
            if ir.mhsa.activation == "softmax" else None
        ),
        ph=arena.buffer(f"{prefix}.ph", (n, heads, ntok, dh)),
        cat=m_out.reshape(n, ntok, inner),
        mu=arena.buffer(f"{prefix}.mu", (n, ntok, 1)),
        sq=arena.buffer(f"{prefix}.sq", (n, ntok, inner)),
    )
    # Bind-time views: head splits of the arena buffers, so the step
    # bodies are pure copyto/GEMM work.
    b.qf_h = b.qf.reshape(n, ntok, heads, dh).transpose(0, 2, 1, 3)
    b.kf_h = b.kf.reshape(n, ntok, heads, dh).transpose(0, 2, 1, 3)
    b.vf_h = b.vf.reshape(n, ntok, heads, dh).transpose(0, 2, 1, 3)
    b.k4t = b.k4.transpose(0, 1, 3, 2)
    b.ph_t = b.ph.transpose(0, 2, 1, 3)
    b.cat4 = b.cat.reshape(n, ntok, heads, dh)

    s1, sh1 = ir.scale1.reshape(-1), ir.shift1.reshape(-1)
    s2, sh2 = ir.scale2.reshape(-1), ir.shift2.reshape(-1)
    ln = ir.mhsa.ln
    if ln is not None:
        # Fold the second BN's scale/shift into the output LayerNorm's
        # affine: ssr2 collapses to a bare ReLU.
        ln_w, ln_b, ln_eps = ln
        folded_ln = (
            s2 if ln_w is None else ln_w * s2,
            sh2 if ln_b is None else ln_b * s2 + sh2,
            ln_eps,
        )
        ssr2_fn = lambda i, t: steps.relu(m_out, a2)  # noqa: E731
    else:
        folded_ln = None
        ssr2_fn = lambda i, t: steps.scale_shift_relu(  # noqa: E731
            m_out, s2, sh2, a2
        )
    p = SimpleNamespace(
        w_q=ir.mhsa.w_q, w_k=ir.mhsa.w_k, w_v=ir.mhsa.w_v,
        heads=heads, activation=ir.mhsa.activation,
        rel_t=ir.mhsa.rel_t, abs_table=ir.mhsa.abs_table, ln=folded_ln,
        inv_sqrt_dh=float(1.0 / np.sqrt(dh)),
    )

    ops.add(
        "batchnorm2d", lambda i, t: steps.scale_shift_relu(z, s1, sh1, a),
        reads=(f"{prefix}.z",), writes=(down.src_name,), tag="ssr1",
    )
    down.add_ops(ops, f"{prefix}.y", y, "down")
    qkv_bufs = tuple(
        f"{prefix}.{name}"
        for name in ("qf", "kf", "vf", "q4", "k4", "v4")
    )
    if ir.mhsa.abs_table is not None:
        qkv_bufs = (f"{prefix}.tok",) + qkv_bufs
    ops.add(
        "matmul", lambda i, t: steps.mhsa_project(p, b),
        reads=(f"{prefix}.y",), writes=qkv_bufs, tag="mhsa.project",
    )
    attend_writes = tuple(
        name for name, buf in (
            (f"{prefix}.lg", b.lg), (f"{prefix}.rl", b.rl),
            (f"{prefix}.mx", b.mx), (f"{prefix}.ph", b.ph),
        ) if buf is not None
    )
    ops.add(
        "matmul", lambda i, t: steps.mhsa_attend(p, b),
        reads=(f"{prefix}.q4", f"{prefix}.k4", f"{prefix}.v4"),
        writes=attend_writes, tag="mhsa.attend",
    )
    ops.add(
        "layernorm", lambda i, t: steps.mhsa_merge(p, b, m_out),
        reads=(f"{prefix}.ph",),
        writes=(f"{prefix}.mu", f"{prefix}.sq", f"{prefix}.mhsa"),
        tag="mhsa.merge",
    )
    ops.add(
        "batchnorm2d", ssr2_fn,
        reads=(f"{prefix}.mhsa",), writes=(up.src_name,), tag="ssr2",
    )
    up.add_ops(ops, f"{prefix}.f", f, "up")
    ops.add(
        "add", lambda i, t: steps.state_add(z, f),
        reads=(f"{prefix}.f", f"{prefix}.z"),
        writes=(f"{prefix}.z",), tag="euler",
    )
    return z, ops


def _bind_fixed_func(ir, prefix, n, c, h, w, arena, const, ts, h_step):
    """Bind fixed-point dynamics: BN → time conv → [MHSA] → BN → time
    conv → Euler, every one a rounding site of the executor.

    Nothing folds: each BN (+ ReLU) is a :func:`steps.bn_site_relu`
    into the next conv's input, the Euler update a
    :func:`steps.euler_site` on the state.  The MHSA op runs the
    oracle's own :class:`~repro.fixedpoint.QuantizedMHSA2d` on the
    channels-last token views under the ``fused`` kernels (exact
    integer GEMMs on BLAS); it allocates as the oracle does, and its
    kernels record themselves (``kernel=None``).
    """
    mhsa = ir.kind == "mhsa"
    tag1, tag2 = ("down", "up") if mhsa else ("conv1", "conv2")
    if mhsa and not (ir.conv1.is_pointwise and ir.conv2.is_pointwise):
        raise CompileError(
            "MHSA bottleneck down/up projections must be 1x1 stride-1"
        )
    inner = ir.conv1.out_channels
    lo, hi = ir.conv1.site.lo, ir.conv1.site.hi
    s1, t1, s2, t2 = ir.scale1, ir.shift1, ir.scale2, ir.shift2

    ops = OpList()
    z = arena.buffer(f"{prefix}.z", (n, h, w, c), dtype=s1.dtype)
    acc = arena.buffer(f"{prefix}.acc", (n, h, w, c), dtype=s1.dtype)
    y = arena.buffer(f"{prefix}.y", (n, h, w, inner), dtype=ir.conv1.dtype)
    acc2 = arena.buffer(f"{prefix}.acc2", (n, h, w, inner), dtype=s2.dtype)
    f = arena.buffer(f"{prefix}.f", (n, h, w, c), dtype=ir.conv2.dtype)
    conv_a = _BoundTimeConv(ir.conv1, f"{prefix}.{tag1}", n, h, w, arena,
                            const, ts)
    conv_b = _BoundTimeConv(ir.conv2, f"{prefix}.{tag2}", n, h, w, arena,
                            const, ts)
    a, b = conv_a.src, conv_b.src

    ops.add(
        "batchnorm2d",
        lambda i, t: steps.bn_site_relu(z, s1, t1, lo, hi, acc, a),
        reads=(f"{prefix}.z",), writes=(f"{prefix}.acc", conv_a.src_name),
        tag="bn1",
    )
    conv_a.add_ops(ops, f"{prefix}.y", y, tag1)
    mid, mid_name = y, f"{prefix}.y"
    if mhsa:
        mid_name = f"{prefix}.mhsa"
        mid = arena.buffer(mid_name, (n, h, w, inner), dtype=s2.dtype)
        qm = ir.mhsa
        ytok = y.reshape(n, h * w, inner)
        mtok = mid.reshape(n, h * w, inner)

        def attend(i, t):
            with kernels.use_backend("fused"):
                np.copyto(mtok, qm.forward_tokens(ytok.astype(np.int64)))

        ops.add(None, attend, reads=(f"{prefix}.y",), writes=(mid_name,),
                tag="mhsa")
    ops.add(
        "batchnorm2d",
        lambda i, t: steps.bn_site_relu(mid, s2, t2, lo, hi, acc2, b),
        reads=(mid_name,), writes=(f"{prefix}.acc2", conv_b.src_name),
        tag="bn2",
    )
    conv_b.add_ops(ops, f"{prefix}.f", f, tag2)
    ops.add(
        "add", lambda i, t: steps.euler_site(z, f, h_step, lo, hi, acc),
        reads=(f"{prefix}.f", f"{prefix}.z"),
        writes=(f"{prefix}.acc", f"{prefix}.z"), tag="euler",
    )
    return z, ops


def _bind_maxpool(name, n, c, h, w, spec, arena, dtype):
    """Bind a channels-last max-pool as ``kh*kw`` shifted-slice maximum
    passes over a persistent canvas — much cheaper than a strided-view
    reduce.  The pad border is written once at bind time with the fused
    backend's pad value (-inf for floats)."""
    (kh, kw), kstride, (ph, pw) = spec
    sh, sw = kstride if kstride is not None else (kh, kw)
    oh, ow = shapes.conv_out_size(h, w, kh, kw, sh, sw, ph, pw)
    canvas = arena.buffer(f"{name}.canvas", (n, h + 2 * ph, w + 2 * pw, c),
                          dtype=dtype, fill=shapes.pool_pad_value(dtype),
                          window=(h, w, ph, pw))
    interior = canvas[:, ph : ph + h, pw : pw + w, :]
    win0, *rest = [
        canvas[:, i : i + sh * oh : sh, j : j + sw * ow : sw, :]
        for i in range(kh) for j in range(kw)
    ]
    out = arena.buffer(f"{name}.out", (n, oh, ow, c), dtype=dtype)

    def fn(x):
        np.copyto(interior, x)
        np.copyto(out, win0)
        for window in rest:
            np.maximum(out, window, out=out)
        return out

    return fn, (oh, ow)


class _BoundPlan:
    """A compiled plan bound to one input geometry on one thread.

    ``stages`` holds one ``(kernel_name, fn, is_block)`` per lowered
    stage, in order: the stem conv (or the fixed-point input cast) maps
    the NCHW batch into a channels-last arena buffer, and every later
    ``fn`` maps one channels-last buffer to the next.
    """

    def __init__(self, plan, shape, dtype):
        n, c, h, w = shape
        const = plan._constant
        arena = Arena()
        stages = []       # (kernel_name, fn, is_block)
        self.block_ops = {}
        # the dtype the reference path carries through each stage
        # (promoted by every float64 parameter it meets)
        cur_dtype = np.dtype(dtype)

        for stage in plan.stages:
            name, op, ir = stage.name, stage.op, stage.ir
            if op == "conv":
                cur_dtype = np.result_type(cur_dtype, ir.weight.dtype)
                fn, (h, w, c) = _bind_stem_conv(name, n, c, h, w, ir, arena,
                                                cur_dtype)
                stages.append(("conv2d", fn, False))
            elif op == "quantize":
                # the fixed-point input cast, in float64 as the executor
                outbuf = arena.buffer(f"{name}.out", (n, h, w, c))

                def fn(x, *, _s=ir, _o=outbuf):
                    np.multiply(x.transpose(0, 2, 3, 1), 1.0 / _s.scale,
                                out=_o, dtype=_F64)
                    return steps.round_site(_o, _s.lo, _s.hi)

                stages.append(("quantize", fn, False))
            elif op == "fconv":
                # a fixed-point site computes in its own dtype
                cur_dtype = ir.weight.dtype if ir.site is not None else (
                    np.result_type(cur_dtype, ir.weight.dtype)
                )
                fn, (h, w, c) = _bind_fconv(name, n, c, h, w, ir, arena,
                                            const, cur_dtype)
                stages.append(("conv2d", fn, False))
            elif op == "bn":
                scale, shift, site = ir
                cur_dtype = scale.dtype
                outbuf = arena.buffer(f"{name}.out", (n, h, w, c),
                                      dtype=cur_dtype)

                def fn(x, *, _s=scale, _t=shift, _site=site, _o=outbuf):
                    return steps.bn_site_relu(x, _s, _t, _site.lo,
                                              _site.hi, _o, _o)

                stages.append(("batchnorm2d", fn, False))
            elif op == "ssr":
                scale, shift = (a.reshape(-1) for a in ir)
                cur_dtype = np.result_type(cur_dtype, scale.dtype)
                outbuf = arena.buffer(f"{name}.out", (n, h, w, c),
                                      dtype=cur_dtype)

                def fn(x, *, _s=scale, _sh=shift, _o=outbuf):
                    return steps.scale_shift_relu(x, _s, _sh, _o)

                stages.append(("batchnorm2d", fn, False))
            elif op == "maxpool":
                fn, (h, w) = _bind_maxpool(name, n, c, h, w, ir, arena,
                                           cur_dtype)
                stages.append(("maxpool2d", fn, False))
            elif op == "ode":
                ts, h_step = ir.time_grid()
                binder = (
                    _bind_fixed_func if ir.params is not None
                    else _bind_conv_func if ir.func.kind == "conv"
                    else _bind_mhsa_func
                )
                z, ops_list = binder(
                    ir.func, name, n, c, h, w, arena, const, ts, h_step,
                )
                ops_list.validate(loop_carried=(f"{name}.z",))
                self.block_ops[name] = ops_list
                stages.append((
                    "ode",
                    self._make_block_stage(z, ops_list, ir),
                    True,
                ))
            elif op == "gap":
                def fn(x, *, _s=ir, _hw=h * w):
                    if _s is None:
                        return x.mean(axis=(1, 2))
                    # the executor's exact integer average
                    acc = x.astype(np.int64).sum(axis=(1, 2))
                    return np.clip(div_round_half_even(acc, _hw), _s.lo,
                                   _s.hi)

                stages.append(("global_avg_pool", fn, False))
            elif op == "linear":
                def fn(x, *, _w=ir[0], _b=ir[1], _s=ir[2]):
                    out = (x if _s is None else x.astype(_w.dtype)) @ _w.T
                    if _b is not None:
                        out += _b
                    if _s is None:
                        return out
                    # a site, then the dequantized float64 logits
                    steps.round_site(out, _s.lo, _s.hi)
                    return np.multiply(out, _s.scale, dtype=_F64)

                stages.append(("linear", fn, False))
            else:  # pragma: no cover - lower() is a closed vocabulary
                raise CompileError(f"unbindable stage {op!r} ({name!r})")

        self.stages = stages
        self.arena = arena

    @staticmethod
    def _make_block_stage(z, ops_list, block_ir):
        ops = tuple(ops_list)

        def stage(x):
            np.copyto(z, x)
            if kernels.active_collectors():
                def body(i, t, h):
                    for op in ops:
                        if op.kernel is None:  # records its own kernels
                            op.fn(i, t)
                        else:
                            kernels.record_dispatch(op.kernel, op.fn,
                                                    (i, t), {})
            else:
                def body(i, t, h):
                    for op in ops:
                        op.fn(i, t)
            fixed_grid_loop(
                body, block_ir.t0, block_ir.t1, block_ir.steps,
                solver="euler",
            )
            return z

        return stage

    def run(self, x):
        collectors = kernels.active_collectors()
        for kernel, fn, is_block in self.stages:
            if is_block or not collectors:
                x = fn(x)
            else:
                x = kernels.record_dispatch(kernel, fn, (x,), {})
        return x

    def validate(self):
        """Re-validate every block's op program (see
        :meth:`~repro.compile.arena.OpList.validate`)."""
        for name, ops_list in self.block_ops.items():
            ops_list.validate(loop_carried=(f"{name}.z",))
        return True


class _Handoff:
    """The calling thread's ambient tracer, innermost open span and
    kernel collectors, carried to the helper thread that runs a part of
    its batch, so a traced split forward nests both threads' spans under
    one parent and ``kernels.collect()`` counts every part."""

    __slots__ = ("tracer", "parent_id", "collectors")

    def __init__(self):
        self.tracer = current_tracer()
        self.parent_id = None if self.tracer is None else current_span_id()
        self.collectors = tuple(kernels.active_collectors())

    def run(self, fn, x):
        with contextlib.ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(self.tracer.activate_under(
                    self.parent_id))
            for counters in self.collectors:
                stack.enter_context(kernels.collect(counters))
            return fn(x)


class CompiledPlan:
    """A lowered ODE net compiled to a fused, arena-backed executable.

    Construction takes the lowered stages (:func:`~repro.compile.ir.lower`
    or :func:`~repro.compile.ir.lower_fixed`) and is geometry-free;
    calling binds to the input shape on first use and reuses the binding
    afterwards.  Bindings are per thread — concurrent serve executor
    threads never share arena buffers — and every binding on a thread,
    of this plan or another, views that thread's one storage.

    A call splits a batch of ``n`` across the usable cores into ``parts
    = min(n, ⌊cores / BLAS threads⌋, ⌊n · sample_macs /
    SPLIT_MIN_MACS⌋)`` contiguous row ranges when that is 2 or more (a
    BLAS whose thread count cannot be read counts as one thread): a
    second part on a core a BLAS thread already uses only adds
    switches.  The calling thread runs the first, the process's helper
    threads the others, each on its own per-(thread, shape) binding,
    and the rows come back in order.  The caller runs any part no
    helper has started yet, and waits for every part before it returns
    or raises.  ``sample_macs`` is one sample's
    forward MACs, which :func:`compile_model` sets; a plan built from
    bare stages keeps 0 and never splits.
    """

    #: MACs of one sample's forward (``profiling.flops.model_macs``)
    sample_macs = 0

    def __init__(self, stages):
        self.stages = list(stages)
        self._local = threading.local()
        self._constants = {}

    @staticmethod
    def supported(model) -> bool:
        """Whether :func:`compile_model` can compile *model* (see
        :func:`~repro.compile.ir.unsupported_reason`)."""
        return unsupported_reason(model) is None

    def _constant(self, key, make):
        """The bind-time constant *key*, derived by *make* on the first
        bind that asks for it and shared read-only by every binding on
        any thread.  Two threads' first binds may both derive it; the
        first one stored is kept."""
        value = self._constants.get(key)
        if value is None:
            value = self._constants.setdefault(key, make())
        return value

    def _bound(self, shape, dtype):
        """This thread's binding for *shape*: made on first use, and
        made again once an array of this thread's storage has grown.
        A new binding drops this plan's stale ones on this thread, so
        the arrays only they held are freed."""
        cache = getattr(self._local, "bound", None)
        if cache is None:
            cache = self._local.bound = {}
        key = (shape, np.dtype(dtype).str)
        bound = cache.get(key)
        if bound is None or bound.arena.stale:
            bound = cache[key] = _BoundPlan(self, shape, dtype)
            for old in [k for k, b in cache.items() if b.arena.stale]:
                del cache[old]
        return bound

    def _run(self, x):
        return self._bound(x.shape, x.dtype).run(x)

    def _parts(self, n):
        """How many row ranges a batch of *n* runs as (1: unsplit)."""
        parts = min(n, n * self.sample_macs // SPLIT_MIN_MACS)
        if parts >= 2:
            parts = min(parts, _usable_cores() // (blas_threads() or 1))
        return parts if parts >= 2 else 1

    def __call__(self, x):
        x = np.asarray(x)
        n = x.shape[0]
        parts = self._parts(n)
        if parts < 2:
            return self._run(x)
        chunks = [x[i * n // parts : (i + 1) * n // parts]
                  for i in range(parts)]
        handoff = _Handoff()
        pool = _helper_pool()
        handed = [pool.submit(handoff.run, self._run, chunk)
                  for chunk in chunks[1:]]
        outs, error = [], None
        for chunk, future in zip(chunks, [None, *handed]):
            try:
                if future is not None and not future.cancel():
                    outs.append(future.result())  # a helper started it
                elif error is None:
                    outs.append(self._run(chunk))
            except BaseException as exc:  # settle every part, then raise
                error = exc if error is None else error
        if error is not None:
            raise error
        return np.concatenate(outs)


def compile_model(model, formats=None):
    """Compile an eval-mode Euler ODENet: lower it once into a
    :class:`CompiledPlan`.

    With *formats* — a ``(feature_fmt, param_fmt)`` pair — the plan is
    the fixed-point one (:func:`~repro.compile.ir.lower_fixed`), whose
    output equals ``QuantizedODENetExecutor(model, *formats).run`` bit
    for bit.  The plan's ``sample_macs``, which decides how it splits a
    batch, is the model's forward at its input size.
    """
    from ..profiling.flops import model_macs

    stages = lower(model) if formats is None else lower_fixed(model, *formats)
    plan = CompiledPlan(stages)
    plan.sample_macs = model_macs(model)
    return plan
