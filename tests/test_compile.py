"""Tests for :mod:`repro.compile` — the fast executor of both numeric
domains (the fixed-point plan's bit-identity lives in
``tests/test_quantized_plan.py``).

Nine contracts:

* **parity** — the compiled plan agrees with the ``reference`` oracle
  to ≤1e-6 on every compilable registry model, at the ``tiny`` test
  geometry and at the ``paper`` / ``paper-reduced`` geometry the serve
  tiers run, and on the dense time-conv and MHSA variants (BN/step-size
  folding may reassociate float ops, never change the math);
* **one lowering per compile** — binding a compiled session folds each
  ODE block's weights exactly once;
* **aliasing safety** — the arena op program's build-time bookkeeping
  catches reordered and aliased buffers, including across solver
  iterations, with the Euler state exempt as loop-carried; every bound
  plan, float or fixed point, validates;
* **zero per-step allocation** — once bound, the Euler block bodies and
  the float stem conv run with numpy's Python-level array constructors
  forbidden outright;
* **the row depthwise** — the depthwise einsum over contiguous OW·C
  output rows is bit-identical to the 6-D patch einsum it replaced;
* **the stem conv** — the float stem's GEMM over polyphase wide rows
  agrees with the reference conv on any geometry, and equals the
  ``fused`` conv bit for bit at the served stems;
* **own arrays** — no lowered array aliases a model parameter, so a
  weight load reaches a compiled session only through ``refresh()``;
* **the batch split** — a ``paper``/``paper-reduced`` batch of 2 or
  more splits across the usable cores and a ``tiny``/``small`` one
  never does; the fixed-point plans stay bit-identical to the
  executor, each float row equals its range run alone, a helper's
  error reaches the caller, a traced or collected split covers both
  threads, and a forked replica starts helpers of its own;
* **one arena per thread** — every plan and batch size that binds on a
  thread takes batch-prefix views of that thread's one array per
  buffer key: interleaved plans and batch sizes keep their answers,
  bind-time borders survive another plan's run, arrays grow to powers
  of two and are freed with the last binding that uses them.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro import kernels
from repro.compile import (
    Arena,
    CompiledPlan,
    OpList,
    PlanValidationError,
    compile_model,
    ir,
    steps,
)
from repro.compile import plan as plan_module
from repro.compile.arena import thread_storage
from repro.compile.plan import _bind_stem_conv, _depthwise_row_weight
from repro.fixedpoint import QuantizedODENetExecutor, parse_format_pair
from repro.kernels import shapes
from repro.models import MODELS, PROFILES, build_model, reduced_profile
from repro.nn import Module
from repro.runtime import InferenceSession, SessionConfig
from repro.serve import BUILTIN_TIERS, ProcessReplica, Replica
from repro.trace import Tracer

#: the name every helper thread of a split batch starts with
_HELPER_PREFIX = "repro-plan-split"

RNG = np.random.default_rng(0)


def _packable_models():
    names = []
    for name in MODELS:
        model = build_model(name, profile="tiny", inference=True)
        if CompiledPlan.supported(model):
            names.append(name)
    return names


PACKABLE = _packable_models()


def _reference(model, x):
    return InferenceSession(
        model, config=SessionConfig(backend="reference")
    ).predict_batch(x)


def _assert_matches_reference(model, x):
    np.testing.assert_allclose(compile_model(model)(x), _reference(model, x),
                               rtol=0, atol=1e-6)


def _batch(profile, n):
    size = PROFILES[profile]["input_size"]
    return RNG.standard_normal((n, 3, size, size)).astype(np.float32)


#: non-default dynamics the registry models never compile: the dense
#: k×k time conv and the MHSA activation / position-encoding branches
VARIANTS = (
    ("odenet", {"conv": "full"}),
    ("ode_botnet", {"conv": "full"}),
    ("ode_botnet", {"attention_activation": "softmax"}),
    ("ode_botnet", {"pos_enc": "absolute"}),
    ("ode_botnet", {"pos_enc": "none"}),
)


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------
class TestCompiledParity:
    def test_registry_covers_the_paper_models(self):
        assert set(PACKABLE) == {"odenet", "ode_botnet"}

    @pytest.mark.parametrize("name", PACKABLE)
    def test_compiled_matches_reference_within_1e6(self, name):
        model = build_model(name, profile="tiny", inference=True)
        x = RNG.standard_normal((4, 3, 32, 32)).astype(np.float32)
        ref = _reference(model, x)
        session = InferenceSession(
            model, config=SessionConfig(backend="compiled")
        )
        assert session.plan_kind == "compiled"
        out = session.predict_batch(x)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("profile", ("paper", "paper-reduced"))
    @pytest.mark.parametrize("name", PACKABLE)
    def test_serving_geometry_matches_reference(self, name, profile):
        """The 96×96 geometry the ``overload`` full and reduced tiers
        serve."""
        model = build_model(name, profile=profile, inference=True)
        _assert_matches_reference(model, _batch(profile, 3))

    @pytest.mark.parametrize("profile", ("tiny", "small"))
    @pytest.mark.parametrize(
        "name,overrides", VARIANTS,
        ids=[f"{n}-{'-'.join(f'{k}={v}' for k, v in o.items())}"
             for n, o in VARIANTS],
    )
    def test_dynamics_variant_matches_reference(self, name, overrides,
                                                profile):
        model = build_model(name, profile=profile, inference=True,
                            **overrides)
        assert CompiledPlan.supported(model)
        _assert_matches_reference(model, _batch(profile, 2))

    def test_compiled_is_deterministic(self):
        model = build_model("odenet", profile="tiny", inference=True)
        plan = compile_model(model)
        x = RNG.standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(plan(x), plan(x))


# ----------------------------------------------------------------------
# one lowering per compile
# ----------------------------------------------------------------------
class TestOneLowering:
    @pytest.mark.parametrize("state", ("cold", "warm"))
    def test_session_compile_folds_each_block_once(self, state, monkeypatch):
        """Binding a compiled session folds every ODE block's weights
        exactly once — on its first batch (cold), and still once after
        a second batch geometry binds a fresh arena (warm)."""
        model = build_model("ode_botnet", profile="tiny", inference=True)
        folded = []
        init = ir.OdeBlockIR.__init__

        def counting_init(self, block):
            folded.append(block)
            init(self, block)

        monkeypatch.setattr(ir.OdeBlockIR, "__init__", counting_init)
        session = InferenceSession(
            model, config=SessionConfig(backend="compiled")
        )
        session.predict_batch(RNG.standard_normal((1, 3, 32, 32))
                              .astype(np.float32))
        if state == "warm":
            session.predict_batch(RNG.standard_normal((2, 3, 32, 32))
                                  .astype(np.float32))
        assert len(folded) == 3  # block1, block2, block3


# ----------------------------------------------------------------------
# arena aliasing safety
# ----------------------------------------------------------------------
class TestAliasValidation:
    def _noop(self):
        return lambda: None

    def test_straight_line_program_validates(self):
        ops = OpList()
        ops.add("a", self._noop(), writes=("x",))
        ops.add("b", self._noop(), reads=("x",), writes=("y",))
        assert ops.validate()

    def test_clobbered_read_is_caught(self):
        """An op reading a buffer rewritten since its producer ran —
        the binder aliased two logical tensors onto one buffer."""
        ops = OpList()
        ops.add("produce", self._noop(), writes=("x",))
        ops.add("clobber", self._noop(), writes=("x",))
        ops.add("consume", self._noop(), reads=("x",), writes=("y",))
        consume = ops.ops[2]
        # model the hazard: consume was built against write #0
        ops.ops[2] = type(consume)(
            consume.kernel, consume.fn, (("x", 0),), consume.writes,
            consume.tag,
        )
        with pytest.raises(PlanValidationError, match="'x'"):
            ops.validate()

    def test_cross_iteration_reuse_is_caught(self):
        """A buffer read before its (only) writer is clean on pass one
        (it reads external input) but dirty on pass two — exactly the
        consecutive-solver-iteration hazard validate() replays for."""
        ops = OpList()
        ops.add("consume", self._noop(), reads=("scratch",))
        ops.add("produce", self._noop(), writes=("scratch",))
        with pytest.raises(PlanValidationError, match="scratch"):
            ops.validate()

    def test_loop_carried_state_is_exempt(self):
        """The Euler ``z`` legitimately flows between iterations."""
        ops = OpList()
        ops.add("step", self._noop(), reads=("z",), writes=("z",))
        assert ops.validate(loop_carried=("z",))
        with pytest.raises(PlanValidationError):
            ops.validate()

    @pytest.mark.parametrize("name", PACKABLE)
    def test_bound_plans_validate(self, name):
        model = build_model(name, profile="tiny", inference=True)
        plan = compile_model(model)
        x = RNG.standard_normal((2, 3, 32, 32)).astype(np.float32)
        plan(x)  # bind
        bound = plan._bound(x.shape, x.dtype)
        assert bound.validate()
        assert bound.block_ops, "plan bound no ODE block programs"

    @pytest.mark.parametrize("fmt", ("8(4)-8(4)", "16(8)-12(4)"))
    @pytest.mark.parametrize("name", PACKABLE)
    def test_bound_fixed_point_plans_validate(self, name, fmt):
        model = build_model(name, profile="tiny", inference=True)
        plan = compile_model(model, parse_format_pair(fmt))
        x = RNG.standard_normal((2, 3, 32, 32)).astype(np.float32)
        plan(x)  # bind
        bound = plan._bound(x.shape, x.dtype)
        assert bound.validate()
        assert set(bound.block_ops) == {"block1", "block2", "block3"}


# ----------------------------------------------------------------------
# zero per-step allocation
# ----------------------------------------------------------------------
#: the Python-level numpy constructors a step body could reach for
_CONSTRUCTORS = (
    "empty", "zeros", "ones", "full", "array", "concatenate", "stack",
    "pad", "ascontiguousarray", "empty_like", "zeros_like", "ones_like",
)


class _AllocationForbidden(AssertionError):
    pass


class _forbid_numpy_allocation:
    """Monkeypatch numpy's constructors to raise (restores on exit)."""

    def __enter__(self):
        self._saved = {name: getattr(np, name) for name in _CONSTRUCTORS}

        def _make(name):
            def _raise(*args, **kwargs):
                raise _AllocationForbidden(
                    f"np.{name} called inside a guarded compiled stage"
                )
            return _raise

        for name in self._saved:
            setattr(np, name, _make(name))
        return self

    def __exit__(self, exc_type, exc, tb):
        for name, fn in self._saved.items():
            setattr(np, name, fn)
        return False


class TestZeroStepAllocation:
    def test_guard_actually_guards(self):
        with pytest.raises(_AllocationForbidden):
            with _forbid_numpy_allocation():
                np.zeros(3)

    @pytest.mark.parametrize("name", PACKABLE)
    def test_euler_blocks_run_allocation_free(self, name):
        """After the warm-up bind, the ODE block stages — the Euler
        loop, the hot path the arena exists for — execute with every
        numpy constructor replaced by a tripwire."""
        self._check_blocks_allocation_free(name, "tiny", 2)

    @pytest.mark.parametrize("name", PACKABLE)
    def test_euler_blocks_run_allocation_free_at_paper_reduced(self, name):
        """The same at the reduced serve tier's geometry, batch 1."""
        self._check_blocks_allocation_free(name, "paper-reduced", 1)

    @pytest.mark.parametrize("fmt", ("8(4)-8(4)", "16(8)-12(4)"))
    @pytest.mark.parametrize("name,blocks", (
        ("odenet", ("block1", "block2", "block3")),
        ("ode_botnet", ("block1", "block2")),
    ))
    def test_fixed_point_conv_blocks_run_allocation_free(self, name, blocks,
                                                         fmt):
        """The fixed-point plan's conv dynamics, every site included.
        ode_botnet's block3 is exempt: its MHSA op runs the oracle's
        own QuantizedMHSA2d, which allocates on every call."""
        self._check_blocks_allocation_free(
            name, "tiny", 2, formats=parse_format_pair(fmt), blocks=blocks,
        )

    @pytest.mark.parametrize("profile,batch", (("tiny", 8),
                                               ("paper-reduced", 1)))
    @pytest.mark.parametrize("name", PACKABLE)
    def test_float_stem_conv_runs_allocation_free(self, name, profile,
                                                  batch):
        """The float stem conv is bound into the arena like every other
        stage: its phase-plane fill, column gather and batched GEMM run
        under the same tripwire."""
        self._check_blocks_allocation_free(name, profile, batch,
                                           blocks=("stem.conv",))

    @staticmethod
    def _check_blocks_allocation_free(name, profile, batch, formats=None,
                                      blocks=None):
        """Run a bound plan stage by stage, the stages named in *blocks*
        (every ODE block by default) under the tripwire."""
        model = build_model(name, profile=profile, inference=True)
        plan = compile_model(model, formats)
        x = _batch(profile, batch)
        ref = plan(x)  # warm-up: bind geometry, allocate the arena

        bound = plan._bound(x.shape, x.dtype)
        names = [stage.name for stage in plan.stages]
        if blocks is None:
            blocks = [n for n, s in zip(names, bound.stages) if s[2]]
        assert blocks, "no ODE block stages bound"
        h = x
        ran = 0
        for stage_name, (kernel, fn, is_block) in zip(names, bound.stages):
            if stage_name in blocks:
                with _forbid_numpy_allocation():
                    h = fn(h)
                ran += 1
            else:
                h = fn(h)
        assert ran == len(blocks)
        np.testing.assert_array_equal(h, ref)


# ----------------------------------------------------------------------
# the row depthwise
# ----------------------------------------------------------------------
def _canvas_and_kernel(dtype, k, width, channels, batch):
    """A padded (N, W+k-1, W+k-1, C) canvas and a (C, 1, k, k) kernel."""
    rng = np.random.default_rng([k, width, channels, batch])
    side = width + k - 1
    canvas = rng.standard_normal((batch, side, side, channels)).astype(dtype)
    return canvas, rng.standard_normal((channels, 1, k, k)).astype(dtype)


def _row_depthwise(canvas, dw):
    """:func:`steps.depthwise` over the row view, bound as the plan
    binds it."""
    n, side, _, c = canvas.shape
    k = dw.shape[-1]
    ow = side - k + 1
    out = np.empty((n, ow, ow, c), dtype=canvas.dtype)
    steps.depthwise(shapes.as_strided_rows_nhwc(canvas, k, k),
                    _depthwise_row_weight(dw, ow),
                    out.reshape(n, ow, ow * c))
    return out


_ROW_GRID = (
    pytest.mark.parametrize("dtype", (np.float32, np.float64),
                            ids=("f32", "f64")),
    pytest.mark.parametrize("k", (3, 5)),
    pytest.mark.parametrize("width", (1, 2, 7)),
    pytest.mark.parametrize("channels", (1, 3, 8)),
    pytest.mark.parametrize("batch", (1, 3)),
)


def _row_grid(fn):
    for mark in _ROW_GRID:
        fn = mark(fn)
    return fn


class TestRowDepthwise:
    @_row_grid
    def test_matches_the_patch_einsum(self, dtype, k, width, channels,
                                      batch):
        """Bit-identical to the 6-D einsum over the patch view, which
        sums each output's taps in the same (i, j) order.  With one
        channel numpy's einsum iterator reorders both reductions (the
        6-D form's channel axis has length 1; in the row form a kernel
        column's stride is one element's), so there the two agree to
        rounding only; no model has a one-channel depthwise conv."""
        canvas, dw = _canvas_and_kernel(dtype, k, width, channels, batch)
        got = _row_depthwise(canvas, dw)
        want = np.einsum(
            "nhwijc,ijc->nhwc",
            shapes.as_strided_patches_nhwc(canvas, k, k, 1, 1),
            np.ascontiguousarray(dw[:, 0].transpose(1, 2, 0)),
        )
        assert got.dtype == want.dtype
        if channels > 1:
            np.testing.assert_array_equal(got, want)
        else:
            tol = 1e-6 if dtype == np.float32 else 1e-12
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    @_row_grid
    def test_matches_a_per_tap_loop(self, dtype, k, width, channels, batch):
        canvas, dw = _canvas_and_kernel(dtype, k, width, channels, batch)
        got = _row_depthwise(canvas, dw)
        want = np.zeros_like(got)
        for i in range(k):
            for j in range(k):
                want += canvas[:, i : i + width, j : j + width] * dw[:, 0, i, j]
        tol = 1e-6 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    def test_row_view_aliases_the_canvas_read_only(self):
        canvas = np.zeros((2, 6, 6, 3))
        rows = shapes.as_strided_rows_nhwc(canvas, 3, 3)
        assert rows.shape == (2, 4, 3, 3, 4 * 3)
        assert np.shares_memory(rows, canvas)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[...] = 1.0
        # tap (1, 2) of output row 0 starts at canvas[:, 1, 2, :]
        canvas[1, 1, 2, 1] = 5.0
        assert rows[1, 0, 1, 2, 1] == 5.0

    def test_row_view_needs_contiguous_columns(self):
        canvas = np.zeros((1, 6, 6, 4))
        with pytest.raises(ValueError, match="contiguous"):
            shapes.as_strided_rows_nhwc(canvas[:, :, ::2], 3, 3)


# ----------------------------------------------------------------------
# the stem conv
# ----------------------------------------------------------------------
def _bound_stem(x_shape, weight, bias, stride, padding, dtype):
    """The float stem conv bound as the plan binds it: its stage fn."""
    spec = ir.ConvSpec(weight, bias, (stride, stride), (padding, padding))
    fn, _ = _bind_stem_conv("stem.conv", *x_shape, spec, Arena(), dtype)
    return fn


class TestStemConv:
    @pytest.mark.parametrize("bias", (False, True), ids=("nobias", "bias"))
    @pytest.mark.parametrize("padding", (0, 1, 3))
    @pytest.mark.parametrize("stride", (1, 2, 3))
    @pytest.mark.parametrize("k", (3, 7))
    @pytest.mark.parametrize("dtype", (np.float32, np.float64),
                             ids=("f32", "f64"))
    def test_matches_the_reference_conv(self, dtype, k, stride, padding,
                                        bias):
        """Agrees with the reference einsum to float rounding at every
        batch and input side, odd and even: a slip in a phase plane or
        a tap offset would show as an O(1) error.  Each binding runs
        twice, on two inputs, so a stale plane interior shows too."""
        ref = kernels.get_backend("reference")
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for batch in (1, 3, 8):
            for side in (31, 32, 33):
                rng = np.random.default_rng([k, stride, padding, batch, side])
                weight = rng.standard_normal((5, 3, k, k)).astype(np.float32)
                b = (rng.standard_normal(5).astype(np.float32) if bias
                     else None)
                xs = rng.standard_normal((2, batch, 3, side, side)).astype(
                    dtype)
                fn = _bound_stem(xs[0].shape, weight, b, stride, padding,
                                 np.result_type(dtype, weight.dtype))
                for x in xs:
                    got = fn(x)
                    want = ref.conv2d(x, weight, (stride, stride),
                                      (padding, padding))
                    if b is not None:
                        want = want + b.reshape(1, -1, 1, 1)
                    want = want.transpose(0, 2, 3, 1)
                    assert got.dtype == want.dtype
                    assert got.shape == want.shape
                    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("batch", (1, 8))
    @pytest.mark.parametrize("profile", ("tiny", "small", "paper"))
    def test_served_stems_equal_the_fused_conv(self, profile, batch):
        """At the served stems (7×7, stride 2, padding 3, C = 3, the
        real weights) the bound stem equals the ``fused`` backend's
        tensordot conv bit for bit.  This is a property of the test
        host's BLAS, not of the math: both contract K in the same
        (C, KH, KW) order, but a BLAS may order each sum by the shape
        of the call."""
        model = build_model("ode_botnet", profile=profile, inference=True)
        spec = ir.lower(model)[0].ir
        x = _batch(profile, batch)
        fn, _ = _bind_stem_conv("stem.conv", *x.shape, spec, Arena(),
                                np.float32)
        want = kernels.get_backend("fused").conv2d(
            x, spec.weight, spec.stride, spec.padding
        ).transpose(0, 2, 3, 1)
        got = fn(x)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_phase_row_view_aliases_the_planes_read_only(self):
        planes = np.zeros((2, 3, 2, 2, 5, 4))
        runs = shapes.as_strided_phase_rows(planes, 1, 0, 3, 3, 3)
        # phase (1, 0) of a 3x3 kernel at stride 2: taps i = 1, j = 0, 2
        assert runs.shape == (2, 3, 1, 2, 3 * 4)
        assert np.shares_memory(runs, planes)
        assert not runs.flags.writeable
        with pytest.raises(ValueError):
            runs[...] = 1.0
        # tap (1, 2) of output (1, 2) reads plane (1, 0) at (1, 2 + 1)
        planes[1, 2, 1, 0, 1, 3] = 5.0
        assert runs[1, 2, 0, 1, 1 * 4 + 2] == 5.0

    def test_phase_row_view_checks_its_planes(self):
        planes = np.zeros((1, 1, 2, 2, 5, 4))
        with pytest.raises(ValueError, match="contiguous"):
            shapes.as_strided_phase_rows(planes[..., :3], 0, 0, 3, 3, 3)
        with pytest.raises(ValueError, match="overrun"):
            shapes.as_strided_phase_rows(planes, 0, 0, 3, 3, 5)


# ----------------------------------------------------------------------
# own arrays
# ----------------------------------------------------------------------
def _lowered_arrays(obj, seen=None):
    """Every ndarray a lowered stage holds, walking its IR objects.  A
    live module is not walked: the fixed-point MHSA keeps its float
    module for hyper-parameters only."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, Module):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _lowered_arrays(item, seen)
    else:
        fields = list(getattr(obj, "__dict__", {}).values())
        fields += [getattr(obj, name, None)
                   for name in getattr(type(obj), "__slots__", ())]
        for value in fields:
            yield from _lowered_arrays(value, seen)


class TestOwnArrays:
    @pytest.mark.parametrize("formats", (None, "8(4)-8(4)"),
                             ids=("float", "fixed"))
    @pytest.mark.parametrize("name", PACKABLE)
    def test_lowered_arrays_never_alias_parameters(self, name, formats):
        model = build_model(name, profile="tiny", inference=True)
        stages = ir.lower(model) if formats is None else ir.lower_fixed(
            model, *parse_format_pair(formats)
        )
        params = list(model.named_parameters())
        arrays = [(stage.name, a) for stage in stages
                  for a in _lowered_arrays(stage.ir)]
        assert len(arrays) > 20
        aliased = sorted({
            (stage, pname) for stage, a in arrays for pname, p in params
            if np.shares_memory(a, p.data)
        })
        assert aliased == []

    @pytest.mark.parametrize("formats", (None, "8(4)-8(4)"),
                             ids=("float", "fixed"))
    @pytest.mark.parametrize("name", PACKABLE)
    def test_weight_load_reaches_a_session_only_through_refresh(
            self, name, formats):
        """A weight load writes the model's parameters in place; a
        batch between the load and ``refresh()`` must still run the old
        generation whole, never the new head over the old blocks."""
        def session_for(model):
            net = model if formats is None else QuantizedODENetExecutor(
                model, *parse_format_pair(formats)
            )
            return InferenceSession(net,
                                    config=SessionConfig(backend="fused"))

        model = build_model(name, profile="tiny", inference=True)
        session = session_for(model)
        assert session.plan_kind == ("compiled" if formats is None
                                     else "quantized")
        x = _batch("tiny", 3)
        old = session.predict_batch(x)
        new_model = build_model(name, profile="tiny", seed=1, inference=True)
        model.load_state_dict(new_model.state_dict())
        np.testing.assert_array_equal(session.predict_batch(x), old)
        session.refresh()
        new = session.predict_batch(x)
        assert not np.array_equal(new, old)
        np.testing.assert_array_equal(
            new, session_for(new_model).predict_batch(x)
        )


# ----------------------------------------------------------------------
# the batch split
# ----------------------------------------------------------------------
class _PartFailed(RuntimeError):
    pass


def _split_edges(n, parts):
    return [i * n // parts for i in range(parts + 1)]


def _set_cores(monkeypatch, cores, blas=1):
    """Patch the two counts the split reads: the usable cores and the
    loaded BLAS's threads (``None``: unreadable)."""
    monkeypatch.setattr(plan_module, "_usable_cores", lambda: cores)
    monkeypatch.setattr(plan_module, "blas_threads", lambda: blas)


def _hold_the_callers_part(monkeypatch, plan, helper_fails=False):
    """Patch *plan* so the calling thread starts its own part only once
    a helper thread has started another: the split then runs on two
    threads however the scheduler orders them, and a pool whose helpers
    never start fails the wait instead of being covered by the caller.
    With *helper_fails* the helper's part raises :class:`_PartFailed`."""
    helper_started = threading.Event()
    run = plan._run

    def run_part(part):
        name = threading.current_thread().name
        if name.startswith(_HELPER_PREFIX):
            helper_started.set()
            if helper_fails:
                raise _PartFailed(name)
        else:
            assert helper_started.wait(20), "no helper thread took a part"
        return run(part)

    monkeypatch.setattr(plan, "_run", run_part)


class TestBatchSplit:
    """A paper-geometry batch runs as contiguous row ranges on the
    caller and the helper threads; the answers stay those of the
    unsplit plan."""

    @pytest.mark.parametrize("cores", (2, 4))
    @pytest.mark.parametrize("name", PACKABLE)
    def test_which_batches_split(self, name, cores, monkeypatch):
        """At most one part per ``cores ÷ BLAS threads``, for a BLAS of
        1 or 2 threads: one that runs two threads per GEMM on two cores
        leaves no core for a second part.  An unreadable thread count
        (``None``) counts as one."""
        small, large = [], []
        for profile in ("tiny", "small"):
            small.append(compile_model(build_model(name, profile=profile,
                                                   inference=True)))
        for profile in ("paper", "paper-reduced"):
            model = build_model(name, profile=profile, inference=True)
            for formats in (None, BUILTIN_TIERS["int8"].formats(),
                            BUILTIN_TIERS["int4"].formats()):
                large.append(compile_model(model, formats))
        for blas in (1, 2, None):
            _set_cores(monkeypatch, cores, blas)
            cap = cores // (blas or 1)
            for plan in small:
                assert [plan._parts(n) for n in range(1, 9)] == [1] * 8
            for plan in large:
                assert [plan._parts(n) for n in range(1, 9)] == [
                    1 if min(n, cap) < 2 else min(n, cap)
                    for n in range(1, 9)
                ], blas

    def test_one_core_never_splits(self, monkeypatch):
        _set_cores(monkeypatch, 1)

        def no_helpers():
            raise AssertionError("a helper pool was asked for")

        monkeypatch.setattr(plan_module, "_helper_pool", no_helpers)
        model = build_model("ode_botnet", profile="paper", inference=True)
        plan = compile_model(model)
        assert [plan._parts(n) for n in range(1, 9)] == [1] * 8
        x = _batch("paper", 2)
        out = plan(x)
        assert list(plan._local.bound) == [(x.shape, x.dtype.str)]
        np.testing.assert_array_equal(
            out, plan._bound(x.shape, x.dtype).run(x))

    @pytest.mark.parametrize("batch", (2, 3, 8))
    @pytest.mark.parametrize("tier", ("int8", "int4"))
    def test_fixed_point_split_equals_the_executor(self, tier, batch,
                                                   monkeypatch):
        _set_cores(monkeypatch, 2)
        model = build_model("ode_botnet", profile="paper-reduced",
                            inference=True)
        formats = BUILTIN_TIERS[tier].formats()
        plan = compile_model(model, formats)
        assert plan._parts(batch) == 2
        x = _batch("paper-reduced", batch)
        with kernels.use_backend("reference"):
            expected = QuantizedODENetExecutor(model, *formats).run(x)
        np.testing.assert_array_equal(plan(x), expected)

    @pytest.mark.parametrize("name", PACKABLE)
    def test_float_rows_equal_their_part_run_alone(self, name,
                                                   monkeypatch):
        _set_cores(monkeypatch, 2)
        model = build_model(name, profile="paper-reduced", inference=True)
        plan = compile_model(model)
        x = _batch("paper-reduced", 8)
        ref = _reference(model, x)
        for n in (2, 3, 8):
            out = plan(x[:n])
            edges = _split_edges(n, plan._parts(n))
            assert len(edges) == 3
            for a, b in zip(edges, edges[1:]):
                part = x[a:b]
                np.testing.assert_array_equal(
                    out[a:b], plan._bound(part.shape, part.dtype).run(part))
            np.testing.assert_allclose(out, ref[:n], rtol=0, atol=1e-6)

    def test_a_helper_error_reaches_the_caller(self, monkeypatch):
        _set_cores(monkeypatch, 2)
        model = build_model("ode_botnet", profile="paper-reduced",
                            inference=True)
        plan = compile_model(model)
        x = _batch("paper-reduced", 3)
        expected = plan(x)
        _hold_the_callers_part(monkeypatch, plan, helper_fails=True)
        with pytest.raises(_PartFailed, match=_HELPER_PREFIX):
            plan(x)
        monkeypatch.undo()
        _set_cores(monkeypatch, 2)
        np.testing.assert_array_equal(plan(x), expected)

    def test_traced_split_nests_both_threads_under_one_session(
            self, monkeypatch):
        _set_cores(monkeypatch, 2)
        model = build_model("ode_botnet", profile="paper-reduced",
                            inference=True)
        session = InferenceSession(model,
                                   config=SessionConfig(backend="fused"))
        x = _batch("paper-reduced", 2)
        expected = session.predict_batch(x)
        _hold_the_callers_part(monkeypatch, session._plan)
        tracer = Tracer()
        with tracer.activate():
            out = session.predict_batch(x)
        np.testing.assert_array_equal(out, expected)
        spans = tracer.spans()
        (top,) = [s for s in spans if s.name == "session"]
        steps_ = [s for s in spans if s.name == "solver.step"]
        assert {s.parent_id for s in steps_} == {top.span_id}
        assert len({s.thread for s in steps_}) == 2
        assert tracer.dropped == 0

    def test_kernel_collectors_count_both_parts(self, monkeypatch):
        _set_cores(monkeypatch, 2)
        model = build_model("ode_botnet", profile="paper-reduced",
                            inference=True)
        plan = compile_model(model)
        x = _batch("paper-reduced", 2)
        plan(x)
        with kernels.collect() as one_part:
            plan._run(x[:1])
        _hold_the_callers_part(monkeypatch, plan)
        with kernels.collect() as both_parts:
            plan(x)
        assert one_part.calls
        assert both_parts.calls == {
            name: 2 * calls for name, calls in one_part.calls.items()
        }

    def test_a_forked_replica_starts_helpers_of_its_own(self,
                                                        monkeypatch):
        """A process replica forked after the parent split a batch: the
        helper threads the child inherited the pool of do not exist
        there, so a child reusing that pool would never hand its part
        off."""
        _set_cores(monkeypatch, 2)
        model = build_model("ode_botnet", profile="paper-reduced",
                            inference=True)
        session = InferenceSession(model,
                                   config=SessionConfig(backend="fused"))
        x = _batch("paper-reduced", 2)
        expected = Replica("thread", session).run(x)
        _hold_the_callers_part(monkeypatch, session._plan)
        replica = ProcessReplica("process", session, timeout_s=120)
        try:
            tracer = Tracer()
            with tracer.activate(), tracer.span("dispatch"):
                out = replica.run(x)
        finally:
            replica.close()
        np.testing.assert_array_equal(out, expected)
        threads = {s.thread for s in tracer.spans()
                   if s.name == "solver.step"}
        assert len(threads) == 2


# ----------------------------------------------------------------------
# one arena per thread
# ----------------------------------------------------------------------
#: batch sizes in an order that grows, shrinks and regrows the arrays
_BATCHES = (4, 1, 8, 2, 3, 8, 5)


def _on_fresh_thread(fn, *args):
    """``fn(*args)`` on a new thread, whose storage starts empty: its
    result, or its exception raised here."""
    result = {}

    def target():
        try:
            result["value"] = fn(*args)
        except BaseException as exc:  # handed to the calling thread
            result["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(300)
    assert not thread.is_alive(), "the fresh thread did not finish"
    if "error" in result:
        raise result["error"]
    return result["value"]


def _held_arrays(plan):
    """The storage arrays this thread's bindings of *plan* view, by key:
    every binding views the same one array per key."""
    held = {}
    for bound in plan._local.bound.values():
        for key, array in bound.arena.arrays.items():
            assert held.setdefault(key, array) is array, key
    return held


class TestThreadArena:
    """Every plan and batch size that binds on a thread shares that
    thread's storage, and answers as the plan alone does on a fresh
    thread, whose storage starts empty."""

    @pytest.mark.parametrize("tier", (None, "int8", "int4"))
    @pytest.mark.parametrize("profile", ("tiny", "paper-reduced"))
    def test_batch_sizes_in_turn_keep_their_answers(self, profile, tier,
                                                    monkeypatch):
        _set_cores(monkeypatch, 1)
        model = build_model("ode_botnet", profile=profile, inference=True)
        formats = None if tier is None else BUILTIN_TIERS[tier].formats()
        fresh = compile_model(model, formats)
        x = _batch(profile, max(_BATCHES))

        def in_turn():
            plan = compile_model(model, formats)
            for n in _BATCHES:
                want = _on_fresh_thread(fresh._run, x[:n])
                got = plan(x[:n])
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            gc.collect()
            held = _held_arrays(plan)
            assert {len(a) for a in held.values()} == {8}
            storage = dict(thread_storage().arrays)
            assert storage.keys() == held.keys()
            assert all(storage[k] is a for k, a in held.items())

        _on_fresh_thread(in_turn)

    def test_interleaved_plans_keep_their_answers(self, monkeypatch):
        """The primary plan and the three rungs of the degrade ladder,
        as one replica's executor thread runs them: the primary and
        ``reduced`` plans view the same arrays, int8 and int4 share
        theirs, and each plan answers as it does alone.  In the second
        round the primary and int8 plans grow the arrays the 1-row
        bindings of ``reduced`` and int4 view, which then bind again
        onto the grown ones."""
        _set_cores(monkeypatch, 1)
        primary = build_model("ode_botnet", profile="paper", inference=True)
        reduced = build_model("ode_botnet", profile=reduced_profile("paper"),
                              pretrained_state=primary.state_dict(),
                              inference=True)
        plans = {
            "primary": compile_model(primary),
            "reduced": compile_model(reduced),
            "int8": compile_model(reduced, BUILTIN_TIERS["int8"].formats()),
            "int4": compile_model(reduced, BUILTIN_TIERS["int4"].formats()),
        }
        x = _batch("paper", 4)
        rounds = ((1, 1, 1, 1), (4, 1, 4, 1), (3, 3, 3, 3))
        solo = {(name, n): _on_fresh_thread(plan._run, x[:n])
                for name, plan in plans.items() for n in (1, 3, 4)}

        def interleaved():
            for sizes in rounds:
                for (name, plan), n in zip(plans.items(), sizes):
                    np.testing.assert_array_equal(plan(x[:n]), solo[name, n])
                storage = dict(thread_storage().arrays)
                for plan in plans.values():
                    assert all(storage[k] is a
                               for k, a in _held_arrays(plan).items())
            held = {name: _held_arrays(plan) for name, plan in plans.items()}
            assert held["primary"].keys() == held["reduced"].keys()
            assert all(held["reduced"][k] is a
                       for k, a in held["primary"].items())
            assert held["int8"].keys() & held["int4"].keys()

        _on_fresh_thread(interleaved)

    def test_equal_planes_with_other_windows_get_their_own_arrays(self):
        """Two stems whose zero-padded phase planes have one shape but
        different interiors (30 rows padded by 2, 32 padded by 1): in
        one array each would write data where the other reads its zero
        border."""
        rng = np.random.default_rng(7)
        weight = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        ref = kernels.get_backend("reference")
        runs = []
        for side, pad in ((30, 2), (32, 1)):
            spec = ir.ConvSpec(weight, None, (2, 2), (pad, pad))
            x = rng.standard_normal((2, 3, side, side)).astype(np.float32)
            arena = Arena()
            fn, _ = _bind_stem_conv("stem.conv", *x.shape, spec, arena,
                                    np.float32)
            want = ref.conv2d(x, weight, (2, 2), (pad, pad))
            runs.append((fn, x, want.transpose(0, 2, 3, 1), arena))
        (a,), (b,) = ([v for k, v in arena.arrays.items()
                       if k[0] == "stem.conv.phases"]
                      for *_, arena in runs)
        assert a.shape == b.shape
        assert a is not b
        for fn, x, want, _ in runs + runs:
            np.testing.assert_allclose(fn(x), want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("name", PACKABLE)
    def test_borders_survive_another_plans_run(self, name):
        """The reduced plan binds every canvas of the primary one; after
        it ran, each canvas border still reads its fill (0, or −inf
        around the max-pool) and the primary's answer is unchanged."""
        model = build_model(name, profile="tiny", inference=True)
        other = build_model(name, profile=reduced_profile("tiny"),
                            pretrained_state=model.state_dict(),
                            inference=True)
        plan, other_plan = compile_model(model), compile_model(other)
        x = _batch("tiny", 3)

        def check():
            want = plan(x)
            other_plan(x)
            mine = plan._bound(x.shape, x.dtype).arena.arrays
            theirs = other_plan._bound(x.shape, x.dtype).arena.arrays
            canvases = {k: a for k, a in mine.items() if len(k) == 5}
            fills = {k[3] for k in canvases}
            assert fills == {0, -np.inf}
            for key, array in canvases.items():
                assert theirs[key] is array
                if len(key[4]) != 4:  # the stem's phase planes
                    continue
                h, w, ph, pw = key[4]
                interior = np.zeros(array.shape[1:3], dtype=bool)
                interior[ph : ph + h, pw : pw + w] = True
                assert (array[:, ~interior] == key[3]).all(), key[0]
            np.testing.assert_array_equal(plan(x), want)

        _on_fresh_thread(check)

    def test_arrays_are_sized_by_the_largest_part(self, monkeypatch):
        """A caller that ran parts of 1, 3 and 2 rows holds one array
        per key, of 4 rows, and nothing else: the 1-row arrays went with
        the binding that grew stale."""
        _set_cores(monkeypatch, 2)
        model = build_model("ode_botnet", profile="paper-reduced",
                            inference=True)
        plan = compile_model(model)
        _hold_the_callers_part(monkeypatch, plan)
        x = _batch("paper-reduced", 7)

        def run():
            for n in (3, 7, 5):
                plan(x[:n])
            gc.collect()
            held = _held_arrays(plan)
            assert {len(a) for a in held.values()} == {4}
            storage = dict(thread_storage().arrays)
            assert storage.keys() == held.keys()
            assert all(storage[k] is a for k, a in held.items())

        _on_fresh_thread(run)

    def test_arrays_go_with_the_last_plan_that_uses_them(self,
                                                         monkeypatch):
        """Storage holds its arrays weakly: once the plan is gone, the
        caller's storage is empty and the helper thread, which outlives
        it, keeps none of the arrays its part was bound to."""
        _set_cores(monkeypatch, 2)
        model = build_model("ode_botnet", profile="paper-reduced",
                            inference=True)
        x = _batch("paper-reduced", 2)
        helper_arrays = []
        helper_started = threading.Event()

        def run():
            plan = compile_model(model)
            run_part = plan._run

            def held_part(part):
                if threading.current_thread().name.startswith(
                        _HELPER_PREFIX):
                    out = run_part(part)
                    bound = plan._bound(part.shape, part.dtype)
                    helper_arrays.extend(
                        weakref.ref(a) for a in bound.arena.arrays.values())
                    helper_started.set()
                    return out
                assert helper_started.wait(20), "no helper took a part"
                return run_part(part)

            plan._run = held_part
            plan(x)
            assert len(thread_storage().arrays) > 0
            del plan, run_part, held_part
            gc.collect()
            return len(thread_storage().arrays)

        assert _on_fresh_thread(run) == 0
        assert helper_arrays
        gc.collect()
        assert [r for r in helper_arrays if r() is not None] == []

    @pytest.mark.parametrize("formats", (None, "8(4)-8(4)"),
                             ids=("float", "fixed"))
    def test_a_refreshed_session_binds_to_the_arrays_it_had(self,
                                                            formats):
        """The first batch after ``refresh()`` allocates no storage
        array: the new plan binds to the ones the old plan's bindings
        hold, and the old plan goes after that batch."""
        def run():
            model = build_model("ode_botnet", profile="tiny",
                                inference=True)
            net = model if formats is None else QuantizedODENetExecutor(
                model, *parse_format_pair(formats))
            session = InferenceSession(
                net, config=SessionConfig(backend="fused"))
            x = _batch("tiny", 3)
            old = session.predict_batch(x)
            before = {k: weakref.ref(a)
                      for k, a in thread_storage().arrays.items()}
            model.load_state_dict(build_model(
                "ode_botnet", profile="tiny", seed=1, inference=True,
            ).state_dict())
            session.refresh()
            assert not np.array_equal(session.predict_batch(x), old)
            gc.collect()
            after = dict(thread_storage().arrays)
            assert after.keys() == before.keys()
            assert all(after[k] is ref() for k, ref in before.items())

        _on_fresh_thread(run)

    def test_bind_time_constants_are_derived_once(self, monkeypatch):
        """Each time conv's planes and weights are derived on the first
        bind at an input size and shared, read-only, by every later
        binding of the plan, whatever its batch or thread."""
        calls = []
        derive = plan_module._time_conv_constants

        def counted(tc, h, w, *args):
            calls.append((id(tc), h, w))
            return derive(tc, h, w, *args)

        monkeypatch.setattr(plan_module, "_time_conv_constants", counted)
        model = build_model("ode_botnet", profile="tiny", inference=True)
        plan = compile_model(model)
        for n in (1, 2, 4):
            plan(_batch("tiny", n))
        _on_fresh_thread(plan, _batch("tiny", 3))
        assert len(calls) == len(set(calls)) == 6  # 3 blocks × 2 convs
        shared = [v for k, v in plan._constants.items() if len(k) == 3]
        assert len(shared) == 6
        for planes, wmat_t, w_rows in shared:
            for array in (*planes, wmat_t, w_rows):
                assert array is None or not array.flags.writeable
