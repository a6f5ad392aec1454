"""repro.kernels: registry semantics, shape helpers, backend parity.

The kernel layer's contract has three parts, each pinned here:

* **registry / selection** — backends register by name, `use_backend`
  is thread-local and restores on exit, the env default resolves, and
  unknown names fail loudly;
* **shapes** — the deduplicated NCHW geometry helpers agree with the
  layers that used to own private copies of the formulas;
* **parity** — for every registry model the ``fused`` backend agrees
  with ``reference`` to float rounding (≤1e-6 relative) and the
  ``reference`` backend is *bit-identical* to the model's own eval
  forward; integer fixed-point results are exactly backend-invariant;
  gradcheck passes routed through the dispatch layer under both
  backends; integer GEMMs on ``fused`` reroute through float BLAS
  bit-identically.
"""

import numpy as np
import pytest

from repro import kernels
from repro.fixedpoint import QFormat, QuantizedMHSA2d
from repro.kernels import shapes
from repro.models import MODELS, build_model
from repro.nn import MHSA2d, functional
from repro.runtime import InferenceSession, SessionConfig
from repro.tensor import Tensor, gradcheck


def _relative_close(ref, out, tol=1e-6):
    """≤ *tol* relative to the reference's magnitude (floor 1.0)."""
    scale = max(1.0, float(np.abs(ref).max()))
    return float(np.abs(np.asarray(ref) - np.asarray(out)).max()) <= tol * scale


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert kernels.available_backends() == ("fused", "reference")

    def test_compiled_is_an_alias_of_fused(self):
        assert kernels.get_backend("compiled") is kernels.get_backend("fused")
        with kernels.use_backend("compiled"):
            assert kernels.backend_name() == "fused"
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("quantized")

    def test_default_backend_matches_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert kernels.default_backend_name() == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "fused")
        assert kernels.default_backend_name() == "fused"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("cuda")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with kernels.use_backend("nope"):
                pass

    def test_use_backend_applies_and_restores(self):
        before = kernels.backend_name()
        with kernels.use_backend("fused"):
            assert kernels.backend_name() == "fused"
            with kernels.use_backend("reference"):
                assert kernels.backend_name() == "reference"
            assert kernels.backend_name() == "fused"
        assert kernels.backend_name() == before

    def test_use_backend_is_scoped_to_enter(self):
        """`use_backend` validates eagerly but applies only at
        __enter__ — constructing one must not leak a backend switch."""
        before = kernels.backend_name()
        switch = kernels.use_backend("fused")
        assert kernels.backend_name() == before
        with switch as backend:
            assert backend is kernels.get_backend("fused")
            assert kernels.backend_name() == "fused"
        assert kernels.backend_name() == before

    def test_resolve_backend_precedence(self, monkeypatch):
        """explicit arg > ambient context > $REPRO_BACKEND default."""
        explicit = kernels.resolve_backend("fused")
        assert explicit is kernels.get_backend("fused")
        with kernels.use_backend("fused"):
            assert kernels.resolve_backend() is kernels.get_backend("fused")
            # explicit still wins inside an ambient scope
            assert kernels.resolve_backend("reference") is kernels.get_backend(
                "reference"
            )
        assert kernels.resolve_backend() is kernels.get_backend(
            kernels.backend_name()
        )

    def test_thread_locality(self):
        import threading

        seen = {}

        def probe():
            seen["worker"] = kernels.backend_name()

        with kernels.use_backend("fused"):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["worker"] == kernels.default_backend_name()

    def test_every_kernel_is_dispatchable(self):
        for name in kernels.KERNELS:
            fn = getattr(kernels, name)
            assert callable(fn)
            for backend in ("reference", "fused"):
                assert callable(getattr(kernels.get_backend(backend), name))


class TestShapes:
    """The deduplicated geometry helpers (satellite: one formula, one home)."""

    @pytest.mark.parametrize(
        "h,w,kh,kw,sh,sw,ph,pw",
        [
            (32, 32, 3, 3, 1, 1, 1, 1),
            (32, 32, 7, 7, 2, 2, 3, 3),
            (9, 7, 2, 2, 2, 2, 0, 0),
            (8, 8, 3, 3, 2, 2, 1, 1),
            (5, 5, 5, 5, 1, 1, 0, 0),
        ],
    )
    def test_conv_out_size_matches_brute_force(self, h, w, kh, kw, sh, sw, ph, pw):
        oh, ow = shapes.conv_out_size(h, w, kh, kw, sh, sw, ph, pw)
        # brute force: count valid anchor positions on the padded canvas
        assert oh == len(range(0, h + 2 * ph - kh + 1, sh))
        assert ow == len(range(0, w + 2 * pw - kw + 1, sw))

    def test_conv_out_size_rejects_empty_output(self):
        with pytest.raises(ValueError, match="empty"):
            shapes.conv_out_size(2, 2, 5, 5, 1, 1, 0, 0)

    def test_out_size_agrees_with_actual_conv_and_pool(self, rng):
        """The formula's one home must agree with what the kernels
        actually produce (this is what the dedup must not break)."""
        x = rng.normal(size=(2, 3, 11, 9)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        out = kernels.conv2d(x, w, stride=(2, 2), padding=(1, 1))
        assert out.shape[2:] == shapes.conv_out_size(11, 9, 3, 3, 2, 2, 1, 1)
        pooled = kernels.maxpool2d(x, (2, 2), (2, 2), (1, 1))
        assert pooled.shape[2:] == shapes.conv_out_size(11, 9, 2, 2, 2, 2, 1, 1)

    def test_pad_nchw(self, rng):
        x = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
        xp = shapes.pad_nchw(x, 1, 2)
        assert xp.shape == (1, 2, 5, 7)
        np.testing.assert_array_equal(xp[:, :, 1:4, 2:5], x)
        assert xp[0, 0, 0, 0] == 0.0
        assert shapes.pad_nchw(x, 0, 0) is x

    def test_pool_pad_value(self):
        assert shapes.pool_pad_value(np.dtype(np.float32)) == -np.inf
        assert shapes.pool_pad_value(np.dtype(np.int64)) == np.iinfo(np.int64).min

    def test_fixedpoint_maxpool_padding_identity_preserved(self, rng):
        """int-min padding can never win a max — the property the
        fixed-point layer's private copy used to guarantee."""
        from repro.fixedpoint.quantized_layers import fixed_maxpool2d

        x = (rng.normal(size=(1, 2, 4, 4)) * 100).astype(np.int64)
        out = fixed_maxpool2d(x, (3, 3), (1, 1), (1, 1))
        assert out.shape == (1, 2, 4, 4)
        assert out.max() == x.max()


def _model_input(batch=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)


class TestBackendParity:
    @pytest.mark.parametrize("name", MODELS)
    def test_reference_bit_exact_and_fused_close(self, name):
        model = build_model(name, profile="tiny", inference=True)
        x = _model_input()
        with kernels.use_backend("reference"):
            eval_fwd = model(Tensor(x, _copy=False)).data
            ref = InferenceSession(model).predict_batch(x)
        assert np.array_equal(ref, eval_fwd)  # reference == autograd eval, bitwise
        with kernels.use_backend("fused"):
            fused = InferenceSession(model).predict_batch(x)
        assert _relative_close(ref, fused), (
            f"{name}: fused deviates by "
            f"{np.abs(ref - fused).max():.3g} (>1e-6 relative)"
        )

    def test_session_backend_kwarg_matches_use_backend(self):
        model = build_model("ode_botnet", profile="tiny", inference=True)
        x = _model_input(batch=2, seed=7)
        with kernels.use_backend("fused"):
            via_ctx = InferenceSession(model).predict_batch(x)
        via_config = InferenceSession(
            model, config=SessionConfig(backend="fused")
        ).predict_batch(x)
        assert np.array_equal(via_ctx, via_config)

    def test_session_rejects_unknown_backend(self):
        model = build_model("odenet", profile="tiny", inference=True)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            InferenceSession(model, config=SessionConfig(backend="tpu"))

    def test_eval_fast_path_parity_both_backends(self, rng):
        """functional.mhsa2d_eval vs the module forward, per backend."""
        m = MHSA2d(8, 3, 3, heads=2, attention_activation="relu",
                   out_layernorm=True, rng=rng)
        m.eval()
        x = rng.normal(size=(2, 8, 3, 3)).astype(np.float32)
        for backend in ("reference", "fused"):
            with kernels.use_backend(backend):
                from repro.tensor import no_grad

                with no_grad():
                    t_out = m(Tensor(x)).data
                np.testing.assert_allclose(
                    t_out, functional.mhsa2d_eval(m, x), rtol=1e-5, atol=1e-6
                )

    def test_fixedpoint_exact_across_backends(self, rng):
        """Integer accumulation is associative: quantised outputs must be
        *identical* whichever backend runs the integer GEMMs."""
        m = MHSA2d(8, 3, 3, heads=2, attention_activation="relu",
                   out_layernorm=True, rng=rng)
        x = rng.normal(size=(2, 8, 3, 3)).astype(np.float32)
        q = QuantizedMHSA2d(m, QFormat(32, 16), QFormat(24, 8))
        with kernels.use_backend("reference"):
            ref = q(x)
        with kernels.use_backend("fused"):
            fused = q(x)
        np.testing.assert_array_equal(ref, fused)

    @pytest.mark.parametrize("backend", ("reference", "fused"))
    def test_gradcheck_through_dispatch(self, backend, rng):
        """Autograd ops route forwards through the kernel seam; analytic
        gradients must match finite differences under both backends."""
        from repro import nn

        conv = nn.Conv2d(3, 4, kernel_size=3, stride=2, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 7, 7))
        with kernels.use_backend(backend):
            assert gradcheck(lambda t: conv(t).relu(), [x])
            w = rng.normal(size=(5, 4))
            assert gradcheck(
                lambda a, b: (a @ b).mean(axis=0).max(), [x.reshape(2, -1)[:, :5], w]
            )

    @pytest.mark.parametrize("backend", ("reference", "fused"))
    def test_kernel_level_parity(self, backend, rng):
        """Spot-check each kernel family directly at the dispatch layer."""
        ref = kernels.get_backend("reference")
        b = kernels.get_backend(backend)
        x = rng.normal(size=(2, 6, 8, 8)).astype(np.float32)
        w_dense = rng.normal(size=(4, 6, 3, 3)).astype(np.float32)
        w_pw = rng.normal(size=(4, 6, 1, 1)).astype(np.float32)
        w_dw = rng.normal(size=(6, 1, 3, 3)).astype(np.float32)
        cases = [
            (ref.conv2d(x, w_dense, (1, 1), (1, 1), 1),
             b.conv2d(x, w_dense, (1, 1), (1, 1), 1)),
            (ref.conv2d(x, w_pw, (1, 1), (0, 0), 1),
             b.conv2d(x, w_pw, (1, 1), (0, 0), 1)),
            (ref.conv2d(x, w_dw, (1, 1), (1, 1), 6),
             b.conv2d(x, w_dw, (1, 1), (1, 1), 6)),
            (ref.maxpool2d(x, (2, 2), (2, 2), (1, 1)),
             b.maxpool2d(x, (2, 2), (2, 2), (1, 1))),
            (ref.softmax(x, axis=-1), b.softmax(x, axis=-1)),
            (ref.batchnorm2d(x, x.mean(axis=(0, 2, 3), keepdims=True), 0.5),
             b.batchnorm2d(x, x.mean(axis=(0, 2, 3), keepdims=True), 0.5)),
        ]
        for got_ref, got_b in cases:
            assert _relative_close(got_ref, got_b)


# ODE-family registry models — the ones QuantizedODENetExecutor accepts.
ODE_MODELS = ("odenet", "ode_botnet")

# Q-format pairs spanning the degrade ladder (8/4-bit rungs), the
# paper's headline deployment format, and one pair wide enough to force
# the backend's exact-int64 fallback (accumulators > 53 bits).
QUANT_FORMATS = ("16(8)-12(4)", "8(4)-8(4)", "4(2)-4(2)", "32(16)-24(8)")


def _quantized_executor(name, fmt="16(8)-12(4)"):
    from repro.fixedpoint import QuantizedODENetExecutor, parse_format_pair

    model = build_model(name, profile="tiny", inference=True)
    ffmt, pfmt = parse_format_pair(fmt)
    return QuantizedODENetExecutor(model, ffmt, pfmt)


class TestFusedIntegerPath:
    """The fused backend's integer path: exact integer GEMMs rerouted
    through float BLAS.  Its whole contract is *bit-identity* with the
    scalar reference path — any deviation means the mantissa bound is
    wrong."""

    @pytest.mark.parametrize("name", ODE_MODELS)
    def test_executor_bit_identical_per_model(self, name):
        """Per registry model: executor.run under the fused backend is
        bit-identical to the scalar reference path."""
        q = _quantized_executor(name)
        x = _model_input(batch=2)
        with kernels.use_backend("reference"):
            ref = q.run(x)
        with kernels.use_backend("fused"):
            out = q.run(x)
        np.testing.assert_array_equal(ref, out)

    @pytest.mark.parametrize("fmt", QUANT_FORMATS)
    def test_executor_bit_identical_per_format(self, fmt):
        """Per Q-format profile — including a pair wide enough that the
        backend must fall back to exact int64 accumulation."""
        q = _quantized_executor("ode_botnet", fmt)
        x = _model_input(batch=2, seed=3)
        with kernels.use_backend("reference"):
            ref = q.run(x)
        with kernels.use_backend("fused"):
            out = q.run(x)
        np.testing.assert_array_equal(ref, out)

    @pytest.mark.parametrize("name", ODE_MODELS)
    def test_session_quantized_plan_bit_identical(self, name):
        """SessionConfig(backend='fused') binds the compiled fixed-point
        plan and must reproduce the executor's reference output
        bit-for-bit."""
        from repro.runtime import SessionConfig

        q = _quantized_executor(name)
        x = _model_input(batch=2, seed=11)
        with kernels.use_backend("reference"):
            ref = q.run(x)
        session = InferenceSession(q, config=SessionConfig(backend="fused"))
        assert session.plan_kind == "quantized"
        np.testing.assert_array_equal(ref, session.predict_batch(x))

    def test_quantized_mhsa_exact_under_fused_backend(self, rng):
        """The backend-invariance contract holds with the reroute on:
        identical integers whichever backend runs the GEMMs."""
        m = MHSA2d(8, 3, 3, heads=2, attention_activation="relu",
                   out_layernorm=True, rng=rng)
        x = rng.normal(size=(2, 8, 3, 3)).astype(np.float32)
        q = QuantizedMHSA2d(m, QFormat(16, 8), QFormat(12, 4))
        with kernels.use_backend("reference"):
            ref = q(x)
        with kernels.use_backend("fused"):
            out = q(x)
        np.testing.assert_array_equal(ref, out)

    def test_integer_gemm_kernels_exact(self, rng):
        """Kernel-level: int64 operands through matmul/linear/conv2d
        come back as exact int64 results."""
        b = kernels.get_backend("fused")
        ref = kernels.get_backend("reference")
        a = rng.integers(-(1 << 15), 1 << 15, size=(4, 64)).astype(np.int64)
        w = rng.integers(-(1 << 11), 1 << 11, size=(64, 8)).astype(np.int64)
        got = b.matmul(a, w)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref.matmul(a, w))
        x = rng.integers(-(1 << 15), 1 << 15, size=(2, 6, 8, 8)).astype(np.int64)
        k = rng.integers(-(1 << 11), 1 << 11, size=(4, 6, 3, 3)).astype(np.int64)
        np.testing.assert_array_equal(
            b.conv2d(x, k, (1, 1), (1, 1), 1), ref.conv2d(x, k, (1, 1), (1, 1), 1)
        )

    def test_float_inputs_fall_through_to_fused(self, rng):
        """Float work is untouched by the integer reroute: float32 stays
        float32 and agrees with the reference to float rounding."""
        b = kernels.get_backend("fused")
        ref = kernels.get_backend("reference")
        x = rng.normal(size=(2, 6, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 6, 3, 3)).astype(np.float32)
        got = b.conv2d(x, w, (1, 1), (1, 1), 1)
        assert got.dtype == np.float32
        assert _relative_close(ref.conv2d(x, w, (1, 1), (1, 1), 1), got)


class TestInstrumentation:
    def test_collect_counts_calls_seconds_bytes(self, rng):
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        counters = kernels.KernelCounters()
        with kernels.collect(counters):
            kernels.conv2d(x, w, padding=(1, 1))
            kernels.conv2d(x, w, padding=(1, 1))
            kernels.relu(x)
        assert counters.calls["conv2d"] == 2
        assert counters.calls["relu"] == 1
        assert counters.seconds["conv2d"] > 0
        assert counters.bytes["relu"] >= x.nbytes
        top = counters.snapshot()
        assert set(top) == {"conv2d", "relu"}

    def test_collect_is_scoped(self, rng):
        x = rng.normal(size=(2, 2)).astype(np.float32)
        counters = kernels.KernelCounters()
        with kernels.collect(counters):
            kernels.relu(x)
        kernels.relu(x)  # outside the block: not recorded
        assert counters.calls["relu"] == 1

    def test_session_stats_kernel_breakdown(self):
        """A session dispatch inside ``kernels.collect`` yields its
        per-kernel breakdown; the session's own stats keep none."""
        model = build_model("ode_botnet", profile="tiny", inference=True)
        session = InferenceSession(model)
        with kernels.collect() as counters:
            session.predict_batch(_model_input(batch=2, seed=4))
        snap = counters.snapshot()
        conv = snap["conv2d"]
        assert conv["calls"] > 0 and conv["seconds"] > 0 and conv["bytes"] > 0
        # the ODE plan's hot loop: matmul (attention) + conv
        assert "matmul" in snap
        assert "kernels" not in session.stats.snapshot()
