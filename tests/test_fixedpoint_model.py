"""Tests for full-model fixed-point inference (quantized layers + executor)."""

import numpy as np
import pytest

from repro import nn
from repro.fixedpoint import (
    QFormat,
    QuantizedODENetExecutor,
    fixed_bn_apply,
    fixed_conv2d,
    fixed_euler_update,
    fixed_global_avgpool,
    fixed_linear,
    fixed_maxpool2d,
    fold_batchnorm,
    full_model_quant_accuracy,
)
from repro.models import build_model
from repro.tensor import Tensor, no_grad

F = QFormat(32, 16)
P = QFormat(24, 8)


class TestFixedConv:
    def test_matches_float_conv(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        ref = Tensor(x, dtype=np.float64).conv2d(
            Tensor(w, dtype=np.float64), stride=(2, 2), padding=(1, 1)
        ).data
        out = F.dequantize(
            fixed_conv2d(F.quantize(x), F, P.quantize(w), P, F,
                         stride=(2, 2), padding=(1, 1))
        )
        np.testing.assert_allclose(out, ref, atol=1e-2)

    def test_grouped(self, rng):
        x = rng.normal(size=(1, 4, 5, 5))
        w = rng.normal(size=(4, 1, 3, 3))
        ref = Tensor(x, dtype=np.float64).conv2d(
            Tensor(w, dtype=np.float64), padding=(1, 1), groups=4
        ).data
        out = F.dequantize(
            fixed_conv2d(F.quantize(x), F, P.quantize(w), P, F,
                         padding=(1, 1), groups=4)
        )
        np.testing.assert_allclose(out, ref, atol=1e-2)

    def test_bias(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        w = rng.normal(size=(3, 2, 1, 1))
        b = rng.normal(size=(3,))
        ref = (
            Tensor(x, dtype=np.float64).conv2d(Tensor(w, dtype=np.float64)).data
            + b.reshape(1, -1, 1, 1)
        )
        out = F.dequantize(
            fixed_conv2d(F.quantize(x), F, P.quantize(w), P, F,
                         bias_raw=P.quantize(b), bias_fmt=P)
        )
        np.testing.assert_allclose(out, ref, atol=1e-2)


class TestFixedBN:
    def test_fold_and_apply_matches_eval_bn(self, rng):
        bn = nn.BatchNorm2d(4)
        # give the BN non-trivial trained state
        bn(Tensor((rng.normal(size=(16, 4, 5, 5)) * 2 + 1).astype(np.float32)))
        bn.weight.data[:] = rng.uniform(0.5, 1.5, size=4)
        bn.bias.data[:] = rng.normal(size=4)
        bn.eval()
        x = rng.normal(size=(2, 4, 3, 3))
        with no_grad():
            ref = bn(Tensor(x, dtype=np.float64)).data
        scale, shift = fold_batchnorm(bn, P)
        out = F.dequantize(fixed_bn_apply(F.quantize(x), F, scale, shift, P, F))
        np.testing.assert_allclose(out, ref, atol=2e-2)


class TestFixedMisc:
    def test_linear_matches(self, rng):
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=(4,))
        ref = x @ w.T + b
        out = F.dequantize(
            fixed_linear(F.quantize(x), F, P.quantize(w), P, F,
                         bias_raw=P.quantize(b), bias_fmt=P)
        )
        np.testing.assert_allclose(out, ref, atol=1e-2)

    def test_maxpool_exact(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        raw = F.quantize(x)
        out = fixed_maxpool2d(raw, (2, 2))
        ref = raw.reshape(1, 2, 2, 2, 2, 2).max(axis=(3, 5))
        np.testing.assert_array_equal(out, ref)

    def test_maxpool_padding_uses_minus_inf(self):
        raw = F.quantize(-np.ones((1, 1, 2, 2)))
        out = fixed_maxpool2d(raw, (2, 2), stride=(2, 2), padding=(1, 1))
        assert (out <= 0).all()

    def test_global_avgpool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.dequantize(fixed_global_avgpool(F.quantize(x), F))
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), atol=1e-4)

    def test_euler_update(self, rng):
        z = rng.normal(size=(4,))
        f = rng.normal(size=(4,))
        out = F.dequantize(
            fixed_euler_update(F.quantize(z), F.quantize(f), F, 0.125, P)
        )
        np.testing.assert_allclose(out, z + 0.125 * f, atol=1e-3)


class TestExecutor:
    @pytest.fixture(scope="class")
    def trained(self):
        from repro.experiments.quantization import trained_proposed_model

        return trained_proposed_model(profile="tiny", epochs=6,
                                      n_train_per_class=30)

    def _eval_batch(self, n_per_class=10):
        from repro.data import DataLoader, SynthSTL

        test = SynthSTL("test", size=32, n_per_class=n_per_class, seed=0)
        return next(iter(DataLoader(test, batch_size=len(test))))

    def test_wide_format_matches_float_logits(self, trained):
        images, labels = self._eval_batch()
        with no_grad():
            ref = trained(Tensor(images)).data
        out = QuantizedODENetExecutor(trained, F, P).run(images)
        # logits agree to well under any decision margin
        assert np.abs(out - ref).max() < 0.08
        assert (np.argmax(out, axis=-1) == np.argmax(ref, axis=-1)).all()

    def test_rejects_training_mode(self, trained):
        trained.train()
        try:
            with pytest.raises(ValueError):
                QuantizedODENetExecutor(trained, F, P)
        finally:
            trained.eval()

    def test_rejects_non_odenet(self, rng):
        model = build_model("resnet50", profile="tiny").eval()
        with pytest.raises(TypeError):
            QuantizedODENetExecutor(model, F, P)

    @pytest.mark.parametrize("attention", ("linear", "window"))
    def test_rejects_attention_it_cannot_run(self, attention):
        """Only MHSA2d has a fixed-point datapath: a linear or window
        attention block is refused at construction, by name — not with
        an AttributeError or a broadcast error on the first run."""
        model = build_model("ode_botnet", profile="paper", inference=True,
                            attention=attention)
        with pytest.raises(NotImplementedError, match="block3.*MHSA2d"):
            QuantizedODENetExecutor(model, F, P)

    def test_rejects_absolute_position_encoding(self):
        model = build_model("ode_botnet", profile="tiny", inference=True,
                            pos_enc="absolute")
        with pytest.raises(NotImplementedError, match="block3.*absolute"):
            QuantizedODENetExecutor(model, F, P)

    def test_works_on_plain_odenet(self, rng):
        model = build_model("odenet", profile="tiny").eval()
        images = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        with no_grad():
            ref = model(Tensor(images)).data
        out = QuantizedODENetExecutor(model, F, P).run(images)
        assert np.abs(out - ref).max() < 0.05

    def test_accuracy_degrades_at_narrow_formats(self, trained):
        """The full-network Table VIII shape: flat then collapse."""
        images, labels = self._eval_batch(n_per_class=15)
        rows = full_model_quant_accuracy(
            trained, images, labels,
            ("32(16)-24(8)", "16(8)-12(4)", "6(3)-6(2)", "4(2)-4(2)"),
        )
        by = {r["format"]: r["accuracy"] for r in rows}
        assert by["16(8)-12(4)"] >= by["32(16)-24(8)"] - 5
        assert by["4(2)-4(2)"] < by["32(16)-24(8)"] - 15

    def test_rejects_non_euler_solver(self, trained):
        from repro.ode import get_solver

        old = trained.block1.solver
        trained.block1.solver = get_solver("rk4")
        try:
            ex = QuantizedODENetExecutor(trained, F, P)
            images, _ = self._eval_batch(n_per_class=1)
            with pytest.raises(NotImplementedError):
                ex.run(images)
        finally:
            trained.block1.solver = old
