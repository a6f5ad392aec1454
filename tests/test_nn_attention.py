"""Tests for MHSA2d and position encodings (paper Sec. III-A / V-A)."""

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.nn import functional
from repro.tensor import Tensor, gradcheck, no_grad


def make_mhsa(rng, **kw):
    defaults = dict(
        channels=8, height=3, width=3, heads=2, pos_enc="relative",
        attention_activation="softmax", out_layernorm=False,
    )
    defaults.update(kw)
    return nn.MHSA2d(rng=rng, **defaults)


class TestConstruction:
    def test_heads_must_divide_channels(self, rng):
        with pytest.raises(ValueError):
            nn.MHSA2d(10, 3, 3, heads=3, rng=rng)

    def test_unknown_pos_enc_raises(self, rng):
        with pytest.raises(ValueError):
            nn.MHSA2d(8, 3, 3, pos_enc="fourier", rng=rng)

    def test_unknown_activation_raises(self, rng):
        with pytest.raises(ValueError):
            nn.MHSA2d(8, 3, 3, attention_activation="gelu", rng=rng)

    def test_param_count_relative(self, rng):
        """3 D^2 projection weights + per-head rel_h/rel_w vectors."""
        m = nn.MHSA2d(64, 6, 6, heads=4, pos_enc="relative", rng=rng)
        expected = 3 * 64 * 64 + 4 * 6 * 16 * 2
        assert m.num_parameters() == expected

    def test_param_count_botnet_config(self, rng):
        """The (512, 3, 3) BoTNet MHSA of Tables I-III."""
        m = nn.MHSA2d(512, 3, 3, heads=4, rng=rng)
        assert m.num_parameters() == 3 * 512 * 512 + 4 * 3 * 128 * 2

    def test_wrong_input_shape_raises(self, rng):
        m = make_mhsa(rng)
        with pytest.raises(ValueError):
            m(Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32)))


class TestForward:
    def test_output_shape_preserved(self, rng):
        m = make_mhsa(rng)
        out = m(Tensor(rng.normal(size=(2, 8, 3, 3)).astype(np.float32)))
        assert out.shape == (2, 8, 3, 3)

    def test_softmax_attention_rows_normalized(self, rng):
        """With softmax attention the output is a convex combination of
        values, so outputs are bounded by value extremes."""
        m = make_mhsa(rng, pos_enc="none")
        x = rng.normal(size=(1, 8, 3, 3)).astype(np.float32)
        out = m(Tensor(x))
        assert np.isfinite(out.data).all()

    def test_relu_attention_runs(self, rng):
        m = make_mhsa(rng, attention_activation="relu", out_layernorm=True)
        out = m(Tensor(rng.normal(size=(1, 8, 3, 3)).astype(np.float32)))
        assert out.shape == (1, 8, 3, 3)

    def test_mhsa2d_eval_matches_tensor(self, rng):
        for act in ("softmax", "relu"):
            for pe in ("relative", "none"):
                m = make_mhsa(
                    rng, attention_activation=act, pos_enc=pe,
                    out_layernorm=(act == "relu"),
                )
                x = rng.normal(size=(2, 8, 3, 3)).astype(np.float32)
                with no_grad():
                    t_out = m(Tensor(x)).data
                np.testing.assert_allclose(
                    t_out, functional.mhsa2d_eval(m, x), rtol=1e-4, atol=1e-5
                )

    def test_mhsa2d_eval_is_bit_exact_with_forward(self):
        """The graph-free forward replays the module's op sequence on
        the same kernels, so the bits agree exactly."""
        mhsa = build_model("ode_botnet", profile="tiny", inference=True).mhsa
        x = np.random.default_rng(0).standard_normal(
            (2, mhsa.channels, mhsa.height, mhsa.width)
        ).astype(np.float32)
        assert np.array_equal(
            functional.mhsa2d_eval(mhsa, x), mhsa(Tensor(x, _copy=False)).data
        )

    def test_gradients_reach_all_params(self, rng):
        m = make_mhsa(rng, attention_activation="relu", out_layernorm=True)
        m(Tensor(rng.normal(size=(1, 8, 3, 3)).astype(np.float32))).sum().backward()
        for name, p in m.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_input_gradcheck(self, rng):
        m = make_mhsa(rng)
        for p in m.parameters():
            p.data = p.data.astype(np.float64)
        gradcheck(lambda x: m(x), [rng.normal(size=(1, 8, 3, 3)) * 0.5])


class TestPermutationProperties:
    def test_without_pos_enc_attention_is_permutation_equivariant(self, rng):
        """Sec. III-A3: self-attention without position encoding is
        equivariant — permuting input positions permutes outputs."""
        m = make_mhsa(rng, pos_enc="none")
        x = rng.normal(size=(1, 8, 3, 3)).astype(np.float32)
        n = 9
        perm = np.random.default_rng(0).permutation(n)
        xt = x.reshape(1, 8, n)
        x_perm = xt[:, :, perm].reshape(1, 8, 3, 3)
        with no_grad():
            out = m(Tensor(x)).data.reshape(1, 8, n)
            out_perm = m(Tensor(x_perm)).data.reshape(1, 8, n)
        np.testing.assert_allclose(out[:, :, perm], out_perm, rtol=1e-4, atol=1e-5)

    def test_relative_pos_enc_breaks_equivariance(self, rng):
        m = make_mhsa(rng, pos_enc="relative")
        x = rng.normal(size=(1, 8, 3, 3)).astype(np.float32)
        n = 9
        perm = np.roll(np.arange(n), 1)
        xt = x.reshape(1, 8, n)
        x_perm = xt[:, :, perm].reshape(1, 8, 3, 3)
        with no_grad():
            out = m(Tensor(x)).data.reshape(1, 8, n)
            out_perm = m(Tensor(x_perm)).data.reshape(1, 8, n)
        assert not np.allclose(out[:, :, perm], out_perm, rtol=1e-3)


class TestRelativePositionEncoding:
    def test_table_shape(self, rng):
        rel = nn.RelativePositionEncoding2d(4, 3, 5, 8, rng=rng)
        assert rel.table().shape == (4, 15, 8)

    def test_table_decomposition(self, rng):
        """R[h, y*W + x] must equal rel_h[h, y] + rel_w[h, x]."""
        rel = nn.RelativePositionEncoding2d(2, 2, 3, 4, rng=rng)
        table = rel.table().data.reshape(2, 2, 3, 4)
        for h in range(2):
            for y in range(2):
                for x in range(3):
                    np.testing.assert_allclose(
                        table[h, y, x],
                        rel.rel_h.data[h, y] + rel.rel_w.data[h, x],
                        rtol=1e-6,
                    )

    def test_gradients_flow_to_both(self, rng):
        rel = nn.RelativePositionEncoding2d(2, 3, 3, 4, rng=rng)
        rel.table().sum().backward()
        assert rel.rel_h.grad is not None
        assert rel.rel_w.grad is not None


class TestSinusoidalEncoding:
    def test_table_values(self):
        enc = nn.SinusoidalPositionEncoding(10, 8)
        assert enc.table.shape == (10, 8)
        # position 0: sin(0)=0 at even dims, cos(0)=1 at odd dims
        np.testing.assert_allclose(enc.table[0, 0::2], 0.0, atol=1e-12)
        np.testing.assert_allclose(enc.table[0, 1::2], 1.0, atol=1e-12)

    def test_bounded(self):
        enc = nn.SinusoidalPositionEncoding(50, 16)
        assert np.abs(enc.table).max() <= 1.0 + 1e-12

    def test_odd_dim_raises(self):
        with pytest.raises(ValueError):
            nn.SinusoidalPositionEncoding(10, 7)

    def test_absolute_mhsa_runs(self, rng):
        m = make_mhsa(rng, pos_enc="absolute")
        out = m(Tensor(rng.normal(size=(1, 8, 3, 3)).astype(np.float32)))
        assert out.shape == (1, 8, 3, 3)
