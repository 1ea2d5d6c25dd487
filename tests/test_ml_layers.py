"""Gradient checks and behavioural tests for the numpy NN layers."""

import numpy as np
import pytest

from repro.ml.layers import (
    AvgPool1d,
    BatchNorm,
    Conv1d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool1d,
    MaxPool1d,
    Relu,
)


def _numeric_grad(layer, x, index, eps=1e-6):
    """Central-difference gradient of sum(forward(x)) wrt x[index]."""
    x_plus = x.copy()
    x_plus[index] += eps
    x_minus = x.copy()
    x_minus[index] -= eps
    f_plus = layer.forward(x_plus, training=True).sum()
    f_minus = layer.forward(x_minus, training=True).sum()
    return (f_plus - f_minus) / (2 * eps)


def _check_input_grad(layer, x, indices):
    out = layer.forward(x, training=True)
    grad = layer.backward(np.ones_like(out))
    for index in indices:
        numeric = _numeric_grad(layer, x, index)
        layer.forward(x, training=True)  # restore cache
        grad = layer.backward(np.ones_like(out))
        assert grad[index] == pytest.approx(numeric, abs=1e-4), index


def _add_at_backward(layer, grad):
    """Reference Conv1d input gradient: each kernel offset scattered with
    ``np.add.at``, the loop the strided ``+=`` in ``backward`` replaced."""
    cols2, padded_shape, w2 = layer._cache
    n, _, t_out = cols2.shape
    dcols = np.einsum("ok,not->nkt", w2, grad).reshape(
        n, padded_shape[1], layer.kernel_size, t_out)
    dx_padded = np.zeros(padded_shape)
    for j in range(layer.kernel_size):
        positions = j + layer.stride * np.arange(t_out)
        np.add.at(dx_padded, (slice(None), slice(None), positions),
                  dcols[:, :, j, :])
    if layer.padding:
        return dx_padded[:, :, layer.padding:-layer.padding]
    return dx_padded


class TestGradients:
    def test_dense_input_grad(self, rng):
        layer = Dense(5, 3, rng=0)
        x = rng.normal(0, 1, (4, 5))
        _check_input_grad(layer, x, [(0, 0), (3, 4), (2, 2)])

    def test_dense_weight_grad(self, rng):
        layer = Dense(4, 2, rng=0)
        x = rng.normal(0, 1, (3, 4))
        layer.forward(x, training=True)
        layer.backward(np.ones((3, 2)))
        analytic = layer.grads[0][1, 0]
        eps = 1e-6
        layer.weight[1, 0] += eps
        f_plus = layer.forward(x).sum()
        layer.weight[1, 0] -= 2 * eps
        f_minus = layer.forward(x).sum()
        layer.weight[1, 0] += eps
        assert analytic == pytest.approx((f_plus - f_minus) / (2 * eps),
                                         abs=1e-4)

    def test_conv1d_input_grad(self, rng):
        layer = Conv1d(2, 3, 3, padding=1, rng=0)
        x = rng.normal(0, 1, (2, 2, 8))
        _check_input_grad(layer, x, [(0, 0, 0), (1, 1, 4), (0, 1, 7)])

    def test_conv1d_strided_shapes(self, rng):
        layer = Conv1d(2, 4, 5, stride=2, padding=2, rng=0)
        x = rng.normal(0, 1, (3, 2, 16))
        out = layer.forward(x)
        assert out.shape == (3, 4, 8)
        dx = layer.backward(np.ones_like(out))
        assert dx.shape == x.shape

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 2])
    def test_conv1d_backward_matches_add_at_bytes(self, rng, stride,
                                                  padding):
        """Overlapping kernel offsets (stride < kernel) and, at stride 2,
        a last column no window reaches: the same bytes as np.add.at."""
        layer = Conv1d(3, 4, 5, stride=stride, padding=padding, rng=0)
        x = rng.normal(0, 1, (2, 3, 18))
        out = layer.forward(x, training=True)
        grad = rng.normal(0, 1, out.shape)
        reference = _add_at_backward(layer, grad)
        dx = layer.backward(grad)
        assert dx.shape == reference.shape == x.shape
        assert dx.tobytes() == reference.tobytes()

    def test_batchnorm_input_grad(self, rng):
        layer = BatchNorm(3)
        x = rng.normal(2.0, 1.5, (6, 3))
        _check_input_grad(layer, x, [(0, 0), (5, 2)])

    def test_batchnorm_3d_normalizes(self, rng):
        layer = BatchNorm(4)
        x = rng.normal(5.0, 2.0, (8, 4, 10))
        out = layer.forward(x, training=True)
        assert out.mean(axis=(0, 2)) == pytest.approx(np.zeros(4), abs=1e-7)
        assert out.std(axis=(0, 2)) == pytest.approx(np.ones(4), abs=1e-3)

    def test_batchnorm_inference_uses_running_stats(self, rng):
        layer = BatchNorm(2, momentum=0.0)  # running stats = last batch
        x = rng.normal(3.0, 1.0, (64, 2))
        layer.forward(x, training=True)
        out = layer.forward(x, training=False)
        assert abs(out.mean()) < 0.1

    def test_maxpool_routes_gradient_to_argmax(self):
        layer = MaxPool1d(2)
        x = np.array([[[1.0, 5.0, 2.0, 3.0]]])
        out = layer.forward(x)
        assert out.tolist() == [[[5.0, 3.0]]]
        dx = layer.backward(np.ones_like(out))
        assert dx.tolist() == [[[0.0, 1.0, 0.0, 1.0]]]

    def test_avgpool_spreads_gradient(self):
        layer = AvgPool1d(2)
        x = np.array([[[2.0, 4.0, 6.0, 8.0]]])
        out = layer.forward(x)
        assert out.tolist() == [[[3.0, 7.0]]]
        dx = layer.backward(np.ones_like(out))
        assert dx.tolist() == [[[0.5, 0.5, 0.5, 0.5]]]

    def test_global_avg_pool(self):
        layer = GlobalAvgPool1d()
        x = np.arange(12, dtype=float).reshape(1, 2, 6)
        out = layer.forward(x)
        assert out[0, 0] == pytest.approx(2.5)
        dx = layer.backward(np.ones((1, 2)))
        assert np.allclose(dx, 1.0 / 6.0)


class TestBehaviour:
    def test_relu_masks(self):
        layer = Relu()
        x = np.array([[-1.0, 2.0]])
        assert layer.forward(x).tolist() == [[0.0, 2.0]]
        assert layer.backward(np.ones((1, 2))).tolist() == [[0.0, 1.0]]

    def test_dropout_identity_at_inference(self, rng):
        layer = Dropout(0.5, rng=0)
        x = rng.normal(0, 1, (4, 8))
        assert np.allclose(layer.forward(x, training=False), x)

    def test_dropout_preserves_expectation(self, rng):
        layer = Dropout(0.5, rng=0)
        x = np.ones((200, 50))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_flatten_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(0, 1, (2, 3, 4))
        out = layer.forward(x)
        assert out.shape == (2, 12)
        assert layer.backward(out).shape == x.shape

    def test_pool_rejects_bad_size(self):
        with pytest.raises(ValueError):
            MaxPool1d(0)
        with pytest.raises(ValueError):
            AvgPool1d(0)
