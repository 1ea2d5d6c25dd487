"""Feed-forward layers with forward/backward passes.

Every layer exposes ``forward(x, training)``, ``backward(grad)``,
and ``params`` / ``grads`` lists that optimizers update in place.
Shapes follow the (batch, features) / (batch, channels, time)
conventions.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


class Layer:
    """Base layer: stateless pass-through."""

    params: list[np.ndarray]
    grads: list[np.ndarray]

    def __init__(self) -> None:
        self.params = []
        self.grads = []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    """Fully connected layer: ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: "int | np.random.Generator | None" = None) -> None:
        super().__init__()
        gen = ensure_rng(rng)
        scale = np.sqrt(2.0 / in_features)
        self.weight = gen.normal(0.0, scale, (in_features, out_features))
        self.bias = np.zeros(out_features)
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        self.grads[0][...] = self._x.T @ grad
        self.grads[1][...] = grad.sum(axis=0)
        return grad @ self.weight.T


class Relu(Layer):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward before forward"
        return grad * self._mask


class Dropout(Layer):
    """Inverted dropout; identity at inference."""

    def __init__(self, rate: float = 0.5,
                 rng: "int | np.random.Generator | None" = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = ensure_rng(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class BatchNorm(Layer):
    """Batch normalization over the batch (and time, if 3-D) axes."""

    def __init__(self, num_features: int, momentum: float = 0.9,
                 eps: float = 1e-5) -> None:
        super().__init__()
        self.gamma = np.ones(num_features)
        self.beta = np.zeros(num_features)
        self.params = [self.gamma, self.beta]
        self.grads = [np.zeros_like(self.gamma), np.zeros_like(self.beta)]
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: tuple | None = None

    @staticmethod
    def _axes(x: np.ndarray) -> tuple[int, ...]:
        # (N, C) -> normalize over N; (N, C, T) -> over N and T.
        return (0,) if x.ndim == 2 else (0, 2)

    def _reshape(self, stat: np.ndarray, ndim: int) -> np.ndarray:
        return stat if ndim == 2 else stat[None, :, None]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        axes = self._axes(x)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (self.momentum * self.running_mean
                                 + (1 - self.momentum) * mean)
            self.running_var = (self.momentum * self.running_var
                                + (1 - self.momentum) * var)
        else:
            mean, var = self.running_mean, self.running_var
        mean_b = self._reshape(mean, x.ndim)
        var_b = self._reshape(var, x.ndim)
        x_hat = (x - mean_b) / np.sqrt(var_b + self.eps)
        self._cache = (x_hat, var_b, axes)
        return self._reshape(self.gamma, x.ndim) * x_hat \
            + self._reshape(self.beta, x.ndim)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        x_hat, var_b, axes = self._cache
        m = np.prod([grad.shape[a] for a in axes])
        self.grads[0][...] = (grad * x_hat).sum(axis=axes)
        self.grads[1][...] = grad.sum(axis=axes)
        gamma_b = self._reshape(self.gamma, grad.ndim)
        dx_hat = grad * gamma_b
        inv_std = 1.0 / np.sqrt(var_b + self.eps)
        term1 = dx_hat
        term2 = dx_hat.mean(axis=axes, keepdims=True)
        term3 = x_hat * (dx_hat * x_hat).mean(axis=axes, keepdims=True)
        del m
        return inv_std * (term1 - term2 - term3)


class Flatten(Layer):
    """(N, C, T) -> (N, C*T)."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None, "backward before forward"
        return grad.reshape(self._shape)


class GlobalAvgPool1d(Layer):
    """(N, C, T) -> (N, C) mean over time.

    Position-invariant head: ideal when the label depends on *how much*
    of a pattern occurs (e.g. counting keystroke bursts) rather than
    where it occurs.
    """

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None, "backward before forward"
        n, c, t = self._shape
        return np.repeat(grad[:, :, None], t, axis=2) / t


class Conv1d(Layer):
    """1-D convolution over (N, C_in, T) with 'valid'-after-pad output.

    Implemented with im2col so the inner loop is a single matmul.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: "int | np.random.Generator | None" = None) -> None:
        super().__init__()
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ValueError("invalid conv geometry")
        gen = ensure_rng(rng)
        scale = np.sqrt(2.0 / (in_channels * kernel_size))
        self.weight = gen.normal(
            0.0, scale, (out_channels, in_channels, kernel_size))
        self.bias = np.zeros(out_channels)
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        self._cache: tuple | None = None

    def _out_len(self, t: int) -> int:
        return (t + 2 * self.padding - self.kernel_size) // self.stride + 1

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, t = x.shape
        if self.padding:
            x = np.pad(x, ((0, 0), (0, 0), (self.padding, self.padding)))
        t_out = self._out_len(t)
        k = self.kernel_size
        # im2col: (N, C, k, T_out)
        idx = (np.arange(k)[None, :]
               + self.stride * np.arange(t_out)[:, None])  # (T_out, k)
        cols = x[:, :, idx.T]                               # (N, C, k, T_out)
        cols2 = cols.reshape(n, c * k, t_out)
        w2 = self.weight.reshape(self.weight.shape[0], c * k)
        out = np.einsum("ok,nkt->not", w2, cols2) + self.bias[None, :, None]
        self._cache = (cols2, x.shape, w2)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        cols2, padded_shape, w2 = self._cache
        n, ck, t_out = cols2.shape
        c = padded_shape[1]
        k = self.kernel_size
        self.grads[1][...] = grad.sum(axis=(0, 2))
        dw2 = np.einsum("not,nkt->ok", grad, cols2)
        self.grads[0][...] = dw2.reshape(self.weight.shape)
        dcols2 = np.einsum("ok,not->nkt", w2, grad)      # (N, C*k, T_out)
        dcols = dcols2.reshape(n, c, k, t_out)
        dx_padded = np.zeros(padded_shape)
        stop = self.stride * t_out
        for j in range(k):  # distinct positions: += adds as np.add.at
            dx_padded[:, :, j:j + stop:self.stride] += dcols[:, :, j, :]
        if self.padding:
            return dx_padded[:, :, self.padding:-self.padding]
        return dx_padded


class AvgPool1d(Layer):
    """Non-overlapping average pooling over time.

    Preserves amplitude information (unlike max pooling) — the right
    reduction when class differences are level shifts rather than
    transient peaks.
    """

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, t = x.shape
        p = self.pool_size
        t_out = t // p
        self._shape = (x.shape, t_out)
        return x[:, :, :t_out * p].reshape(n, c, t_out, p).mean(axis=3)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None, "backward before forward"
        shape, t_out = self._shape
        p = self.pool_size
        dx = np.zeros(shape)
        dx[:, :, :t_out * p] = np.repeat(grad, p, axis=2) / p
        return dx


class MaxPool1d(Layer):
    """Non-overlapping max pooling over time."""

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, t = x.shape
        p = self.pool_size
        t_out = t // p
        trimmed = x[:, :, :t_out * p].reshape(n, c, t_out, p)
        out = trimmed.max(axis=3)
        argmax = trimmed.argmax(axis=3)
        self._cache = (argmax, x.shape, t_out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        argmax, shape, t_out = self._cache
        n, c, _ = shape
        p = self.pool_size
        dx = np.zeros(shape)
        n_idx, c_idx, t_idx = np.meshgrid(
            np.arange(n), np.arange(c), np.arange(t_out), indexing="ij")
        dx[n_idx, c_idx, t_idx * p + argmax] = grad
        return dx
