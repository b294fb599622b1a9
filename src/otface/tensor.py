"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is deliberately small and closed: elementwise arithmetic,
batched matmul, conv2d, relu, exp/log/sqrt/cos, arccos (guarded),
reductions, reshape/transpose, gather, stack and clip. Every op builds its
node with ``Tensor._make(data, prev, backward)``, which keeps the inputs and
the backward closure (it receives the output's gradient) only when some
input requires a gradient. State only a backward needs, such as masks and
scatter indices, is computed in the closure when it runs. Calling
``backward()`` on a scalar replays the graph in reverse topological order
and accumulates gradients into the leaves. Closures capture input tensors
and arrays, never their own output, so a tape is freed by reference
counting as soon as its root is dropped.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    ShapeMismatchError,
)

# Floor for normalization denominators; inputs below it are rejected.
EPS_NORM = 1e-12


def _checked_norms(norms: np.ndarray, name: str) -> np.ndarray:
    """Raise DegenerateInputError naming the index of the first norm that
    is NaN, infinite or <= EPS_NORM; otherwise return `norms`."""
    bad = np.argwhere(~(np.isfinite(norms) & (norms > EPS_NORM)))
    if bad.size:
        where = ", ".join(str(int(i)) for i in bad[0])
        raise DegenerateInputError(f"{name} {where} has norm {norms[tuple(bad[0])]:.3e}")
    return norms


def row_norms(rows: np.ndarray, name: str = "embedding") -> np.ndarray:
    """Checked L2 norm of every vector along the last axis."""
    return _checked_norms(np.linalg.norm(rows, axis=-1), name)


# Cap on |d/dx arccos(x)| near x = +-1, where the true derivative diverges.
_ARCCOS_GRAD_FLOOR = 1e-12


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over axes that were broadcast to reach `grad.shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Immutable-by-convention dense array plus a node in the autodiff graph.

    `.grad` holds the array a backward pass gave it, not a copy, so it may
    share memory with other gradients; it must not be updated in place.
    Accumulation always builds a new array.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("tensor data must be finite (no NaN/Inf)")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev: tuple[Tensor, ...] = ()

    # -- graph plumbing ------------------------------------------------

    @classmethod
    def _make(cls, data: np.ndarray, prev: tuple["Tensor", ...], backward=None) -> "Tensor":
        """The one node constructor: records `prev` and `backward` only if taped."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = taped = any(p.requires_grad for p in prev)
        out._prev = prev if taped else ()
        out._backward = backward if taped else None
        return out

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into `.grad` of every reachable leaf."""
        if self.data.size != 1:
            raise ContractError(
                f"backward root must be scalar, got shape {self.data.shape}"
            )
        # Iterative postorder, so a deep graph cannot hit the recursion
        # limit.
        order: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, int]] = [(self, 0)]
        while stack:
            node, child_idx = stack.pop()
            if child_idx < len(node._prev):
                stack.append((node, child_idx + 1))
                child = node._prev[child_idx]
                if child.requires_grad and id(child) not in visited:
                    visited.add(id(child))
                    stack.append((child, 0))
            else:
                order.append(node)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- introspection --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        def _bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))
        return Tensor._make(self.data + other.data, (self, other), _bw)

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: self._accum(-g))

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        def _bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))
        return Tensor._make(self.data * other.data, (self, other), _bw)

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        def _bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                g_other = -g * self.data / (other.data * other.data)
                other._accum(_unbroadcast(g_other, other.data.shape))
        return Tensor._make(self.data / other.data, (self, other), _bw)

    # -- linear algebra ---------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        """Matrix product over the last two axes; any leading (batch)
        axes must be equal on both operands."""
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] \
                or a.shape[-1] != b.shape[-2]:
            raise ShapeMismatchError(
                f"matmul requires operands of equal rank >= 2 with equal batch "
                f"axes and matching inner dims, got {a.shape} and {b.shape}"
            )
        def _bw(g):
            if self.requires_grad:
                self._accum(g @ b.mT)
            if other.requires_grad:
                other._accum(a.mT @ g)
        return Tensor._make(a @ b, (self, other), _bw)

    @property
    def mT(self) -> "Tensor":
        """Transpose of the last two axes."""
        if self.data.ndim < 2:
            raise ShapeMismatchError(f"mT expects >= 2 axes, got {self.data.shape}")
        return Tensor._make(self.data.mT, (self,), lambda g: self._accum(g.mT))

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._make(self.data.reshape(shape), (self,),
                            lambda g: self._accum(g.reshape(self.data.shape)))

    def transpose(self, axes) -> "Tensor":
        """The axes permuted as `axes` orders them, copied C-ordered."""
        back = np.argsort(axes)
        return Tensor._make(np.ascontiguousarray(self.data.transpose(axes)), (self,),
                            lambda g: self._accum(g.transpose(back)))

    def gather(self, indices) -> "Tensor":
        """Rows at `indices`; backward adds each cell's gradients in index order."""
        idx = np.asarray(indices, dtype=np.intp)
        def _bw(g):
            width = self.data[0].size
            cells = (idx.reshape(-1, 1) % len(self.data) * width + np.arange(width)).ravel()
            full = np.bincount(cells, weights=g.ravel(), minlength=self.data.size)
            self._accum(full.reshape(self.data.shape))
        return Tensor._make(np.take(self.data, idx, axis=0), (self,), _bw)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def _bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape).copy())
        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), _bw)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # -- elementwise nonlinearities --------------------------------------------

    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        return Tensor._make(value, (self,), lambda g: self._accum(g * value))

    def log(self) -> "Tensor":
        if np.any(self.data <= 0.0):
            raise DegenerateInputError("log requires strictly positive entries")
        return Tensor._make(np.log(self.data), (self,), lambda g: self._accum(g / self.data))

    def sqrt(self) -> "Tensor":
        if np.any(self.data < 0.0):
            raise DegenerateInputError("sqrt requires nonnegative entries")
        value = np.sqrt(self.data)
        return Tensor._make(value, (self,), lambda g: self._accum(g * 0.5 / value))

    def relu(self) -> "Tensor":
        return Tensor._make(np.maximum(self.data, 0.0), (self,),
                            lambda g: self._accum(g * (self.data > 0.0)))

    def cos(self) -> "Tensor":
        return Tensor._make(np.cos(self.data), (self,),
                            lambda g: self._accum(-g * np.sin(self.data)))

    def clip(self, lo: float, hi: float) -> "Tensor":
        return Tensor._make(np.clip(self.data, lo, hi), (self,),
                            lambda g: self._accum(g * ((self.data >= lo) & (self.data <= hi))))

    def arccos(self) -> "Tensor":
        """arccos with input clamped to [-1, 1] and a capped derivative.

        The true derivative diverges at +-1; the clamp plus the floor on
        1 - x^2 keeps the backward pass finite (margin logits hit the
        boundary whenever an embedding aligns exactly with its class
        weight).
        """
        clamped = np.clip(self.data, -1.0, 1.0)
        def _bw(g):
            self._accum(-g / np.sqrt(np.maximum(1.0 - clamped * clamped, _ARCCOS_GRAD_FLOOR)))
        return Tensor._make(np.arccos(clamped), (self,), _bw)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Join equally shaped tensors along a new leading axis."""
    tensors = [as_tensor(t) for t in tensors]
    def _bw(g):
        for t, g_t in zip(tensors, g):
            if t.requires_grad:
                t._accum(g_t)
    return Tensor._make(np.stack([t.data for t in tensors]), tuple(tensors), _bw)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _conv_out_extent(extent: int, k: int, stride: int, padding: int) -> int:
    span = extent + 2 * padding - k
    if span < 0:
        raise ConfigurationError(
            f"kernel extent {k} exceeds padded input extent {extent + 2 * padding}"
        )
    if span % stride != 0:
        raise ConfigurationError(
            f"non-integral conv output extent: (({extent}+2*{padding}-{k})/{stride})+1"
        )
    return span // stride + 1


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, out_h: int, out_w: int,
            out: np.ndarray | None = None) -> np.ndarray:
    """Columns (c*kh*kw, out_h*out_w*n) of a padded (c, h, w, n) input, run
    (out_h, out_w, n), copied once from a strided view, into the front of
    the flat `out` if given."""
    c, n = xp.shape[0], xp.shape[3]
    sc, sh, sw, sn = xp.strides
    windows = as_strided(xp, (c, kh, kw, out_h, out_w, n),
                         (sc, sh, sw, stride * sh, stride * sw, sn), writeable=False)
    if out is None:
        return windows.reshape(c * kh * kw, out_h * out_w * n)
    out = out[:windows.size].reshape(windows.shape)
    out[...] = windows
    return out.reshape(c * kh * kw, out_h * out_w * n)


def _conv_input_grad(g2: np.ndarray, kernels: np.ndarray, x_shape: tuple[int, ...],
                     stride: int, padding: int, out_h: int, out_w: int) -> np.ndarray:
    """Input gradient of `conv2d` from its (c_out, out_h*out_w*n) output
    gradient, in gather form. Padded-input row s*q + a meets only kernel
    rows a + s*m (columns likewise), so each of the s*s phases is a
    stride-1 correlation of the zero-padded gradient with that phase's
    flipped sub-kernel: one GEMM for all phases, then one interleave copy,
    batch innermost."""
    c, h, w, n = x_shape
    co, _, kh, kw = kernels.shape
    s, mh, mw = stride, -(-kh // stride), -(-kw // stride)
    k = np.zeros((co, c, mh * s, mw * s))
    k[:, :, :kh, :kw] = kernels
    k = k.reshape(co, c, mh, s, mw, s)[:, :, ::-1, :, ::-1]  # (co, c, m, a, l, b)
    qh, qw = out_h + mh - 1, out_w + mw - 1
    gp = np.zeros((co, qh + mh - 1, qw + mw - 1, n))
    gp[:, mh - 1:qh, mw - 1:qw] = g2.reshape(co, out_h, out_w, n)
    cols = _im2col(gp, mh, mw, 1, qh, qw)
    del gp
    phases = k.transpose(3, 5, 1, 0, 2, 4).reshape(s * s * c, -1) @ cols  # (a, b, c) rows
    del cols
    gx = phases.reshape(s, s, c, qh, qw, n).transpose(2, 3, 0, 4, 1, 5)  # (c, q, a, p, b, n)
    return gx.reshape(c, qh * s, qw * s, n)[:, padding:padding + h, padding:padding + w]


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """Strided cross-correlation of `x` with `kernels`, plus `bias` if given.

    `x` is batch-innermost (c_in, h, w, n), `kernels` (c_out, c_in, kh, kw),
    `bias` (c_out,), and the output is (c_out, oh, ow, n), where the output
    spatial extent (h + 2*padding - kh)/stride + 1 must be integral. The
    forward pass, the kernel gradient and the input gradient are each one
    2-D GEMM against im2col columns (of the input, or of the padded output
    gradient) that run (oh, ow, n), so every copy walks the batch
    innermost; the bias gradient is one row sum of the output gradient.
    """
    x = as_tensor(x)
    kernels = as_tensor(kernels)
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise ShapeMismatchError(
            f"conv2d expects (c,h,w,n) input and (co,ci,kh,kw) kernels, "
            f"got {x.data.shape} and {kernels.data.shape}"
        )
    for name, value, low in (("stride", stride, 1), ("padding", padding, 0)):
        if value < low:
            raise ConfigurationError(f"conv2d {name} must be >= {low}, got {value}")
    c_in, h, w, n = x.data.shape
    c_out, c_in_k, kh, kw = kernels.data.shape
    if c_in != c_in_k:
        raise ShapeMismatchError(
            f"conv2d channel mismatch: input has {c_in}, kernels expect {c_in_k}"
        )
    out_h = _conv_out_extent(h, kh, stride, padding)
    out_w = _conv_out_extent(w, kw, stride, padding)

    xp = x.data
    if padding:
        xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding, n))
        xp[:, padding:-padding, padding:-padding] = x.data
    cols = _im2col(xp, kh, kw, stride, out_h, out_w)  # (ci*kh*kw, oh*ow*n)
    bias = as_tensor(np.zeros(c_out) if bias is None else bias)
    if bias.data.shape != (c_out,):
        raise ShapeMismatchError(f"conv2d bias must be ({c_out},), got {bias.data.shape}")
    out_data = kernels.data.reshape(c_out, -1) @ cols
    out_data += bias.data.reshape(c_out, 1)

    def _bw(g):
        g2 = g.reshape(c_out, -1)
        if kernels.requires_grad:
            kernels._accum((g2 @ cols.T).reshape(kernels.data.shape))
        if bias.requires_grad:
            bias._accum(g2.sum(axis=1))
        if x.requires_grad:
            x._accum(_conv_input_grad(g2, kernels.data, x.data.shape, stride,
                                      padding, out_h, out_w))
    return Tensor._make(out_data.reshape(c_out, out_h, out_w, n), (x, kernels, bias), _bw)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize_rows(m: Tensor) -> Tensor:
    """L2-normalize each row of a 2-D tensor, or of every matrix in a
    stack (the vectors along the last axis)."""
    m = as_tensor(m)
    norms = (m * m).sum(axis=-1, keepdims=True).sqrt()
    _checked_norms(norms.data[..., 0], "row")
    return m / norms


def normalize_cols(m: Tensor) -> Tensor:
    """L2-normalize each column of a 2-D tensor."""
    m = as_tensor(m)
    norms = (m * m).sum(axis=0, keepdims=True).sqrt()
    _checked_norms(norms.data[0], "column")
    return m / norms
