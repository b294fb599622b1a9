"""Shared helpers: finite-difference gradients, relative error and the
nested-loop conv reference."""

import numpy as np

from otface import Tensor


def numeric_grad(f, x, eps=1e-4):
    """Central-difference gradient of scalar f at numpy array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def check_grad(build, x0, tol=1e-4, eps=1e-4):
    """build(Tensor) -> scalar Tensor; compares tape grad to central FD."""
    leaf = Tensor(x0, requires_grad=True)
    out = build(leaf)
    out.backward()
    numeric = numeric_grad(lambda arr: build(Tensor(arr)).item(), np.array(x0), eps)
    err = rel_err(leaf.grad, numeric)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"
    return err


def conv2d_reference(x, k, stride, padding, g):
    """Direct loop over (n, c_out, y, x), in the (n, c, h, w) layout: the
    conv output, and the input and kernel gradients of sum(output * g)."""
    n, _, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, (h + 2 * padding - kh) // stride + 1,
                    (w + 2 * padding - kw) // stride + 1))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for b in range(n):
        for o in range(c_out):
            for y in range(out.shape[2]):
                for x_ in range(out.shape[3]):
                    rows = slice(y * stride, y * stride + kh)
                    cols = slice(x_ * stride, x_ * stride + kw)
                    out[b, o, y, x_] = np.sum(xp[b, :, rows, cols] * k[o])
                    gxp[b, :, rows, cols] += g[b, o, y, x_] * k[o]
                    gk[o] += g[b, o, y, x_] * xp[b, :, rows, cols]
    return out, gxp[:, :, padding:padding + h, padding:padding + w], gk
