import numpy as np
import pytest

from otface import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    ShapeMismatchError,
    SinkhornConfig,
    Tensor,
    conv2d,
    normalize_cols,
    normalize_rows,
    ot_distance,
    stack,
)

from conftest import check_grad, conv2d_reference, numeric_grad, rel_err


def test_rejects_non_finite_data():
    with pytest.raises(ValueError):
        Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        Tensor(np.inf)


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = Tensor(np.eye(2)) @ m
    assert np.array_equal(out.data, m.data)


def test_matmul_orthogonal_selection():
    out = Tensor([[1.0, 0.0]]) @ Tensor([[0.0], [5.0]])
    assert out.data == np.array([[0.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_matmul_grad_is_ones_times_bt():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(3, 4))
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    (a @ Tensor(b)).sum().backward()
    assert np.allclose(a.grad, np.ones((2, 4)) @ b.T)
    check_grad(lambda t: (t @ Tensor(b)).sum(), a.data, tol=1e-5)


def test_backward_requires_scalar_root():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        (t * 2.0).backward()


def test_sum_of_squares_gradient_is_2x():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, 2.0 * x.data)


def test_unreached_leaf_gets_no_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0], requires_grad=True)
    (y * y).sum().backward()
    assert x.grad is None


def test_composite_relu_matmul_gradient():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(4, 3))
    # keep pre-activations away from the relu kink
    x0 = rng.normal(size=(2, 4)) + 3.0
    check_grad(lambda t: (t @ Tensor(w)).relu().sum(), x0, tol=1e-4)


def test_gradient_accumulation_is_additive():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=5)

    def f(t):
        return (t * t).sum()

    def g(t):
        return (t.exp()).sum()

    combined = Tensor(x0, requires_grad=True)
    (f(combined) + g(combined)).backward()
    fa = Tensor(x0, requires_grad=True)
    f(fa).backward()
    ga = Tensor(x0, requires_grad=True)
    g(ga).backward()
    assert np.allclose(combined.grad, fa.grad + ga.grad)


# one finite-difference scenario per differentiable op, swept over seeds
_OP_CASES = {
    "add": lambda t, c: (t + c).sum(),
    "sub": lambda t, c: (c - t).sum(),
    "mul": lambda t, c: (t * c).sum(),
    "div": lambda t, c: (t / (c * c + 1.0)).sum(),
    "neg": lambda t, c: (-t * t).sum(),
    "exp": lambda t, c: t.exp().sum(),
    "log": lambda t, c: (t * t + 1.0).log().sum(),
    "sqrt": lambda t, c: (t * t + 1.0).sqrt().sum(),
    "cos": lambda t, c: t.cos().sum(),
    "clip": lambda t, c: (t * 0.3).clip(-0.5, 0.5).sum(),
    "relu": lambda t, c: (t * c).relu().sum(),
    "arccos": lambda t, c: (t * 0.5).arccos().sum(),
    "reshape": lambda t, c: (t.reshape(-1) * t.reshape(-1)).sum(),
    "transpose": lambda t, c: (t.mT @ c).sum(),
    "transpose_axes": lambda t, c: (t.reshape(3, 1, 3).transpose((2, 0, 1)).reshape(3, 3)
                                    * c).sum(),
    "gather": lambda t, c: (t.gather([2, 0, 2]) * 3.0).sum(),
    "mean": lambda t, c: (t * t).mean(),
    "sum_axis": lambda t, c: (t.sum(axis=1) * t.sum(axis=0)).sum(),
    "matmul": lambda t, c: (t @ c).sum(),
    "broadcast_add": lambda t, c: (t + t.sum(axis=0, keepdims=True)).sum(),
    "batched_matmul": lambda t, c: (stack([t, c]) @ stack([c, t * t]).mT).sum(),
    "normalize_rows": lambda t, c: (normalize_rows(t) * c).sum(),
    "normalize_cols": lambda t, c: (normalize_cols(t) * c).sum(),
}


@pytest.mark.parametrize("name", sorted(_OP_CASES))
def test_op_gradients_match_finite_differences(name):
    op = _OP_CASES[name]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1.0, 1.0, size=(3, 3))
        const = Tensor(rng.uniform(-1.0, 1.0, size=(3, 3)))
        check_grad(lambda t: op(t, const), x0, tol=1e-4)


# nodes that no scenario above builds, each from one call
_NODE_CASES = {
    "conv2d": lambda t, c: conv2d(t.reshape(1, 3, 3, 1), c.reshape(1, 1, 3, 3), padding=1),
    "conv2d_bias": lambda t, c: conv2d(c.reshape(1, 3, 3, 1), t.reshape(1, 1, 3, 3),
                                       padding=1, bias=t.mean().reshape(1)),
    "stack": lambda t, c: stack([t, c]),
    "ot_distance": lambda t, c: ot_distance(t, c, SinkhornConfig(epsilon=0.1)),
}
_ALL_CASES = {**_OP_CASES, **_NODE_CASES}


def _spy_on_make(monkeypatch):
    """(node, prev, backward) of every node `Tensor._make` builds from now on."""
    made, make = [], Tensor._make
    def spy(data, prev, backward=None):
        made.append((make(data, prev, backward), prev, backward))
        return made[-1][0]
    monkeypatch.setattr(Tensor, "_make", spy)
    return made


def _case_inputs():
    rng = np.random.default_rng(5)
    return rng.uniform(-1.0, 1.0, size=(2, 3, 3))


@pytest.mark.parametrize("name", sorted(_ALL_CASES))
def test_constant_inputs_leave_no_tape(monkeypatch, name):
    made = _spy_on_make(monkeypatch)
    x0, c0 = _case_inputs()
    out = _ALL_CASES[name](Tensor(x0), Tensor(c0))
    assert made[-1][0] is out
    for node, _, _ in made:
        assert not node.requires_grad
        assert node._prev == () and node._backward is None


@pytest.mark.parametrize("name", sorted(_ALL_CASES))
def test_one_grad_input_records_exactly_its_inputs(monkeypatch, name):
    made = _spy_on_make(monkeypatch)
    x0, c0 = _case_inputs()
    leaf = Tensor(x0, requires_grad=True)
    out = _ALL_CASES[name](leaf, Tensor(c0))
    assert made[-1][0] is out and out.requires_grad
    for node, prev, backward in made:
        if any(p.requires_grad for p in prev):
            assert node._prev is prev and node._backward is backward is not None
        else:
            assert node._prev == () and node._backward is None
    reached, todo = set(), [out]
    while todo:
        node = todo.pop()
        reached.add(id(node))
        todo.extend(p for p in node._prev if id(p) not in reached)
    assert id(leaf) in reached


def _sum_sq(t):
    return (t * t).sum()


def _chwn(a):
    """An (n, c, h, w) array in conv2d's batch-innermost (c, h, w, n) layout."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def _nchw(a):
    return a.transpose(3, 0, 1, 2)


def test_conv2d_ones_with_scalar_kernel():
    out = conv2d(Tensor(np.ones((1, 3, 3, 1))), Tensor([[[[2.0]]]]))
    assert out.shape == (1, 3, 3, 1)
    assert np.array_equal(out.data, np.full((1, 3, 3, 1), 2.0))


def test_conv2d_impulse_response_of_averaging_kernel():
    image = np.zeros((1, 1, 5, 5))
    image[0, 0, 2, 2] = 1.0
    kernel = np.full((1, 1, 3, 3), 1.0 / 9.0)
    out = conv2d(Tensor(_chwn(image)), Tensor(kernel), stride=1, padding=1)
    expected = np.zeros((1, 1, 5, 5))
    expected[0, 0, 1:4, 1:4] = 1.0 / 9.0
    assert np.allclose(_nchw(out.data), expected)


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeMismatchError, match="channel mismatch"):
        conv2d(Tensor(np.ones((2, 4, 4, 1))), Tensor(np.ones((1, 3, 3, 3))))


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)])
def test_conv2d_rejects_a_bias_of_the_wrong_shape(shape):
    # a (1,) bias would broadcast over the channels, and its gradient not fit it
    with pytest.raises(ShapeMismatchError, match=r"bias must be \(2,\)"):
        conv2d(Tensor(np.ones((3, 4, 4, 1))), Tensor(np.ones((2, 3, 3, 3))),
               bias=Tensor(np.ones(shape)))


def test_conv2d_rejects_an_unbatched_image():
    with pytest.raises(ShapeMismatchError, match=r"\(c,h,w,n\)"):
        conv2d(Tensor(np.ones((3, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))


def test_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x0 = _chwn(rng.normal(size=(1, 1, 5, 5)))
    k0 = rng.normal(size=(2, 1, 3, 3))
    check_grad(lambda t: _sum_sq(conv2d(t, Tensor(k0), stride=2, padding=1)),
               x0, tol=1e-4)
    check_grad(lambda t: _sum_sq(conv2d(Tensor(x0), t, stride=1, padding=0)),
               k0, tol=1e-4)
    # batched, multi-channel, with the overlapping 4x4 stride-2 windows
    x0 = _chwn(rng.normal(size=(2, 3, 6, 6)))
    k0 = rng.normal(size=(4, 3, 4, 4))
    check_grad(lambda t: _sum_sq(conv2d(t, Tensor(k0), stride=2, padding=1)),
               x0, tol=1e-6)
    check_grad(lambda t: _sum_sq(conv2d(Tensor(x0), t, stride=2, padding=1)),
               k0, tol=1e-6)
    b0 = rng.normal(size=4)
    check_grad(lambda t: _sum_sq(conv2d(Tensor(x0), Tensor(k0), stride=2, padding=1,
                                        bias=t)), b0, tol=1e-6)


def _check_against_reference(x0, k0, stride, padding, rng, x0_untaped=None):
    """The taped conv2d, with a bias, and its gradients against the nested-loop
    reference, all in (n, c, h, w) and transposed at conv2d's batch-innermost
    boundary; then the untaped forward, on `x0_untaped` (default `x0`), which
    must give the taped bytes: both run the same GEMM."""
    x = Tensor(_chwn(x0), requires_grad=True)
    kernels = Tensor(k0, requires_grad=True)
    bias = Tensor(rng.normal(size=len(k0)), requires_grad=True)
    out = conv2d(x, kernels, stride=stride, padding=padding, bias=bias)
    g = rng.normal(size=_nchw(out.data).shape)
    (out * Tensor(_chwn(g))).sum().backward()
    ref_out, ref_gx, ref_gk = conv2d_reference(x0, k0, stride, padding, g)
    assert _nchw(out.data).shape == ref_out.shape
    assert rel_err(_nchw(out.data), ref_out + bias.data[:, None, None]) < 1e-12
    assert rel_err(_nchw(x.grad), ref_gx) < 1e-12
    assert rel_err(kernels.grad, ref_gk) < 1e-12
    assert rel_err(bias.grad, g.sum(axis=(0, 2, 3))) < 1e-12
    untaped = conv2d(Tensor(_chwn(x0 if x0_untaped is None else x0_untaped)), Tensor(k0),
                     stride=stride, padding=padding, bias=Tensor(bias.data))
    assert not untaped.requires_grad
    assert untaped.data.tobytes() == out.data.tobytes()


# (c_in, c_out, extent, kernel, stride, padding): the backbone's three stage
# shapes, then kernels that are not a multiple of the stride (k3 s2, k5 s3),
# kernels at or below the stride and unpadded, and a stride-1 pad wider than 1
@pytest.mark.parametrize("c_in,c_out,extent,k,stride,padding", [
    (1, 8, 16, 3, 1, 1),
    (8, 16, 16, 4, 2, 1),
    (16, 16, 8, 4, 2, 1),
    (2, 3, 9, 3, 2, 1),
    (3, 2, 10, 5, 3, 2),
    (2, 3, 8, 4, 2, 0),
    (3, 2, 8, 2, 2, 0),
    (2, 3, 6, 3, 1, 2),
])
def test_conv2d_batched_matches_nested_loop_reference(c_in, c_out, extent, k,
                                                      stride, padding):
    rng = np.random.default_rng(c_in)
    x0 = rng.normal(size=(3, c_in, extent, extent))
    k0 = rng.normal(size=(c_out, c_in, k, k))
    _check_against_reference(x0, k0, stride, padding, rng)


# (x shape, kernel shape, stride, padding): one image, and a rectangular
# input with a rectangular kernel
@pytest.mark.parametrize("x_shape,k_shape,stride,padding", [
    ((1, 3, 9, 9), (2, 3, 3, 3), 2, 1),
    ((2, 2, 9, 7), (3, 2, 3, 1), 2, 1),
], ids=["one-image", "rectangular"])
def test_conv2d_single_image_and_rectangular_match_reference(x_shape, k_shape,
                                                             stride, padding):
    rng = np.random.default_rng(17)
    x0 = rng.normal(size=x_shape)
    k0 = rng.normal(size=k_shape)
    _check_against_reference(x0, k0, stride, padding, rng)


def test_conv2d_on_previous_stage_output_matches_reference():
    # the input is a stage-0 output, C-ordered (c, h, w, n), taped or not
    rng = np.random.default_rng(23)
    x0 = rng.normal(size=(3, 2, 8, 8))
    k_prev = rng.normal(size=(4, 2, 3, 3))
    taped = conv2d(Tensor(_chwn(x0), requires_grad=True), Tensor(k_prev), padding=1).data
    untaped = conv2d(Tensor(_chwn(x0)), Tensor(k_prev), padding=1).data
    assert untaped.tobytes() == taped.tobytes()
    assert taped.flags.c_contiguous and untaped.flags.c_contiguous
    k0 = rng.normal(size=(5, 4, 4, 4))
    _check_against_reference(_nchw(taped), k0, 2, 1, rng, x0_untaped=_nchw(untaped))


def test_conv2d_stride_2_odd_kernel_gradients_match_central_differences():
    # the loss is quadratic in either argument, so a unit step is exact up
    # to rounding
    rng = np.random.default_rng(19)
    x0 = _chwn(rng.normal(size=(2, 2, 7, 7)))
    k0 = rng.normal(size=(3, 2, 3, 3))
    check_grad(lambda t: _sum_sq(conv2d(t, Tensor(k0), stride=2, padding=1)),
               x0, tol=1e-12, eps=1.0)
    check_grad(lambda t: _sum_sq(conv2d(Tensor(x0), t, stride=2, padding=1)),
               k0, tol=1e-12, eps=1.0)


@pytest.mark.parametrize("extent,stride,padding,name", [
    (4, 0, 0, "stride"),
    (4, -1, 0, "stride"),
    (6, 1, -1, "padding"),
])
def test_conv2d_rejects_bad_stride_or_padding(extent, stride, padding, name):
    with pytest.raises(ConfigurationError, match=f"conv2d {name} must be"):
        conv2d(Tensor(np.ones((1, extent, extent, 1))), Tensor(np.ones((1, 1, 3, 3))),
               stride=stride, padding=padding)


def test_conv2d_kernel_shared_by_two_calls_accumulates_both_gradients():
    rng = np.random.default_rng(13)
    x1 = Tensor(_chwn(rng.normal(size=(2, 3, 6, 6))))
    x2 = Tensor(_chwn(rng.normal(size=(3, 3, 5, 5))))
    k0 = rng.normal(size=(2, 3, 4, 4))

    def first(t):
        return _sum_sq(conv2d(x1, t, stride=2, padding=1))

    def second(t):
        return _sum_sq(conv2d(x2, t, stride=1, padding=0))

    both = Tensor(k0, requires_grad=True)
    (first(both) + second(both)).backward()
    grads = []
    for f in (first, second):
        alone = Tensor(k0, requires_grad=True)
        f(alone).backward()
        grads.append(alone.grad)
    assert rel_err(both.grad, grads[0] + grads[1]) < 1e-12


def test_l2_normalize_345_triangle():
    assert np.allclose(normalize_rows(Tensor([[3.0, 4.0]])).data, [[0.6, 0.8]])
    assert np.allclose(normalize_cols(Tensor([[3.0], [4.0]])).data, [[0.6], [0.8]])


def test_l2_normalize_unit_vector_fixed_point():
    v = np.array([[0.0, 1.0, 0.0]])
    assert np.allclose(normalize_rows(Tensor(v)).data, v)
    assert np.allclose(normalize_cols(Tensor(v.T)).data, v.T)


def test_l2_normalize_output_norm_is_one():
    for seed in range(20):
        m = np.random.default_rng(seed).normal(size=(2, 5, 6))
        rows = normalize_rows(Tensor(m)).data
        assert np.max(np.abs(np.linalg.norm(rows, axis=-1) - 1.0)) < 1e-12
        cols = normalize_cols(Tensor(m[0])).data
        assert np.max(np.abs(np.linalg.norm(cols, axis=0) - 1.0)) < 1e-12


def test_normalize_rows_and_cols_report_offending_index():
    m = np.ones((3, 2))
    m[1] = 0.0
    with pytest.raises(DegenerateInputError, match="row 1"):
        normalize_rows(Tensor(m))
    with pytest.raises(DegenerateInputError, match="column 0"):
        normalize_cols(Tensor(np.zeros((2, 2))))
    # the Tensor constructor rejects non-finite data; op outputs can hold it
    for bad in (np.nan, np.inf):
        with pytest.raises(DegenerateInputError, match="row 0"):
            normalize_rows(Tensor._make(np.array([[bad, 1.0], [1.0, 2.0]]), ()))
        with pytest.raises(DegenerateInputError, match="column 1"):
            normalize_cols(Tensor._make(np.array([[1.0, 2.0], [1.0, bad]]), ()))


def test_log_rejects_nonpositive():
    with pytest.raises(DegenerateInputError):
        Tensor([1.0, 0.0]).log()


def test_gather_scatter_adds_duplicate_indices():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    x.gather([1, 1, 0]).sum().backward()
    assert np.array_equal(x.grad, [1.0, 2.0, 0.0])


@pytest.mark.parametrize("indices", [[3, 1, 3, 0, 3, 1, 3], 2, [[0, 4], [4, 4]], [-1, 4]])
def test_gather_scatter_is_bit_identical_to_add_at(indices):
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(5, 3, 2)), requires_grad=True)
    out = x.gather(indices)
    assert np.array_equal(out.data, np.take(x.data, indices, axis=0))
    # magnitudes spread over 1e-8..1e8, so summing in another order changes
    # the rounding
    g = rng.normal(size=out.shape) * 10.0 ** rng.integers(-8, 9, size=out.shape)
    (out * g).sum().backward()
    expected = np.zeros_like(x.data)
    np.add.at(expected, np.asarray(indices), g)
    assert np.array_equal(x.grad.view(np.int64), expected.view(np.int64))
