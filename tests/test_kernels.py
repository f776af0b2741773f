"""The tape kernels against the plain expressions they replace.

Each reference below is the straightforward formula: a 2-d ``matmul`` over
the flattened rows plus ``add`` for ``linear``, ``np.where`` for ``relu``,
the value at the first argmax for ``max_over_rows``, and the out-of-place
``gelu``, ``layer_norm``,
``softmax_rows`` and ``logsumexp_rows`` expressions.  The kernels compute
in place and derive backward-only state inside backward; their values and
gradients must match the references bit for bit, in float32 and float64.
"""

import math

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae.errors import InvalidArgument, InvariantViolation

RNG = np.random.default_rng(20261018)
SHAPES = [(5, 7), (2, 5, 7), (2, 3, 5, 7)]
DTYPES = [np.float32, np.float64]
_C = math.sqrt(2.0 / math.pi)
_A = 0.044715


def bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


def run(op, arrays, seed):
    """Values of ``op`` on ``arrays`` and the gradient each input receives
    when the op's output receives ``seed``.

    The seed reaches the output through ``sum_all(mul_const(out, seed))``,
    whose backward hands it 1.0 * seed: exactly ``seed``, -0 included.
    Every input enters through a ``reshape`` node, so its gradient is the
    op's own output copied once, not added onto a leaf's zeros (which
    would turn a -0 into +0).
    """
    inputs = [ad.reshape(ad.Tensor(a, requires_grad=True), a.shape) for a in arrays]
    out = op(*inputs)
    ad.sum_all(ad.mul_const(out, seed)).backward()
    return out.values, [t.grad for t in inputs]


# ---------------------------------------------------------------------------
# the plain expressions: value and input gradients for an upstream g
# ---------------------------------------------------------------------------


def ref_relu(x, g):
    mask = x > 0
    return np.where(mask, x, 0.0), [g * mask]


def ref_max_over_rows(x, g):
    idx = np.expand_dims(np.argmax(x, axis=-2), -2)
    gx = np.zeros_like(x)
    np.put_along_axis(gx, idx, np.expand_dims(g, -2), axis=-2)
    return np.take_along_axis(x, idx, axis=-2).squeeze(-2), [gx]


def ref_gelu(x, g):
    t = np.tanh(_C * (x + _A * (x * x * x)))
    d_inner = _C * (1.0 + 3.0 * _A * (x * x))
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
    return 0.5 * x * (1.0 + t), [g * local]


def ref_softmax_rows(x, g):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return y, [y * (g - (g * y).sum(axis=-1, keepdims=True))]


def ref_logsumexp_rows(x, g):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=-1, keepdims=True)
    return (m + np.log(s)).squeeze(-1), [e / s * np.expand_dims(g, -1)]


def ref_layer_norm(x, gain, bias, g, eps=1e-5):
    c = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mu) * inv
    gx = g * gain
    term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
    return xhat * gain + bias, [term * inv, (g * xhat).reshape(-1, c).sum(axis=0),
                                g.reshape(-1, c).sum(axis=0)]


def ref_linear(x, w, b=None):
    """The composite: the leading rows flattened, a 2-d matmul node, the
    rows restored, then an add node for the bias."""
    lead = x.values.shape[:-1]
    out = ad.reshape(ad.matmul(ad.reshape(x, (-1, x.values.shape[-1])), w), lead + (-1,))
    return out if b is None else ad.add(out, b)


UNARY = [
    (ad.relu, ref_relu),
    (ad.max_over_rows, ref_max_over_rows),
    (ad.gelu, ref_gelu),
    (ad.softmax_rows, ref_softmax_rows),
    (ad.logsumexp_rows, ref_logsumexp_rows),
]


def unary_input(op, shape, dtype):
    x = (RNG.normal(size=shape) * 3.0).astype(dtype)
    flat = x.reshape(-1)
    if op is ad.relu:  # exact zeros of both signs, and negatives next to them
        flat[::5] = 0.0
        flat[1::5] = -0.0
        flat[2::5] = -np.abs(flat[2::5])
    elif op is ad.max_over_rows:  # ties within rows, +0 included
        x = RNG.integers(-2, 3, size=shape).astype(dtype)
    return x


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("op, ref", UNARY, ids=[op.__name__ for op, _ in UNARY])
def test_unary_kernels_match_the_plain_expressions_bit_for_bit(op, ref, shape, dtype):
    x = unary_input(op, shape, dtype)
    g = RNG.normal(size=op(ad.Tensor(x)).values.shape).astype(dtype)
    g.reshape(-1)[::3] *= -1.0
    want, (want_gx,) = ref(x, g)
    got, (got_gx,) = run(op, [x], g)
    assert_bits_equal(got, want)
    assert_bits_equal(got_gx, want_gx)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_layer_norm_matches_the_plain_expression_bit_for_bit(shape, dtype):
    x = RNG.normal(size=shape).astype(dtype) * 2.0 + 0.5
    gain = RNG.normal(size=shape[-1:]).astype(dtype)
    bias = RNG.normal(size=shape[-1:]).astype(dtype)
    g = RNG.normal(size=shape).astype(dtype)
    want, want_grads = ref_layer_norm(x, gain, bias, g)
    got, got_grads = run(ad.layer_norm, [x, gain, bias], g)
    assert_bits_equal(got, want)
    for a, b in zip(got_grads, want_grads):
        assert_bits_equal(a, b)


@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_linear_matches_matmul_plus_add_bit_for_bit(shape, dtype, with_bias):
    arrays = [RNG.normal(size=shape).astype(dtype), RNG.normal(size=(shape[-1], 6)).astype(dtype)]
    if with_bias:
        arrays.append(RNG.normal(size=(6,)).astype(dtype))
    g = RNG.normal(size=shape[:-1] + (6,)).astype(dtype)
    want, want_grads = run(ref_linear, arrays, g)
    got, got_grads = run(ad.linear, arrays, g)
    assert_bits_equal(got, want)
    for a, b in zip(got_grads, want_grads):
        assert_bits_equal(a, b)


def fd_grad(fn, x, step=1e-6):
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn()
        flat[i] = keep - step
        lo = fn()
        flat[i] = keep
        gf[i] = (hi - lo) / (2.0 * step)
    return g


@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3), (2, 3, 2, 3)])
def test_linear_gradients_against_finite_differences(shape, with_bias):
    arrays = [RNG.normal(size=shape), RNG.normal(size=(3, 5))]
    if with_bias:
        arrays.append(RNG.normal(size=(5,)))
    probe = RNG.normal(size=shape[:-1] + (5,))

    def loss(*ts):
        return ad.sum_all(ad.mul_const(ad.linear(*ts), probe))

    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    loss(*tensors).backward()
    for t, a in zip(tensors, arrays):
        numeric = fd_grad(lambda: float(loss(*(ad.Tensor(b) for b in arrays)).values), a)
        np.testing.assert_allclose(t.grad, numeric, rtol=1e-5, atol=1e-6)


def test_linear_rejects_bad_shapes():
    x = ad.Tensor(np.zeros((2, 3)))
    with pytest.raises(InvalidArgument, match="inner dims"):
        ad.linear(x, ad.Tensor(np.zeros((4, 5))))
    with pytest.raises(InvalidArgument, match="2-d weight"):
        ad.linear(x, ad.Tensor(np.zeros((2, 3, 5))))
    with pytest.raises(InvalidArgument, match=r"bias must have shape \(5,\)"):
        ad.linear(x, ad.Tensor(np.zeros((3, 5))), ad.Tensor(np.zeros((1, 5))))


@pytest.mark.parametrize("x, w, b", [(np.float32, np.float64, np.float64),
                                     (np.float64, np.float32, np.float64),
                                     (np.float64, np.float64, np.float32)])
def test_linear_dtype_mix_names_the_op(x, w, b):
    args = [ad.Tensor(np.ones((2, 3), x)), ad.Tensor(np.ones((3, 3), w)),
            ad.Tensor(np.ones(3, b))]
    with pytest.raises(InvariantViolation, match="op 'linear' mixes float32 and float64"):
        ad.linear(*args)


# ---------------------------------------------------------------------------
# no op writes into its operands
# ---------------------------------------------------------------------------

X3 = RNG.normal(size=(2, 4, 6))
W = RNG.normal(size=(6, 6))
ROW = RNG.normal(size=(6,))
EVERY_OP = {
    "add": (lambda a, b: ad.add(a, b), [X3, ROW]),
    "mul_const": (lambda a: ad.mul_const(a, (X3 * 0.5).astype(a.values.dtype)), [X3]),
    "mul_const_number": (lambda a: ad.mul_const(a, -1.5), [X3]),
    "matmul": (lambda a, b: ad.matmul(a, b), [X3, W]),
    "linear": (lambda a, b, c: ad.linear(a, b, c), [X3, W, ROW]),
    "transpose": (lambda a: ad.transpose(a, (1, 0, 2)), [X3]),
    "reshape": (lambda a: ad.reshape(a, (8, 6)), [X3]),
    "concat": (lambda a, b: ad.concat([a, b], axis=-2), [X3, X3[0]]),
    "slice_rows": (lambda a: ad.slice_rows(a, 1, 3), [X3]),
    "gather_rows": (lambda a: ad.gather_rows(a, [3, 0, 3]), [X3]),
    "broadcast": (lambda a: ad.broadcast(a, (2, 4, 6)), [ROW]),
    "max_over_rows": (ad.max_over_rows, [X3]),
    "sum_all": (ad.sum_all, [X3]),
    "softmax_rows": (ad.softmax_rows, [X3]),
    "logsumexp_rows": (ad.logsumexp_rows, [X3]),
    "relu": (ad.relu, [X3]),
    "gelu": (ad.gelu, [X3]),
    "layer_norm": (ad.layer_norm, [X3, ROW, ROW * 0.5]),
    "l2_normalize_rows": (ad.l2_normalize_rows, [X3]),
    "chamfer_batch": (lambda a: ad.chamfer_batch(a, X3[:, :3] + 0.1), [X3]),
    "multi_head_attention": (lambda q, k: ad.multi_head_attention(q, k, k, heads=2), [X3, X3 * 2]),
    "cross_entropy": (lambda a: ad.cross_entropy(a, [[1, 2, 3, 4]] * 2), [X3]),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(EVERY_OP))
def test_forward_and_backward_leave_every_operand_unchanged(name, dtype):
    op, arrays = EVERY_OP[name]
    leaves = [ad.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    inputs = [ad.mul_const(t, 1.0) for t in leaves]  # interior parents
    before = [bits(t.values).copy() for t in leaves + inputs]
    out = op(*inputs)
    out_before = bits(out.values).copy()
    seed = RNG.normal(size=out.values.shape).astype(dtype)
    seed_before = bits(seed).copy()
    ad.sum_all(ad.mul_const(out, seed)).backward()
    for t, b in zip(leaves + inputs, before):
        np.testing.assert_array_equal(bits(t.values), b)
    np.testing.assert_array_equal(bits(out.values), out_before)
    np.testing.assert_array_equal(bits(seed), seed_before)
