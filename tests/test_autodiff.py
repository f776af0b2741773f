"""Unit tests for the reverse-mode engine: every primitive against central
finite differences, plus the hand-checkable optimizer and attention cases."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae.errors import InvalidArgument, InvariantViolation, NumericError

RNG = np.random.default_rng(20260819)
FD_STEP = 1e-6
TOL = 1e-6


def fd_grad(fn, x, step=FD_STEP):
    """Central finite differences of a scalar fn over every element of x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn(x)
        flat[i] = keep - step
        lo = fn(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2.0 * step)
    return g


def check_op(build, shape, tol=TOL):
    """Compare analytic and finite-difference gradients of scalar build(x)."""
    x = RNG.normal(size=shape)
    t = ad.Tensor(x.copy(), requires_grad=True)
    out = build(t)
    assert out.values.shape == (), "check_op expects a scalar output"
    out.backward()
    numeric = fd_grad(lambda arr: float(build(ad.Tensor(arr)).values), x.copy())
    np.testing.assert_allclose(t.grad, numeric, rtol=1e-5, atol=tol)


# ---------------------------------------------------------------------------
# primitive gradients
# ---------------------------------------------------------------------------

W2 = RNG.normal(size=(5, 4))
PROBE3 = RNG.normal(size=(2, 3, 4))
PROBE2 = RNG.normal(size=(6, 5))


def test_add_broadcast_bias_grad():
    bias = ad.Tensor(RNG.normal(size=(5,)), requires_grad=True)
    x = ad.Tensor(RNG.normal(size=(4, 5)))
    out = ad.sum_all(ad.add(x, bias))
    out.backward()
    np.testing.assert_allclose(bias.grad, np.full(5, 4.0))


def test_matmul_2d_grads():
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.matmul(t, ad.Tensor(W2)), PROBE2[:, :4][:3])), (3, 5))


def test_matmul_3d_by_2d_grads():
    probe = RNG.normal(size=(2, 3, 4))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.matmul(t, ad.Tensor(W2)), probe)), (2, 3, 5))


def test_matmul_weight_grad_batched():
    x = RNG.normal(size=(2, 3, 5))
    w = ad.Tensor(W2.copy(), requires_grad=True)
    out = ad.sum_all(ad.mul_const(ad.matmul(ad.Tensor(x), w), PROBE3))
    out.backward()
    numeric = fd_grad(lambda arr: float(np.sum((x @ arr) * PROBE3)), W2.copy())
    np.testing.assert_allclose(w.grad, numeric, rtol=1e-5, atol=TOL)


def test_softmax_rows_grad():
    probe = RNG.normal(size=(4, 6))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.softmax_rows(t), probe)), (4, 6))


def test_softmax_rows_values():
    x = np.array([[1.0, 1.0, 1.0], [0.0, math.log(3.0), 0.0]])
    y = ad.softmax_rows(ad.Tensor(x)).values
    np.testing.assert_allclose(y[0], [1 / 3] * 3, atol=1e-15)
    np.testing.assert_allclose(y[1], [0.2, 0.6, 0.2], atol=1e-15)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-15)


def test_logsumexp_rows_grad():
    probe = RNG.normal(size=(3,))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.logsumexp_rows(t), probe)), (3, 5))


def test_layer_norm_grads():
    gain = ad.Tensor(RNG.normal(size=(6,)) + 1.0, requires_grad=True)
    bias = ad.Tensor(RNG.normal(size=(6,)), requires_grad=True)
    probe = RNG.normal(size=(4, 6))
    x0 = RNG.normal(size=(4, 6))

    def run(arr):
        return float(ad.sum_all(ad.mul_const(
            ad.layer_norm(ad.Tensor(arr), gain, bias), probe)).values)

    t = ad.Tensor(x0.copy(), requires_grad=True)
    out = ad.sum_all(ad.mul_const(ad.layer_norm(t, gain, bias), probe))
    out.backward()
    np.testing.assert_allclose(t.grad, fd_grad(run, x0.copy()), rtol=1e-5, atol=TOL)
    g_num = fd_grad(lambda arr: float(ad.sum_all(ad.mul_const(
        ad.layer_norm(ad.Tensor(x0), ad.Tensor(arr), bias), probe)).values),
        gain.values.copy())
    np.testing.assert_allclose(gain.grad, g_num, rtol=1e-5, atol=TOL)


def test_gelu_relu_grads():
    probe = RNG.normal(size=(5, 3))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.gelu(t), probe)), (5, 3))
    # keep relu inputs away from the kink
    x = RNG.normal(size=(5, 3))
    x[np.abs(x) < 0.1] += 0.3
    t = ad.Tensor(x.copy(), requires_grad=True)
    ad.sum_all(ad.mul_const(ad.relu(t), probe)).backward()
    numeric = fd_grad(lambda a: float(np.sum(np.maximum(a, 0.0) * probe)), x.copy())
    np.testing.assert_allclose(t.grad, numeric, rtol=1e-5, atol=TOL)


def test_max_over_rows_first_argmax_and_grad():
    x = np.array([[1.0, 5.0], [5.0, 2.0], [5.0, 5.0]])
    t = ad.Tensor(x, requires_grad=True)
    out = ad.max_over_rows(t)
    np.testing.assert_allclose(out.values, [5.0, 5.0])
    ad.sum_all(out).backward()
    expected = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])  # ties -> first row
    np.testing.assert_allclose(t.grad, expected)


def test_max_over_rows_3d():
    probe = RNG.normal(size=(3, 4))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.max_over_rows(t), probe)), (3, 5, 4))


def test_gather_rows_duplicate_indices_accumulate():
    t = ad.Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    out = ad.gather_rows(t, [2, 2, 0])
    ad.sum_all(out).backward()
    np.testing.assert_allclose(t.grad[2], [2.0, 2.0, 2.0])
    np.testing.assert_allclose(t.grad[0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(t.grad[1], 0.0)


def test_broadcast_grads():
    probe = RNG.normal(size=(4, 3))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.broadcast(t, (4, 3)), probe)), (1, 3))
    probe3 = RNG.normal(size=(2, 3, 4))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.broadcast(t, (2, 3, 4)), probe3)), (2, 1, 4))
    with pytest.raises(InvalidArgument):
        ad.broadcast(ad.Tensor(np.zeros((2, 3))), (4, 3))


def test_slice_and_concat_grads():
    probe = RNG.normal(size=(2, 3))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.slice_rows(t, 1, 3), probe)), (5, 3))

    a0 = RNG.normal(size=(2, 3))
    a = ad.Tensor(a0.copy(), requires_grad=True)
    b = ad.Tensor(RNG.normal(size=(2, 2)))
    probe2 = RNG.normal(size=(2, 5))
    ad.sum_all(ad.mul_const(ad.concat([a, b], axis=-1), probe2)).backward()
    np.testing.assert_allclose(a.grad, probe2[:, :3])

    c = ad.Tensor(a0.copy(), requires_grad=True)
    d = ad.Tensor(RNG.normal(size=(4, 3)))
    probe3 = RNG.normal(size=(6, 3))
    ad.sum_all(ad.mul_const(ad.concat([c, d], axis=-2), probe3)).backward()
    np.testing.assert_allclose(c.grad, probe3[:2])


def test_l2_normalize_rows_grad_and_floor():
    probe = RNG.normal(size=(3, 4))
    x = RNG.normal(size=(3, 4)) * 2.0
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.l2_normalize_rows(t), probe)), (3, 4))
    tiny = ad.Tensor(np.full((1, 4), 1e-15), requires_grad=True)
    out = ad.l2_normalize_rows(tiny)
    np.testing.assert_allclose(out.values, tiny.values / 1e-12)
    assert np.all(np.isfinite(out.values))
    ad.sum_all(out).backward()
    np.testing.assert_allclose(tiny.grad, np.full((1, 4), 1e12))


def test_mean_reshape_transpose_scale():
    check_op(lambda t: ad.mul_const(ad.sum_all(t), 1.0 / 12), (3, 4))
    probe = RNG.normal(size=(12,))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.reshape(t, (12,)), probe)), (3, 4))
    probe2 = RNG.normal(size=(4, 3))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.transpose(t), probe2)), (3, 4))
    check_op(lambda t: ad.mul_const(ad.sum_all(t), -2.5), (2, 2))


@pytest.mark.parametrize("op, call", [
    ("add", lambda z: ad.add(z((2, 3)), z((4, 3)))),
    ("reshape", lambda z: ad.reshape(z((2, 3)), (4, 2))),
    ("transpose", lambda z: ad.transpose(z((2, 3, 4)), (0, 0, 1))),
    ("transpose", lambda z: ad.transpose(z((2, 3, 4)), (0, -1, -2))),
    ("concat", lambda z: ad.concat([z((2, 3, 4)), z((2, 5, 3))], axis=-2)),
], ids=["add", "reshape", "transpose-repeated-axis", "transpose-negative-axes", "concat"])
def test_shape_errors_are_invalid_argument_naming_the_op(op, call):
    # numpy's own ValueError must not escape an op: each names itself
    with pytest.raises(InvalidArgument, match=op):
        call(lambda shape: ad.Tensor(np.zeros(shape), requires_grad=True))


# ---------------------------------------------------------------------------
# chamfer ops
# ---------------------------------------------------------------------------


def test_chamfer_hand_value():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    assert float(ad.chamfer_batch(ad.Tensor(a), b).values) == pytest.approx(2.0, abs=1e-15)


def test_chamfer_self_zero():
    pts = RNG.normal(size=(10, 3))
    assert float(ad.chamfer_batch(ad.Tensor(pts), pts.copy()).values) == 0.0


def test_chamfer_grad_both_sides():
    a0 = RNG.normal(size=(6, 3))
    b0 = RNG.normal(size=(9, 3))
    # the tape differentiates the first set only; the distance is symmetric,
    # so the second set's gradient is the first-set gradient with roles swapped
    ta = ad.Tensor(a0.copy(), requires_grad=True)
    tb = ad.Tensor(b0.copy(), requires_grad=True)
    ad.chamfer_batch(ta, b0).backward()
    ad.chamfer_batch(tb, a0).backward()
    ga = fd_grad(lambda arr: float(ad.chamfer_batch(ad.Tensor(arr), b0).values), a0.copy(), 1e-5)
    gb = fd_grad(lambda arr: float(ad.chamfer_batch(ad.Tensor(a0), arr).values), b0.copy(), 1e-5)
    np.testing.assert_allclose(ta.grad, ga, rtol=1e-4, atol=1e-7)
    np.testing.assert_allclose(tb.grad, gb, rtol=1e-4, atol=1e-7)


def test_chamfer_batch_matches_mean_of_singles():
    pred = RNG.normal(size=(4, 5, 3))
    gt = RNG.normal(size=(4, 7, 3))
    batched = float(ad.chamfer_batch(ad.Tensor(pred), gt).values)
    singles = [float(ad.chamfer_batch(ad.Tensor(pred[i]), gt[i]).values) for i in range(4)]
    assert batched == pytest.approx(float(np.mean(singles)), abs=1e-14)

    t = ad.Tensor(pred.copy(), requires_grad=True)
    ad.chamfer_batch(t, gt).backward()
    numeric = fd_grad(lambda arr: float(ad.chamfer_batch(ad.Tensor(arr), gt).values),
                      pred.copy(), 1e-5)
    np.testing.assert_allclose(t.grad, numeric, rtol=1e-4, atol=1e-7)


def test_chamfer_empty_set_rejected():
    with pytest.raises(InvalidArgument):
        ad.chamfer_batch(ad.Tensor(np.zeros((0, 3))), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def test_attention_hand_2x2_single_head():
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    k = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ad.multi_head_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), heads=1).values
    s = 1.0 / math.sqrt(2.0)
    logits = q @ k.T * s
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out, w @ v, atol=1e-15)


def test_attention_single_key_returns_value_row():
    q = RNG.normal(size=(5, 6))
    k = RNG.normal(size=(1, 6))
    v = RNG.normal(size=(1, 6))
    out = ad.multi_head_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), heads=3).values
    np.testing.assert_allclose(out, np.repeat(v, 5, axis=0), atol=1e-15)
    proj = RNG.normal(size=(6, 6))
    out2 = ad.matmul(ad.multi_head_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v),
                                             heads=3), ad.Tensor(proj)).values
    np.testing.assert_allclose(out2, np.repeat(v @ proj, 5, axis=0), atol=1e-14)


def test_attention_head_count_must_divide():
    x = ad.Tensor(RNG.normal(size=(3, 6)))
    with pytest.raises(InvalidArgument):
        ad.multi_head_attention(x, x, x, heads=4)


def test_attention_grads():
    q0 = RNG.normal(size=(3, 4))
    k0 = RNG.normal(size=(5, 4))
    v0 = RNG.normal(size=(5, 4))
    probe = RNG.normal(size=(3, 4))

    def run(qa, ka, va):
        return float(ad.sum_all(ad.mul_const(ad.multi_head_attention(
            ad.Tensor(qa), ad.Tensor(ka), ad.Tensor(va), heads=2), probe)).values)

    tq = ad.Tensor(q0.copy(), requires_grad=True)
    tk = ad.Tensor(k0.copy(), requires_grad=True)
    tv = ad.Tensor(v0.copy(), requires_grad=True)
    ad.sum_all(ad.mul_const(ad.multi_head_attention(tq, tk, tv, heads=2), probe)).backward()
    np.testing.assert_allclose(tq.grad, fd_grad(lambda a: run(a, k0, v0), q0.copy()), rtol=1e-5, atol=TOL)
    np.testing.assert_allclose(tk.grad, fd_grad(lambda a: run(q0, a, v0), k0.copy()), rtol=1e-5, atol=TOL)
    np.testing.assert_allclose(tv.grad, fd_grad(lambda a: run(q0, k0, a), v0.copy()), rtol=1e-5, atol=TOL)


def test_cross_entropy_matches_closed_form():
    logits = np.array([0.5, -1.0, 2.0])
    t = ad.Tensor(logits.copy(), requires_grad=True)
    loss = ad.cross_entropy(t, 2)
    expected = math.log(np.exp(logits).sum()) - logits[2]
    assert float(loss.values) == pytest.approx(expected, abs=1e-12)
    loss.backward()
    soft = np.exp(logits) / np.exp(logits).sum()
    soft[2] -= 1.0
    np.testing.assert_allclose(t.grad, soft, atol=1e-12)


# ---------------------------------------------------------------------------
# engine behaviour
# ---------------------------------------------------------------------------


def test_reused_tensor_accumulates_gradient():
    x = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    out = ad.sum_all(ad.add(x, x))
    out.backward()
    np.testing.assert_allclose(x.grad, [[2.0, 2.0]])


def test_interior_node_used_twice_by_add_gets_gradient_two():
    x = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    h = ad.mul_const(x, 1.0)
    ad.sum_all(ad.add(h, h)).backward()
    np.testing.assert_array_equal(h.grad, [[2.0, 2.0]])
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])


@pytest.mark.parametrize("view_first", [True, False])
def test_two_consumers_passing_a_view_and_a_fresh_array(view_first):
    x = ad.Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    h = ad.mul_const(x, 2.0)
    probe = RNG.normal(size=(4, 3))
    via_view = ad.sum_all(ad.mul_const(ad.reshape(h, (4, 3)), probe))  # reshape passes a view
    via_fresh = ad.sum_all(ad.mul_const(h, 3.0))                       # mul_const allocates
    parts = (via_view, via_fresh) if view_first else (via_fresh, via_view)
    ad.add(*parts).backward()
    np.testing.assert_allclose(h.grad, probe.reshape(3, 4) + 3.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(x.grad, 2.0 * (probe.reshape(3, 4) + 3.0), rtol=0, atol=1e-15)


def test_no_two_gradients_share_memory_after_backward():
    store = ad.ParamStore(seed=1)
    w, ln_g, ln_b = store.create("w", (4, 4)), store.create("g", (4,), "ones"), store.create("b", (4,))
    x = ad.Tensor(RNG.normal(size=(2, 5, 4)), requires_grad=True)
    h = ad.gelu(ad.linear(x, w, ln_b))
    h = ad.layer_norm(ad.add(h, ad.relu(h)), ln_g, ln_b)
    att = ad.matmul(ad.multi_head_attention(h, h, h, heads=2), w)
    cls = ad.broadcast(ad.slice_rows(att, 0, 1), (2, 1, 4))
    seq = ad.concat([cls, ad.gather_rows(att, np.array([1, 1, 3])), h], axis=-2)
    pooled = ad.max_over_rows(ad.l2_normalize_rows(seq))
    rows = ad.reshape(ad.transpose(seq, (1, 0, 2)), (-1, 4))
    loss = ad.add(ad.add(ad.cross_entropy(pooled, [0, 2]),
                         ad.sum_all(ad.logsumexp_rows(ad.softmax_rows(rows)))),
                  ad.chamfer_batch(ad.mul_const(seq, np.full(seq.shape, 0.5)),
                                   RNG.normal(size=(2, 3, 4))))
    # backward drops the tape's links, so collect every node before it runs
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    loss.backward()

    grads = [n.grad for n in nodes.values() if n.grad is not None]
    assert len(grads) > 30
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def test_second_backward_of_a_consumed_tape_raises():
    x = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    loss = ad.sum_all(ad.mul_const(x, 3.0))
    loss.backward()
    with pytest.raises(InvalidArgument, match="op 'sum_all'"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, [[3.0, 3.0]])


def test_new_loss_on_a_consumed_interior_node_names_its_op():
    x = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    h = ad.mul_const(x, 2.0)
    ad.sum_all(h).backward()
    with pytest.raises(InvalidArgument, match="op 'mul_const'"):
        ad.sum_all(ad.relu(h)).backward()
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])
    np.testing.assert_array_equal(h.grad, [[1.0, 1.0]])


def test_backward_frees_the_tape_it_walks():
    x = ad.Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
    w = ad.Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
    h = ad.gelu(ad.linear(x, w))
    activation = weakref.ref(h.values)
    loss = ad.sum_all(h)
    del h
    loss.backward()
    assert activation() is None
    assert x.grad is not None and np.any(x.grad != 0.0)
    assert w.grad is not None and np.any(w.grad != 0.0)


def test_non_finite_forward_raises_with_op_name():
    big = ad.Tensor(np.array([[1e308]]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="add"):
            ad.add(big, big)


def test_detach_blocks_gradient():
    x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = ad.sum_all(ad.add(x.detach(), ad.Tensor(np.zeros(2))))
    assert not out.requires_grad


def test_ops_take_any_number_of_leading_axes():
    x = ad.Tensor(RNG.normal(size=(2, 1, 2, 1, 3, 4)), requires_grad=True)
    w = ad.Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
    h = ad.multi_head_attention(ad.linear(x, w), x, x, heads=2)
    assert h.values.shape == x.values.shape
    ad.sum_all(ad.max_over_rows(h)).backward()
    assert x.grad.shape == x.values.shape and w.grad.shape == (4, 4)


def test_mul_const_by_a_number_or_an_array():
    a = ad.Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    out = ad.mul_const(a, np.float64(1.0 / 3.0))  # a number enters as a Python float
    assert out.values.dtype == np.float32
    np.testing.assert_array_equal(out.values, a.values * (1.0 / 3.0))
    ad.sum_all(out).backward()
    assert a.grad.dtype == np.float32
    with pytest.raises(InvalidArgument, match=r"mul_const shape mismatch: \(2, 3\) vs \(3,\)"):
        ad.mul_const(a, np.ones(3, np.float32))


def test_deterministic_forward():
    x = np.linspace(-1, 1, 24).reshape(4, 6)
    a = float(ad.sum_all(ad.gelu(ad.Tensor(x))).values)
    b = float(ad.sum_all(ad.gelu(ad.Tensor(x))).values)
    assert a == b


# ---------------------------------------------------------------------------
# parameters and optimizer
# ---------------------------------------------------------------------------


def test_trunc_normal_band_and_determinism():
    rng = np.random.default_rng(5)
    x = ad.truncated_normal(rng, (200, 50), std=0.02)
    assert np.abs(x).max() <= 0.04
    rng2 = np.random.default_rng(5)
    np.testing.assert_array_equal(x, ad.truncated_normal(rng2, (200, 50), std=0.02))


def truncated_normal_reference(rng, shape, std):
    """Redraw over the whole array until every entry is inside the band."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


@pytest.mark.parametrize("seed", [0, 1, 29])
@pytest.mark.parametrize("shape, std", [((), 0.02), ((1,), 1.0), ((7, 3), 0.02),
                                        ((64, 48), 0.5), ((3, 5, 4, 6), 0.02)])
def test_trunc_normal_redraws_only_the_out_of_band_entries(seed, shape, std):
    want = truncated_normal_reference(np.random.default_rng(seed), shape, std)
    rng = np.random.default_rng(seed)
    got = ad.truncated_normal(rng, shape, std)
    assert got.shape == shape
    np.testing.assert_array_equal(got, want)
    # the generator is left where the whole-array loop leaves it
    after = np.random.default_rng(seed)
    truncated_normal_reference(after, shape, std)
    assert rng.random() == after.random()


def test_param_store_order_and_duplicates():
    store = ad.ParamStore(seed=1)
    store.create("b.w", (2,))
    store.create("a.w", (2,))
    assert store.names() == ["a.w", "b.w"]
    with pytest.raises(InvalidArgument):
        store.create("a.w", (2,))
    with pytest.raises(InvalidArgument):
        store["missing"]


def test_param_store_frozen_shares_values():
    store = ad.ParamStore(seed=1)
    p = store.create("w", (2, 2))
    frozen = ad.frozen(store)["w"]
    assert not frozen.requires_grad
    p.values[0, 0] = 42.0
    assert frozen.values[0, 0] == 42.0


def test_adamw_hand_trajectory():
    """Two steps with constant grad 1 against the published recurrence."""
    store = ad.ParamStore(seed=0)
    p = store.create("p", (1,), init="zeros")
    p.values[...] = 1.0
    opt = ad.AdamW(store, lr=0.1, betas=(0.9, 0.999), weight_decay=0.0)

    val, m, v = 1.0, 0.0, 0.0
    for t in (1, 2):
        p.grad = np.ones(1)
        opt.step()
        m = 0.9 * m + 0.1 * 1.0
        v = 0.999 * v + 0.001 * 1.0
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        val -= 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
        assert float(p.values[0]) == pytest.approx(val, abs=1e-15)
        assert p.grad is None  # consumed by the step


def test_adamw_zero_grad_weight_decay_only():
    store = ad.ParamStore(seed=0)
    p = store.create("p", (3,), init="ones")
    opt = ad.AdamW(store, lr=0.5, weight_decay=0.1)
    opt.step()
    np.testing.assert_allclose(p.values, np.ones(3) * (1.0 - 0.5 * 0.1), atol=1e-15)


def test_leaf_gradient_exists_from_backward_until_the_step():
    store = ad.ParamStore(seed=0)
    w = store.create("w", (3, 2))
    assert w.grad is None and ad.Tensor(np.ones(2), requires_grad=True).grad is None
    opt = ad.AdamW(store, lr=0.1)
    x = np.arange(6.0).reshape(2, 3)
    for _ in range(2):
        ad.sum_all(ad.matmul(ad.Tensor(x), w)).backward()
        np.testing.assert_array_equal(w.grad, x.sum(axis=0)[:, None].repeat(2, axis=1))
        opt.step()
        assert w.grad is None
    ad.sum_all(ad.matmul(ad.Tensor(x), w)).backward()
    store.zero_grads()
    assert w.grad is None


def test_unreached_parameter_steps_as_with_a_zero_gradient():
    # a parameter no backward reaches still decays, exactly as if its
    # gradient had been an explicit zero
    def build():
        store = ad.ParamStore(seed=2)
        w = store.create("w", (4, 3))
        u = store.create("u", (5,))
        u.values[:2] = [-0.0, 1e-300]
        opt = ad.AdamW(store, lr=1e-2, weight_decay=0.05)
        opt.overrides["u"] = (0.2, 0.1)
        return store, w, u, opt

    (store, w, u, opt), (twin, tw, tu, twin_opt) = build(), build()
    x = ad.Tensor(np.random.default_rng(3).normal(size=(2, 4)))
    for _ in range(3):
        ad.sum_all(ad.gelu(ad.linear(x, w))).backward()
        assert u.grad is None
        ad.sum_all(ad.gelu(ad.linear(x, tw))).backward()
        tu.grad = np.zeros(5)
        opt.step()
        twin_opt.step()
        for name, p in store.items():
            assert_same_bits(p.values, twin[name].values)
            assert_same_bits(opt._m[name], twin_opt._m[name])
            assert_same_bits(opt._v[name], twin_opt._v[name])
    assert not np.array_equal(u.values, build()[2].values)


@pytest.mark.parametrize("through", [
    lambda w: ad.transpose(w),                      # a copied view of the node's gradient
    lambda w: ad.transpose(ad.mul_const(w, 1.0)),   # a fresh array in the view's layout
])
def test_leaf_gradient_through_a_transposed_view_is_c_contiguous(through):
    store = ad.ParamStore(seed=0)
    w = store.create("w", (2, 3))
    ad.sum_all(ad.mul_const(through(w), np.arange(6.0).reshape(3, 2))).backward()
    assert w.grad.flags.c_contiguous
    np.testing.assert_array_equal(w.grad, np.arange(6.0).reshape(3, 2).T)
    ad.AdamW(store, lr=0.1).step()


def test_adamw_deterministic_across_runs():
    def run():
        store = ad.ParamStore(seed=9)
        w = store.create("w", (4, 4))
        opt = ad.AdamW(store, lr=1e-3, weight_decay=0.01)
        for _ in range(5):
            loss = ad.sum_all(ad.matmul(w, ad.Tensor(w.values.T.copy())))
            loss.backward()
            opt.step()
        return w.values.copy()

    np.testing.assert_array_equal(run(), run())


def test_adamw_overrides_split_learning_rates():
    store = ad.ParamStore(seed=0)
    a = store.create("a", (2,), init="ones")
    b = store.create("b", (2,), init="ones")
    opt = ad.AdamW(store, lr=0.1)
    opt.overrides["b"] = (0.4, 0.25)
    a.grad = np.ones(2)
    b.grad = np.ones(2)
    opt.step()
    # identical gradients, so the normalised update is 1 for both; only the
    # per-name lr and decay differ
    np.testing.assert_allclose(a.values, 1.0 - 0.1, atol=1e-9)
    np.testing.assert_allclose(b.values, 1.0 - 0.4 * (1.0 + 0.25), atol=1e-9)


def test_adamw_overrides_consulted_live():
    def run(mutate):
        store = ad.ParamStore(seed=3)
        w = store.create("w", (3,))
        opt = ad.AdamW(store, lr=0.05)
        opt.overrides["w"] = (0.05, 0.0)
        for t in range(4):
            if mutate:
                opt.overrides["w"] = (0.05 / (t + 1), 0.0)
            w.grad = np.ones(3)
            opt.step()
        return w.values.copy()

    # the schedule path diverges from the constant path after the first step
    assert not np.allclose(run(True), run(False))
    # empty overrides reproduce the shared-hyperparameter trajectory exactly
    store = ad.ParamStore(seed=3)
    w = store.create("w", (3,))
    opt = ad.AdamW(store, lr=0.05)
    for _ in range(4):
        w.grad = np.ones(3)
        opt.step()
    np.testing.assert_array_equal(w.values, run(False))


class ReferenceAdamW(ad.AdamW):
    """The whole-array AdamW step the blocked one must reproduce bit for bit."""

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.store.items():
            g = np.zeros_like(p.values) if p.grad is None else p.grad
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter '{name}'")
            m, v = self._m[name], self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ad._ADAM_EPS)
            lr, wd = self.overrides.get(name, (self.lr, self.weight_decay))
            p.values -= lr * (update + wd * p.values)
            p.grad = None


def assert_same_bits(a, b):
    # compares bit patterns, so -0.0 and 0.0 differ
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_adamw_blocks_match_whole_array_reference():
    n = 3 * ad._CHUNK + 5

    def build(cls):
        store = ad.ParamStore(seed=4)
        store.create("w", (n,))
        b = store.create("b", (7,), init="zeros")
        b.values[:3] = [-0.0, 1e-300, -2.5]
        opt = cls(store, lr=1e-2, betas=(0.8, 0.99), weight_decay=0.05)
        opt.overrides["b"] = (0.1, 0.0)
        return store, opt

    (store, opt), (ref_store, ref) = build(ad.AdamW), build(ReferenceAdamW)
    rng = np.random.default_rng(5)
    for t in range(5):
        for o in (opt, ref):  # a live schedule, as pretrain sets the prototype lr
            o.overrides["b"] = (0.1 / (t + 1), 0.0 if t == 0 else 0.01 * t)
        for name, p in store.items():
            g = rng.standard_normal(p.values.shape) * 10.0 ** rng.integers(-160, 4, p.values.shape)
            g[::11] = 0.0
            if not (name == "b" and t == 2):  # step 3 leaves "b" unreached
                p.grad = g
                ref_store[name].grad = g.copy()
        opt.step()
        ref.step()
        for name, p in store.items():
            assert_same_bits(p.values, ref_store[name].values)
            assert_same_bits(opt._m[name], ref._m[name])
            assert_same_bits(opt._v[name], ref._v[name])
            assert p.grad is None


def test_float32_adamw_blocks_match_whole_array_reference():
    n = 3 * ad._CHUNK + 5

    def build(cls):
        store = ad.ParamStore(seed=4, dtype="float32")
        store.create("w", (n,))
        b = store.create("b", (7,), init="zeros")
        b.values[:3] = [-0.0, 1e-40, -2.5]  # 1e-40 is subnormal in float32
        opt = cls(store, lr=1e-2, betas=(0.8, 0.99), weight_decay=0.05)
        opt.overrides["b"] = (0.1, 0.0)
        return store, opt

    (store, opt), (ref_store, ref) = build(ad.AdamW), build(ReferenceAdamW)
    rng = np.random.default_rng(5)
    for t in range(5):
        for o in (opt, ref):
            o.overrides["b"] = (0.1 / (t + 1), 0.0 if t == 0 else 0.01 * t)
        for name, p in store.items():
            g = rng.standard_normal(p.values.shape) * 10.0 ** rng.integers(-40, 4, p.values.shape)
            g[::11] = 0.0
            if not (name == "b" and t == 2):  # step 3 leaves "b" unreached
                p.grad = g.astype(np.float32)
                ref_store[name].grad = g.astype(np.float32)
        opt.step()
        ref.step()
        for name, p in store.items():
            for got, want in ((p.values, ref_store[name].values),
                              (opt._m[name], ref._m[name]), (opt._v[name], ref._v[name])):
                assert got.dtype == want.dtype == np.float32
                np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))
            assert p.grad is None


def test_adamw_parameter_of_another_dtype_is_invariant_violation():
    store = ad.ParamStore(seed=0, dtype="float32")
    p = store.create("p", (3,))
    p.grad = np.zeros(3)
    with pytest.raises(InvariantViolation, match="'p' or its gradient is not float32"):
        ad.AdamW(store, lr=0.1).step()


@pytest.mark.parametrize("build, op", [
    (lambda a, b: ad.add(a, b), "add"),
    (lambda a, b: ad.matmul(a, b), "matmul"),
    (lambda a, b: ad.concat([a, b], axis=-1), "concat"),
    (lambda a, b: ad.mul_const(a, b.values), "mul_const"),
    (lambda a, b: ad.linear(a, a, ad.Tensor(b.values[0])), "linear"),
])
def test_mixing_float32_and_float64_operands_names_the_op(build, op):
    a = ad.Tensor(RNG.normal(size=(3, 3)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    with pytest.raises(InvariantViolation, match=f"op '{op}' mixes float32 and float64"):
        build(a, b)


def test_float64_gradient_into_a_float32_tensor_names_the_op():
    a = ad.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    out = ad.mul_const(a, 2.0)
    out._backward = lambda node: ad._accum(a, np.ones((2, 2)))
    with pytest.raises(InvariantViolation, match="backward of op 'mul_const': float64 gradient"):
        ad.sum_all(out).backward()


def test_float32_tape_stays_float32():
    x = ad.Tensor(RNG.normal(size=(2, 5, 4)).astype(np.float32), requires_grad=True)
    w = ad.Tensor(RNG.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
    h = ad.layer_norm(ad.gelu(ad.linear(x, w)), ad.Tensor(np.ones(4, np.float32)),
                      ad.Tensor(np.zeros(4, np.float32)))
    h = ad.multi_head_attention(h, h, h, heads=2)
    loss = ad.add(ad.cross_entropy(ad.max_over_rows(ad.gather_rows(h, [0, 2, 2])), 1),
                  ad.chamfer_batch(ad.reshape(h, (2, 10, 2)), RNG.normal(size=(2, 3, 2))))
    assert loss.values.dtype == np.float32
    loss.backward()
    assert x.grad.dtype == w.grad.dtype == np.float32


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adamw_non_finite_gradient_names_the_parameter(bad):
    store = ad.ParamStore(seed=0)
    p = store.create("enc.w", (2 * ad._CHUNK + 3,))
    before = p.values.copy()
    opt = ad.AdamW(store, lr=0.1)
    p.grad = np.ones(p.values.shape)
    p.grad[ad._CHUNK + 1] = bad
    with pytest.raises(NumericError, match="non-finite gradient for parameter 'enc.w'"):
        opt.step()
    # the block holding the bad entry, and every block after it, is untouched
    np.testing.assert_array_equal(p.values[ad._CHUNK:], before[ad._CHUNK:])


def test_adamw_non_contiguous_gradient_is_invariant_violation():
    store = ad.ParamStore(seed=0)
    p = store.create("p", (2, 3))
    p.grad = np.zeros((3, 2)).T
    with pytest.raises(InvariantViolation, match="'p' is not C-contiguous"):
        ad.AdamW(store, lr=0.1).step()


def test_adamw_warm_step_allocates_nothing():
    store = ad.ParamStore(seed=0)
    p = store.create("w", (1000, 1000), init="zeros")
    store.create("unreached", (1000, 1000), init="ones")  # read as a zero gradient
    opt = ad.AdamW(store, lr=1e-3, weight_decay=0.01)
    p.grad = np.ones(p.values.shape)
    opt.step()  # the first step creates the moments
    p.grad = np.ones(p.values.shape)
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# stepping inside the backward walk
# ---------------------------------------------------------------------------


def probe(a, backward_hook, grad=None):
    """An identity node whose backward calls ``backward_hook`` and then passes
    its gradient through, or ``grad`` in its place."""
    def backward(out):
        backward_hook()
        ad._accum(a, out.grad if grad is None else grad)

    return ad._node("probe", a.values.copy(), (a,), backward)


def two_linear_chain(grad=None):
    """x -> linear(w1) -> probe -> linear(w2) -> sum, and the probe's observations."""
    store = ad.ParamStore(seed=0)
    w1, w2 = store.create("w1", (3, 4)), store.create("w2", (4, 2))
    before = {name: t.values.copy() for name, t in store.items()}
    seen = {}

    def look():
        seen.update((name, (not np.array_equal(t.values, before[name]), t.grad))
                    for name, t in store.items())

    h = probe(ad.linear(ad.Tensor(RNG.normal(size=(5, 3))), w1), look, grad)
    return store, before, seen, ad.sum_all(ad.linear(h, w2))


def test_walk_steps_a_weight_once_its_last_consumer_has_run():
    store, before, seen, loss = two_linear_chain()
    opt = ad.AdamW(store, lr=0.1)
    opt.step(loss)
    # at the probe, downstream w2 is stepped and its gradient gone; w1 has
    # neither a gradient nor a step yet
    assert seen["w2"] == (True, None)
    assert seen["w1"] == (False, None)
    assert opt.t == 1
    for name, t in store.items():
        assert t.grad is None and not np.array_equal(t.values, before[name]), name


def test_walk_non_finite_gradient_names_the_parameter_and_keeps_earlier_steps():
    bad = np.ones((5, 4))
    bad[0, 0] = np.inf
    store, before, _, loss = two_linear_chain(grad=bad)
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="non-finite gradient for parameter 'w1'"):
        ad.AdamW(store, lr=0.1).step(loss)    # w1's GEMM may form inf - inf
    assert not np.array_equal(store["w2"].values, before["w2"])
    np.testing.assert_array_equal(store["w1"].values, before["w1"])


def test_weight_with_two_consumers_is_stepped_after_both(monkeypatch):
    # embed.mlp2.w0 feeds the tape through two slices, one per half
    from protomae import embedding
    from protomae.config import preset

    cfg = preset("toy")
    store = ad.ParamStore(seed=1)
    embedding.init_embedding_params(store, cfg)
    w0 = store["embed.mlp2.w0"]
    before = w0.values.copy()
    events = []
    real_slice = ad.slice_rows

    def recording_slice(a, start, stop):
        out = real_slice(a, start, stop)
        backward = out._backward

        def record(node):
            events.append(("slice", start, np.array_equal(a.values, before)))
            backward(node)

        out._backward = record
        return out

    class Recording(ad.AdamW):
        def _update(self, name, p, bc1, bc2):
            events.append(("step", name))
            super()._update(name, p, bc1, bc2)

    monkeypatch.setattr(ad, "slice_rows", recording_slice)
    tokens = embedding.tokenize(RNG.normal(size=(2, cfg.n_points, 3)), store, cfg).tokens
    monkeypatch.undo()
    Recording(store, lr=0.1).step(ad.sum_all(tokens))
    slices = [i for i, e in enumerate(events) if e[0] == "slice"]
    steps = [i for i, e in enumerate(events) if e == ("step", "embed.mlp2.w0")]
    assert sorted(events[i][1] for i in slices) == [0, cfg.embed_hidden2]
    assert all(events[i][2] for i in slices)       # w0 untouched at either slice
    assert len(steps) == 1 and steps[0] > max(slices)
    assert not np.array_equal(w0.values, before)


@pytest.mark.parametrize("reject", ["constant loss", "consumed tape"])
def test_rejected_backward_leaves_the_optimizer_and_parameters_untouched(reject):
    store = ad.ParamStore(seed=0)
    w = store.create("w", (3, 2))
    opt = ad.AdamW(store, lr=0.1, weight_decay=0.01)
    x = ad.Tensor(RNG.normal(size=(4, 3)))
    opt.step(ad.sum_all(ad.linear(x, w)))
    state = [w.values.copy(), opt._m["w"].copy(), opt._v["w"].copy()]
    if reject == "constant loss":
        loss, match = ad.sum_all(x), "does not require grad"
    else:
        loss = ad.sum_all(ad.linear(x, w))
        loss.backward()
        w.grad = None
        match = "earlier backward consumed"
    with pytest.raises(InvalidArgument, match=match):
        opt.step(loss)
    assert opt.t == 1 and w.grad is None
    for got, want in zip((w.values, opt._m["w"], opt._v["w"]), state):
        assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# leading batch axes
# ---------------------------------------------------------------------------


def fd_check(build, arrays, which, tol=1e-4):
    """FD check of scalar build(*tensors) w.r.t. arrays[which], at 1e-4 relative."""
    tensors = [ad.Tensor(a.copy(), requires_grad=(i == which)) for i, a in enumerate(arrays)]
    build(*tensors).backward()

    def value(arr):
        parts = [ad.Tensor(arr if i == which else a) for i, a in enumerate(arrays)]
        return float(build(*parts).values)

    numeric = fd_grad(value, arrays[which].copy(), 1e-5)
    err = np.abs(tensors[which].grad - numeric) / np.maximum(1.0, np.abs(numeric))
    assert err.max() <= tol


def test_matmul_batched_operands_grads():
    a = RNG.normal(size=(3, 2, 4))
    b = RNG.normal(size=(3, 4, 5))
    probe = RNG.normal(size=(3, 2, 5))
    build = lambda x, y: ad.sum_all(ad.mul_const(ad.matmul(x, y), probe))  # noqa: E731
    fd_check(build, [a, b], 0)
    fd_check(build, [a, b], 1)


def test_matmul_shared_left_operand_broadcasts_over_batch():
    # a (Q, C) bank against a (B, C, G) batch: the bank's gradient sums over B
    a = RNG.normal(size=(2, 4))
    b = RNG.normal(size=(3, 4, 5))
    probe = RNG.normal(size=(3, 2, 5))
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
    np.testing.assert_allclose(out.values, np.stack([a @ b[i] for i in range(3)]), atol=1e-14)
    build = lambda x, y: ad.sum_all(ad.mul_const(ad.matmul(x, y), probe))  # noqa: E731
    fd_check(build, [a, b], 0)
    fd_check(build, [a, b], 1)


def test_matmul_4d_by_weight_grads():
    x = RNG.normal(size=(2, 3, 2, 4))
    w = RNG.normal(size=(4, 3))
    probe = RNG.normal(size=(2, 3, 2, 3))
    build = lambda a, b: ad.sum_all(ad.mul_const(ad.matmul(a, b), probe))  # noqa: E731
    fd_check(build, [x, w], 0)
    fd_check(build, [x, w], 1)


def test_matmul_rejects_mismatched_batch_axes():
    with pytest.raises(InvalidArgument, match="batch"):
        ad.matmul(ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((3, 4, 5))))


def test_gather_rows_per_entry_index_grads():
    a = RNG.normal(size=(3, 5, 4))
    idx = np.array([[4, 0, 4], [1, 1, 2], [3, 2, 0]])
    out = ad.gather_rows(ad.Tensor(a), idx)
    np.testing.assert_array_equal(out.values, np.stack([a[i][idx[i]] for i in range(3)]))
    probe = RNG.normal(size=(3, 3, 4))
    fd_check(lambda t: ad.sum_all(ad.mul_const(ad.gather_rows(t, idx), probe)), [a], 0)


def test_gather_rows_shared_index_over_batch():
    a = RNG.normal(size=(2, 5, 3))
    out = ad.gather_rows(ad.Tensor(a), [3, 1])
    np.testing.assert_array_equal(out.values, a[:, [3, 1]])
    with pytest.raises(InvalidArgument):
        ad.gather_rows(ad.Tensor(a), np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(InvalidArgument):
        ad.gather_rows(ad.Tensor(a), [5])


def test_chamfer_batch_3d_and_4d_grads():
    pred = RNG.normal(size=(3, 5, 3))
    gt = RNG.normal(size=(3, 7, 3))
    fd_check(lambda t: ad.chamfer_batch(t, gt), [pred], 0)
    pred4 = RNG.normal(size=(2, 3, 4, 3))
    gt4 = RNG.normal(size=(2, 3, 6, 3))
    singles = [float(ad.chamfer_batch(ad.Tensor(pred4[i, j]), gt4[i, j]).values)
               for i in range(2) for j in range(3)]
    assert float(ad.chamfer_batch(ad.Tensor(pred4), gt4).values) == \
        pytest.approx(float(np.mean(singles)), abs=1e-14)
    fd_check(lambda t: ad.chamfer_batch(t, gt4), [pred4], 0)


def test_transpose_axes_and_concat_rows_broadcast_grads():
    probe = RNG.normal(size=(4, 2, 3))
    check_op(lambda t: ad.sum_all(ad.mul_const(ad.transpose(t, (2, 0, 1)), probe)), (2, 3, 4))
    row = RNG.normal(size=(1, 3))
    batch = RNG.normal(size=(2, 4, 3))
    probe2 = RNG.normal(size=(2, 5, 3))
    build = lambda r, b: ad.sum_all(ad.mul_const(ad.concat([r, b], axis=-2), probe2))  # noqa: E731
    fd_check(build, [row, batch], 0)
    fd_check(build, [row, batch], 1)
    # a (..., G, 1, C) pooled row joins every member of a (..., G, k, C) patch
    pooled = RNG.normal(size=(2, 1, 3))
    patch = RNG.normal(size=(2, 4, 2))
    probe3 = RNG.normal(size=(2, 4, 5))
    build = lambda p, h: ad.sum_all(ad.mul_const(ad.concat([h, p], axis=-1), probe3))  # noqa: E731
    fd_check(build, [pooled, patch], 0)
    fd_check(build, [pooled, patch], 1)
    with pytest.raises(InvalidArgument):
        ad.concat([ad.Tensor(row), ad.Tensor(batch)], axis=-3)
    with pytest.raises(InvalidArgument):
        ad.concat([ad.Tensor(np.zeros((3, 4, 3))), ad.Tensor(batch)], axis=-1)


def test_attention_batch_equals_per_entry():
    q = RNG.normal(size=(3, 4, 6))
    k = RNG.normal(size=(3, 5, 6))
    v = RNG.normal(size=(3, 5, 6))
    out = ad.multi_head_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), heads=3).values
    for i in range(3):
        single = ad.multi_head_attention(ad.Tensor(q[i]), ad.Tensor(k[i]), ad.Tensor(v[i]),
                                         heads=3).values
        np.testing.assert_allclose(out[i], single, rtol=0, atol=1e-12)
    probe = RNG.normal(size=(3, 4, 6))
    build = lambda a, b, c: ad.sum_all(ad.mul_const(  # noqa: E731
        ad.multi_head_attention(a, b, c, heads=3), probe))
    for which in range(3):
        fd_check(build, [q, k, v], which)


def test_cross_entropy_rows_average():
    logits = RNG.normal(size=(3, 1, 4))
    targets = np.array([0, 3, 1])
    got = float(ad.cross_entropy(ad.Tensor(logits), targets).values)
    singles = [float(ad.cross_entropy(ad.Tensor(logits[i]), int(targets[i])).values)
               for i in range(3)]
    assert got == pytest.approx(float(np.mean(singles)), abs=1e-14)
    with pytest.raises(InvalidArgument):
        ad.cross_entropy(ad.Tensor(logits), np.array([0, 1]))


def test_tape_is_freed_without_cyclic_gc():
    # a node stores its backward function, not a closure over itself, so a
    # dropped tape is freed by reference counting alone
    import gc

    store = ad.ParamStore(seed=2)
    w = store.create("w", (4, 4))
    x = RNG.normal(size=(2, 3, 4))
    gc.collect()
    gc.disable()
    try:
        h = ad.gelu(ad.linear(ad.Tensor(x), w))
        att = ad.multi_head_attention(h, h, h, heads=2)
        loss = ad.sum_all(ad.layer_norm(att, ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4))))
        loss.backward()
        del h, att, loss
        assert gc.collect() == 0
    finally:
        gc.enable()
