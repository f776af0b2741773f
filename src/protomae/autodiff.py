"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

A deliberately small engine: ``Tensor`` wraps a numpy array plus a gradient
accumulator, every operation records its parents and a backward closure on an
implicit tape, and ``Tensor.backward()`` walks the tape once in reverse
topological order.  Every op checks its operands and raises
``InvalidArgument`` naming itself, so the layers built on the ops do not
repeat those checks.  Any op that produces a non-finite value raises
``NumericError`` naming the op, so NaNs cannot propagate silently into a
training run.

A tape runs in one dtype, the dtype of the ``ParamStore`` it reads: float64
(the default and the reference) or float32.  Nothing converts silently.
Constants are cast to the tape's dtype where they enter it (the callers'
job, except for ``chamfer_batch``'s target), and an op whose operands
differ in dtype, or a gradient whose dtype differs from its tensor's,
raises ``InvariantViolation`` naming the op.  ``AdamW`` keeps its moments
and scratch rows in the store's dtype.

Only the primitives the point-cloud networks actually need are provided.
Sequence ops work on the last two axes, (rows, channels), and accept any
leading batch axes, so one tape covers a whole batch of clouds and an
unbatched (G, C) input is simply a batch with no leading axes.  There is one
op per job: ``concat`` joins along an axis counted from the end (-2 rows,
-1 channels) and broadcasts the axes before it, ``broadcast`` tiles under
numpy rules, and ``chamfer_batch`` treats every leading entry as one point
set pair, so a 2-d input is a single pair.  A node stores
its backward function rather than a closure over itself, so a tape holds no
reference cycles and reference counting frees it.  ``Tensor.backward``
consumes the tape it walks: once a node's backward has run, the node drops
its parents and its backward closure, so the activations, saved state and
interior gradients that only the tape still references are freed during the
walk, in reverse order.  Leaves, and any tensor the caller still holds, keep
their values and gradients, except that ``AdamW.step(loss)`` steps each
store parameter, and drops its gradient, as soon as the walk has completed it.

The kernels follow one rule, so a forward pass on frozen weights (no tape)
pays only for the values it returns:

* a forward computes only its value.  State that only backward reads, such
  as ``max_over_rows``' first-argmax index or ``relu``'s mask, is derived
  inside backward from the saved input and output;
* an op writes in place only into arrays it allocated in that same call,
  never into an operand, a saved array or another node's gradient.  The
  in-place forms keep the ufunc order of the plain expressions, so values
  and gradients are bit-identical to them;
* ``linear`` is one node: one GEMM, the bias added in place into the fresh
  product, and one finiteness check.
"""

from __future__ import annotations

import ctypes
import math
import os
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InvalidArgument, InvariantViolation, NumericError
from .geometry import chamfer_nearest

_CHUNK = 65536  # AdamW block: a float32 block's six rows fill about 1.5 MiB of a 2 MiB L2
DTYPES = ("float32", "float64")
_LN_EPS = 1e-5        # layer_norm's variance offset
_NORM_FLOOR = 1e-12   # l2_normalize_rows' smallest divisor
_ADAM_EPS = 1e-8      # AdamW's denominator offset


def _keep_heap() -> None:
    """Keep freed memory in glibc's heap across training steps.

    A step allocates and frees the same arrays every time, from tens of KiB
    to a few MiB.  By default glibc gives blocks above its mmap threshold
    their own mappings, unmapped on free, and returns free memory at the top
    of the heap to the kernel once it passes the trim threshold, so every
    step faults the same pages back in.  With the tape freed during backward,
    a warm ``test-small`` pretrain step (batch 8, one BLAS thread) took
    4,900-5,900 minor page faults and 18% longer without these settings,
    and about 1 fault with them.  Arrays of 32 MiB or more still
    get their own mappings.  Other C libraries keep their own policy.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)      # M_MMAP_THRESHOLD: the most glibc's dynamic one reaches on 64-bit
    mallopt(-1, 2 ** 31 - 1)   # M_TRIM_THRESHOLD: never trim the heap top


_keep_heap()

# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """A float32 or float64 array with an optional gradient accumulator.

    A float32 array stays float32; anything else becomes float64.  Every
    tensor, leaf or interior, starts with ``grad`` None and gets its
    gradient from the first contribution a backward pass makes to it.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Tensor], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def detach(self) -> "Tensor":
        """A constant tensor sharing this tensor's values."""
        out = Tensor.__new__(Tensor)
        out.values = self.values
        out.requires_grad = False
        out.grad = None
        out._parents = ()
        out._backward = None
        out._op = "detach"
        return out

    def backward(self, release: Callable[[Tensor], None] | None = None) -> None:
        """Accumulate gradients of this tensor into every reachable parent.

        The walk starts from a gradient of ones (a scalar loss); to start from
        another gradient g, call backward on ``sum_all(mul_const(out, g))``.
        Multiple uses of a tensor sum their contributions.  The walk consumes
        the tape: each interior node drops its parents and backward closure
        once its backward has run, so a second backward through any of its
        nodes raises ``InvalidArgument`` naming the op, before any gradient
        moves.  A gradient whose dtype differs from its tensor's raises
        ``InvariantViolation`` naming the op whose backward produced it.

        The sort counts the tape edges into each leaf.  Once the backward of
        a leaf's last consumer has run its gradient is complete, and the walk
        passes the leaf to ``release`` (``AdamW.step`` steps it there and
        drops its gradient).  Every closure that reads a leaf's values belongs
        to one of its consumers or to a descendant of one, and reverse
        topological order runs those first, so a leaf may be updated in place
        from then on.  A constant view of a leaf (``detach``, ``frozen``) on
        the same tape as the live leaf would break that, and is unsupported.
        A leaf that is ``self`` has no consumer and is never released.
        """
        if not self.requires_grad:
            raise InvalidArgument("backward() on a tensor that does not require grad")

        topo: list[Tensor] = []
        seen: set[int] = set()
        uses: dict[int, int] = {}     # id(leaf) -> tape edges into it not yet walked
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is None and node._op != "leaf":
                raise InvalidArgument(f"backward through op '{node._op}', whose tape an "
                                      f"earlier backward consumed")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad:
                    if parent._op == "leaf":
                        uses[id(parent)] = uses.get(id(parent), 0) + 1
                    elif id(parent) not in seen:
                        stack.append((parent, False))

        node = self
        try:
            _accum(self, np.ones_like(self.values), fresh=True)
            while topo:
                node = topo.pop()
                if node._backward is None:
                    continue
                node._backward(node)
                node._backward = None
                parents, node._parents = node._parents, ()
                for parent in parents:
                    left = uses.get(id(parent))
                    if left is None:
                        continue
                    uses[id(parent)] = left - 1
                    if left == 1 and release is not None:
                        release(parent)
        except InvariantViolation as exc:
            raise InvariantViolation(f"backward of op '{node._op}': {exc}") from None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.values.shape}, op={self._op}, grad={self.requires_grad})"


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into ``t.grad``, allocating it on the first contribution.

    The first contribution is copied, since it may be a view of another
    node's gradient; ``fresh`` marks an array just allocated that nothing
    else owns, which ``t`` then takes over as its accumulator without a
    copy.  A leaf's gradient is C-contiguous, as ``AdamW`` walks it flat, so
    a leaf copies a fresh array that is not; a node's copy keeps ``g``'s
    layout.  ``g`` must have ``t``'s dtype; ``Tensor.backward`` names the op
    when it does not.
    """
    if g.dtype != t.values.dtype:
        raise InvariantViolation(f"{g.dtype} gradient for a {t.values.dtype} tensor")
    if t.grad is None:
        leaf = t._op == "leaf"
        keep = fresh and (g.flags.c_contiguous or not leaf)
        t.grad = g if keep else g.copy(order="C" if leaf else "K")
    else:
        t.grad += g


def _node(op: str, values: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[Tensor], None] | None) -> Tensor:
    """Create an interior tape node, checking the dtype and finiteness of its value.

    The value must have every parent's dtype: numpy promotes a float32 and a
    float64 operand to float64, so a mix shows here as a parent whose dtype
    differs from the value's.  The node keeps ``backward`` only when it
    requires grad, so a single-parent op's backward may assume its parent does.
    """
    values = np.asarray(values)
    for p in parents:
        if p.values.dtype != values.dtype:
            mix = " and ".join(sorted((p.values.dtype.name, values.dtype.name)))
            raise InvariantViolation(f"op '{op}' mixes {mix} operands")
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite values produced by op '{op}'")
    out = Tensor.__new__(Tensor)
    out.values = values
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    out._op = op
    if out.requires_grad and backward is not None:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may broadcast against ``a`` (bias rows etc.)."""
    try:
        values = a.values + b.values
    except ValueError:
        raise InvalidArgument(
            f"add cannot broadcast {a.values.shape} and {b.values.shape}") from None

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            _accum(a, _sum_to_shape(out.grad, a.values.shape))
        if b.requires_grad:
            _accum(b, _sum_to_shape(out.grad, b.values.shape))

    return _node("add", values, (a, b), backward)


def mul_const(a: Tensor, c) -> Tensor:
    """Elementwise product with a constant: a number, or an array of ``a``'s shape and dtype.

    A number enters as a Python float, so a float32 tensor stays float32.
    A float64 array (a mask, one-hot rows) on a float32 tensor is a dtype
    mix, which ``_node`` names.
    """
    if np.ndim(c) == 0:
        c = float(c)
    else:
        c = np.asarray(c)
        if c.shape != a.values.shape:
            raise InvalidArgument(f"mul_const shape mismatch: {a.values.shape} vs {c.shape}")

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * c, fresh=True)

    return _node("mul_const", a.values * c, (a,), backward)


def _flat_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a 2-d ``w`` as one GEMM over all leading rows of ``x``."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[-1:])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy matmul semantics over operands of 2+ dims.

    Leading (batch) axes broadcast against each other; a 2-d operand is
    shared by every batch entry and its gradient sums over them.  A weight
    shared by all rows goes through ``linear`` instead.
    """
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2:
        raise InvalidArgument(f"matmul needs 2+ dims, got {av.ndim}-d @ {bv.ndim}-d")
    if av.shape[-1] != bv.shape[-2]:
        raise InvalidArgument(f"matmul inner dims differ: {av.shape} @ {bv.shape}")
    try:
        np.broadcast_shapes(av.shape[:-2], bv.shape[:-2])
    except ValueError:
        raise InvalidArgument(f"matmul batch axes differ: {av.shape} @ {bv.shape}") from None

    def backward(out: Tensor) -> None:
        g = out.grad
        if a.requires_grad:
            _accum(a, _sum_to_shape(g @ np.swapaxes(bv, -1, -2), av.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _sum_to_shape(np.swapaxes(av, -1, -2) @ g, bv.shape), fresh=True)

    return _node("matmul", av @ bv, (a, b), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` for a 2-d ``weight`` and a (C_out,) ``bias``, as one node.

    All leading rows of ``x`` go through one GEMM; the bias is added in
    place into the fresh product, and its gradient sums over those rows.
    """
    xv, wv = x.values, weight.values
    if xv.ndim < 2 or wv.ndim != 2:
        raise InvalidArgument(f"linear needs a 2+ dim input and a 2-d weight, "
                              f"got {xv.ndim}-d and {wv.ndim}-d")
    if xv.shape[-1] != wv.shape[0]:
        raise InvalidArgument(f"linear inner dims differ: {xv.shape} @ {wv.shape}")
    parents = (x, weight)
    values = _flat_matmul(xv, wv)
    if bias is not None:
        if bias.values.shape != wv.shape[1:]:
            raise InvalidArgument(f"linear bias must have shape {wv.shape[1:]}, "
                                  f"got {bias.values.shape}")
        parents = (x, weight, bias)
        values += bias.values

    def backward(out: Tensor) -> None:
        g = out.grad
        if bias is not None and bias.requires_grad:
            _accum(bias, _sum_to_shape(g, bias.values.shape), fresh=True)
        if x.requires_grad:
            _accum(x, _flat_matmul(g, wv.T), fresh=True)
        if weight.requires_grad:
            _accum(weight, xv.reshape(-1, xv.shape[-1]).T @ g.reshape(-1, g.shape[-1]),
                   fresh=True)

    return _node("linear", values, parents, backward)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes; by default swap the last two."""
    nd = a.values.ndim
    if nd < 2:
        raise InvalidArgument("transpose needs at least 2 dimensions")
    if axes is None:
        axes = tuple(range(nd - 2)) + (nd - 1, nd - 2)
    elif sorted(axes) != list(range(nd)):
        raise InvalidArgument(f"transpose axes {tuple(axes)} are not a permutation of {nd} axes")
    inverse = tuple(np.argsort(axes))

    def backward(out: Tensor) -> None:
        _accum(a, np.transpose(out.grad, inverse))

    return _node("transpose", np.transpose(a.values, axes), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.values.shape
    try:
        values = a.values.reshape(shape)
    except ValueError:
        raise InvalidArgument(f"cannot reshape {old} into {shape}") from None

    def backward(out: Tensor) -> None:
        _accum(a, out.grad.reshape(old))

    return _node("reshape", values, (a,), backward)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis``, counted from the end (-1 channels, -2 rows).

    The axes before ``axis`` broadcast, so a shared (n, C) row block such
    as a class token joins every sequence of a (B, m, C) batch, and a
    (..., G, 1, C) pooled row joins every member of a (..., G, k, C) patch.
    """
    if not parts:
        raise InvalidArgument("concat of zero tensors")
    if not -min(p.values.ndim for p in parts) <= axis <= -1:
        raise InvalidArgument(f"concat axis {axis} must count from the end of every part")
    try:
        lead = np.broadcast_shapes(*(p.values.shape[:axis] for p in parts))
    except ValueError:
        raise InvalidArgument(f"concat leading axes differ for axis {axis}") from None
    counts = [p.values.shape[axis] for p in parts]
    try:
        values = np.concatenate([np.broadcast_to(p.values, lead + p.values.shape[axis:])
                                 for p in parts], axis=axis)
    except ValueError:
        raise InvalidArgument(f"concat parts differ after axis {axis}: "
                              f"{[p.values.shape for p in parts]}") from None
    trailing = (slice(None),) * (-axis - 1)

    def backward(out: Tensor) -> None:
        offset = 0
        for p, n in zip(parts, counts):
            if p.requires_grad:
                g = out.grad[(Ellipsis, slice(offset, offset + n)) + trailing]
                _accum(p, _sum_to_shape(g, p.values.shape))
            offset += n

    return _node("concat", values, parts, backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of the row axis (-2)."""
    if a.values.ndim < 2:
        raise InvalidArgument("slice_rows needs a (..., rows, C) tensor")
    n = a.values.shape[-2]
    if not (0 <= start <= stop <= n):
        raise InvalidArgument(f"slice_rows[{start}:{stop}] out of range for {n} rows")

    def backward(out: Tensor) -> None:
        g = np.zeros_like(a.values)
        g[..., start:stop, :] = out.grad
        _accum(a, g, fresh=True)

    return _node("slice_rows", a.values[..., start:stop, :].copy(), (a,), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of the row axis (-2) by integer index.

    ``a`` is (..., N, C).  A 1-d (n,) index selects the same rows from every
    batch entry; an index shaped like the leading axes plus (n,) selects
    per entry.  Duplicate indices sum their gradients.
    """
    if a.values.ndim < 2:
        raise InvalidArgument("gather_rows needs a (..., rows, C) tensor")
    lead, (n, c) = a.values.shape[:-2], a.values.shape[-2:]
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 and idx.shape[:-1] != lead:
        raise InvalidArgument(
            f"gather_rows index of shape {idx.shape} does not match rows of {a.values.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidArgument("gather_rows index out of range")
    idx = np.broadcast_to(idx, lead + idx.shape[-1:])
    values = np.take_along_axis(a.values, idx[..., None], axis=-2)

    def backward(out: Tensor) -> None:
        entries = int(np.prod(lead, dtype=np.int64))
        flat = (np.arange(entries)[:, None] * n + idx.reshape(entries, -1)).reshape(-1)
        g = np.zeros((entries * n, c), dtype=out.grad.dtype)
        np.add.at(g, flat, out.grad.reshape(-1, c))
        _accum(a, g.reshape(a.values.shape), fresh=True)

    return _node("gather_rows", values, (a,), backward)


def broadcast(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Broadcast to ``shape`` under numpy rules (a mask token tiled into rows)."""
    try:
        values = np.broadcast_to(a.values, shape)
    except ValueError:
        raise InvalidArgument(f"cannot broadcast {a.values.shape} to {shape}") from None

    def backward(out: Tensor) -> None:
        _accum(a, _sum_to_shape(out.grad, a.values.shape))

    return _node("broadcast", values, (a,), backward)


def max_over_rows(a: Tensor) -> Tensor:
    """Max-reduce the second-to-last axis; gradient goes to the first argmax."""
    if a.values.ndim < 2:
        raise InvalidArgument("max_over_rows needs at least 2 dimensions")

    def backward(out: Tensor) -> None:
        # the first row equal to the max is the first argmax; a boolean
        # argmax is several times faster than a float one
        idx = np.argmax(a.values == np.expand_dims(out.values, -2), axis=-2)
        g = np.zeros_like(a.values)
        np.put_along_axis(g, np.expand_dims(idx, -2), np.expand_dims(out.grad, -2), axis=-2)
        _accum(a, g, fresh=True)

    return _node("max_over_rows", a.values.max(axis=-2), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(out: Tensor) -> None:
        _accum(a, np.full_like(a.values, out.grad), fresh=True)

    return _node("sum_all", np.sum(a.values), (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis with row-max subtraction."""
    e = a.values - a.values.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)

    def backward(out: Tensor) -> None:
        y, g = out.values, out.grad
        ga = g * y                                # y * (g - sum(g * y))
        np.subtract(g, ga.sum(axis=-1, keepdims=True), out=ga)
        ga *= y
        _accum(a, ga, fresh=True)

    return _node("softmax_rows", e, (a,), backward)


def logsumexp_rows(a: Tensor) -> Tensor:
    """log(sum(exp)) over the last axis, max-shifted for stability."""
    m = a.values.max(axis=-1, keepdims=True)
    e = np.exp(a.values - m)
    s = e.sum(axis=-1, keepdims=True)
    values = (m + np.log(s)).squeeze(-1)

    def backward(out: Tensor) -> None:
        ga = e / s
        ga *= np.expand_dims(out.grad, -1)
        _accum(a, ga, fresh=True)

    return _node("logsumexp_rows", values, (a,), backward)


def relu(a: Tensor) -> Tensor:
    """max(x, 0), with +0 for every x <= 0; the gradient flows where x > 0."""

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * (out.values > 0), fresh=True)

    return _node("relu", np.maximum(a.values, 0.0), (a,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    x = a.values
    t = x * x                       # t = tanh(C * (x + A * x^3))
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    values = x * 0.5                # 0.5 * x * (1 + t)
    values *= t + 1.0

    def backward(out: Tensor) -> None:
        d_inner = x * x         # C * (1 + 3A * x^2)
        d_inner *= 3.0 * _GELU_A
        d_inner += 1.0
        d_inner *= _GELU_C
        slope = t * t           # 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * d_inner
        np.subtract(1.0, slope, out=slope)
        np.multiply(x * 0.5, slope, out=slope)
        slope *= d_inner
        local = t + 1.0
        local *= 0.5
        local += slope
        local *= out.grad
        _accum(a, local, fresh=True)

    return _node("gelu", values, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise the last axis to zero mean, unit variance (plus ``_LN_EPS``), then affine."""
    c = x.values.shape[-1]
    if gain.values.shape != (c,) or bias.values.shape != (c,):
        raise InvalidArgument(f"layer_norm gain/bias must have shape ({c},)")
    xhat = x.values - x.values.mean(axis=-1, keepdims=True)
    values = xhat * xhat            # the squares, as ndarray.var forms them
    inv = 1.0 / np.sqrt(values.mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat *= inv
    np.multiply(xhat, gain.values, out=values)
    values += bias.values

    def backward(out: Tensor) -> None:
        g = out.grad
        tmp = g * xhat
        if gain.requires_grad:
            _accum(gain, tmp.reshape(-1, c).sum(axis=0), fresh=True)
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, c).sum(axis=0), fresh=True)
        if x.requires_grad:
            gx = g * gain.values    # (gx - mean(gx) - xhat * mean(gx * xhat)) * inv
            np.multiply(gx, xhat, out=tmp)
            mean_gx_xhat = tmp.mean(axis=-1, keepdims=True)
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= np.multiply(xhat, mean_gx_xhat, out=tmp)
            gx *= inv
            _accum(x, gx, fresh=True)

    return _node("layer_norm", values, (x, gain, bias), backward)


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row (last axis) to unit L2 norm; norms below ``_NORM_FLOOR`` divide by it."""
    if a.values.ndim < 2:
        raise InvalidArgument("l2_normalize_rows expects a (..., rows, C) tensor")
    norms = np.linalg.norm(a.values, axis=-1, keepdims=True)
    denom = np.maximum(norms, _NORM_FLOOR)
    values = a.values / denom

    def backward(out: Tensor) -> None:
        g = out.grad
        live = norms > _NORM_FLOOR
        y = out.values
        proj = (g - y * (y * g).sum(axis=-1, keepdims=True)) / denom
        clipped = g / _NORM_FLOOR
        _accum(a, np.where(live, proj, clipped), fresh=True)

    return _node("l2_normalize_rows", values, (a,), backward)


# ---------------------------------------------------------------------------
# Set distances
# ---------------------------------------------------------------------------


def _chamfer_grad(a: np.ndarray, b: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """d chamfer / d a for each (n, M, D) / (n, L, D) pair, given the nearest indices."""
    n, m, dim = a.shape
    rows = np.arange(n)[:, None]
    ga = (2.0 / m) * (a - b[rows, ia])
    pulled = (2.0 / b.shape[1]) * (a[rows, ib] - b)
    np.add.at(ga.reshape(-1, dim), (rows * m + ib).reshape(-1), pulled.reshape(-1, dim))
    return ga


def chamfer_batch(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean over batch entries of chamfer(pred[i], target[i]).

    ``pred`` is (..., M, D) on the tape; ``target`` is a constant
    (..., L, D) array with the same leading axes, cast to ``pred``'s dtype.
    Every leading entry is one pair, so a 2-d input is a single pair and a
    (B, G, k, 3) input is B·G per-patch pairs.
    """
    pv = pred.values
    tgt = np.asarray(target, dtype=pv.dtype)
    if pv.ndim < 2 or tgt.ndim != pv.ndim or tgt.shape[:-2] != pv.shape[:-2] \
            or tgt.shape[-1] != pv.shape[-1]:
        raise InvalidArgument(
            f"chamfer_batch expects (...,M,D) and (...,L,D), got {pv.shape} and {tgt.shape}")
    if pv.size == 0 or tgt.size == 0:
        raise InvalidArgument("chamfer_batch over an empty batch or point set")
    p3 = pv.reshape((-1,) + pv.shape[-2:])
    t3 = tgt.reshape((-1,) + tgt.shape[-2:])
    per_pair, ia, ib = chamfer_nearest(p3, t3)

    def backward(out: Tensor) -> None:
        g = float(out.grad) / p3.shape[0]
        _accum(pred, (g * _chamfer_grad(p3, t3, ia, ib)).reshape(pv.shape), fresh=True)

    return _node("chamfer_batch", per_pair.mean(), (pred,), backward)


# ---------------------------------------------------------------------------
# Composite layers
# ---------------------------------------------------------------------------


def _split_heads(x: Tensor, heads: int, keys: bool = False) -> Tensor:
    """(..., n, C) -> (..., H, n, C/H), or (..., H, C/H, n) for keys."""
    if heads == 1:
        return transpose(x) if keys else x
    shape = x.values.shape
    x = reshape(x, shape[:-1] + (heads, shape[-1] // heads))
    lead = tuple(range(len(shape) - 2))
    n, h, d = len(shape) - 2, len(shape) - 1, len(shape)
    return transpose(x, lead + ((h, d, n) if keys else (h, n, d)))


def _merge_heads(x: Tensor) -> Tensor:
    """(..., H, n, C/H) -> (..., n, C), heads side by side in the last axis."""
    shape = x.values.shape
    lead = tuple(range(len(shape) - 3))
    h, n, d = len(shape) - 3, len(shape) - 2, len(shape) - 1
    x = transpose(x, lead + (n, h, d))
    return reshape(x, shape[:-3] + (shape[-2], shape[-3] * shape[-1]))


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention with ``heads`` parallel heads.

    ``q`` is (..., a, C) and ``k``/``v`` are (..., b, C); leading batch axes
    broadcast, and C must divide evenly by ``heads``.  Per head h:
    Softmax(Q_h K_h^T / sqrt(C/heads)) V_h, with all heads (and all batch
    entries) in one batched matmul, and the heads are concatenated.  With a
    single head this is exactly the prototype-update attention form.
    """
    c = q.values.shape[-1]
    if k.values.shape[-1] != c or v.values.shape[-1] != c:
        raise InvalidArgument("q/k/v widths differ")
    if k.values.shape[-2] != v.values.shape[-2]:
        raise InvalidArgument("k and v must have the same number of rows")
    if heads < 1 or c % heads != 0:
        raise InvalidArgument(f"width {c} not divisible by {heads} heads")
    inv_sqrt = 1.0 / math.sqrt(c // heads)
    scores = matmul(_split_heads(q, heads), _split_heads(k, heads, keys=True))
    attn = softmax_rows(mul_const(scores, inv_sqrt))
    merged = matmul(attn, _split_heads(v, heads))
    if heads > 1:
        merged = _merge_heads(merged)
    return merged


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean negative log-likelihood of ``target`` under softmax of each logit row.

    ``logits`` is (..., n); ``target`` is one class id, or one per row
    (shaped like the leading axes).  A single row gives that row's loss.
    """
    n = logits.values.shape[-1]
    rows = reshape(logits, (-1, n))
    r = rows.values.shape[0]
    targets = np.asarray(target, dtype=np.int64).reshape(-1)
    if targets.size == 1:
        targets = np.repeat(targets, r)
    if targets.size != r:
        raise InvalidArgument(f"{targets.size} targets for {r} logit rows")
    if targets.min() < 0 or targets.max() >= n:
        raise InvalidArgument(f"target out of range for {n} classes")
    onehot = np.zeros((r, n), dtype=rows.values.dtype)
    onehot[np.arange(r), targets] = 1.0
    lse = sum_all(logsumexp_rows(rows))
    picked = sum_all(mul_const(rows, onehot))
    return mul_const(add(lse, mul_const(picked, -1.0)), 1.0 / r)


# ---------------------------------------------------------------------------
# Parameters and optimisation
# ---------------------------------------------------------------------------


def truncated_normal(rng: np.random.Generator, shape: tuple[int, ...],
                     std: float = 0.02) -> np.ndarray:
    """N(0, std^2) samples with |x| > 2*std redrawn until inside the band.

    Each round redraws, in flat order, only the entries the last round left
    outside the band, so the draws are those of redrawing over the whole
    array each round.
    """
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        redrawn = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redrawn
        bad = bad[np.abs(redrawn) > 2.0 * std]
    return out


def frozen(params: Mapping[str, Tensor]) -> dict[str, Tensor]:
    """Constant views of ``params``, sharing the values that ``AdamW`` updates in place."""
    return {name: t.detach() for name, t in params.items()}


class ParamStore:
    """Named map of trainable tensors with deterministic creation order.

    Iteration is always lexicographic by name so the optimiser update order
    (and therefore every downstream float) is reproducible.  Every tensor
    has the store's ``dtype``; random initial values are drawn in float64
    and then cast, so a float32 store starts from the float64 one rounded.
    """

    def __init__(self, seed: int, dtype: str = "float64"):
        if dtype not in DTYPES:
            raise InvalidArgument(f"dtype must be one of {', '.join(DTYPES)}, got '{dtype}'")
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.rng = np.random.default_rng(self.seed)
        self._params: dict[str, Tensor] = {}

    def create(self, name: str, shape: tuple[int, ...], init: str = "trunc_normal") -> Tensor:
        if name in self._params:
            raise InvalidArgument(f"parameter '{name}' already exists")
        if init == "trunc_normal":
            values = truncated_normal(self.rng, shape).astype(self.dtype, copy=False)
        elif init == "zeros":
            values = np.zeros(shape, dtype=self.dtype)
        elif init == "ones":
            values = np.ones(shape, dtype=self.dtype)
        else:
            raise InvalidArgument(f"unknown init '{init}'")
        t = Tensor(values, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise InvalidArgument(f"unknown parameter '{name}'") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None


class AdamW:
    """Decoupled-weight-decay Adam over a ParamStore.

    ``step(loss)`` runs ``loss.backward`` and steps each parameter inside
    the walk as soon as its gradient is complete (the fused
    gradient-and-update of LOMO, Lv et al., 2023), so a step never holds the
    whole gradient set.  The parameters the walk did not step are then
    stepped in lexicographic name order.  Parameter updates are independent,
    so the order changes no value.  A step sets each ``grad`` back to None
    once it has used it; a parameter no backward reached (``grad`` None) is
    stepped as with a zero gradient, so it still decays.

    ``overrides`` starts empty; an entry maps a parameter name to its own
    (lr, weight_decay) pair, and every other parameter uses the shared
    values.  The dict is consulted live on every step, so a schedule can set
    an entry between steps.

    The update streams through memory once and allocates no array: the
    moments ``_m``/``_v`` (kept by name) and the scratch rows are allocated
    with the optimizer, for the parameters the store holds then, and each
    parameter is walked in blocks of ``_CHUNK`` elements.  Moments and
    scratch rows have the store's dtype, and a parameter or gradient of
    another dtype is an invariant violation.  Within a block the ufuncs run
    in the order of the whole-array update, so every value is bit-identical
    to it.  A non-finite gradient raises ``NumericError`` naming the
    parameter before its block is written; the blocks before it, and the
    parameters stepped before it (in the walk, then in name order), stay
    stepped.
    """

    def __init__(self, store: ParamStore, lr: float, betas: tuple[float, float] = (0.9, 0.999),
                 weight_decay: float = 0.0):
        self.store = store
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.weight_decay = float(weight_decay)
        self.overrides: dict[str, tuple[float, float]] = {}
        self.t = 0
        self._m = {name: np.zeros_like(p.values) for name, p in store.items()}
        self._v = {name: np.zeros_like(p.values) for name, p in store.items()}
        self._scratch = (np.empty(_CHUNK, dtype=store.dtype), np.empty(_CHUNK, dtype=store.dtype),
                         np.empty(_CHUNK, dtype=bool))

    def step(self, loss: Tensor | None = None) -> None:
        """One step; with ``loss``, run its backward and step each parameter inside the walk.

        After the walk, every parameter it did not step is stepped from its
        ``grad`` in name order; without ``loss`` that is every parameter.  A
        backward rejected before any gradient moves leaves ``t``, the moments
        and the parameters untouched.
        """
        t = self.t + 1
        bc1, bc2 = 1.0 - self.beta1 ** t, 1.0 - self.beta2 ** t
        pending = {id(p): (name, p) for name, p in self.store.items()}

        def release(leaf: Tensor) -> None:
            entry = pending.pop(id(leaf), None)
            if entry is not None:
                self.t = t                # the step counts from its first update
                self._update(*entry, bc1, bc2)

        if loss is not None:
            loss.backward(release=release)
        self.t = t
        for name, p in pending.values():
            self._update(name, p, bc1, bc2)

    def _update(self, name: str, p: Tensor, bc1: float, bc2: float) -> None:
        """Step ``p`` from its ``grad`` block by block, then set ``grad`` to None."""
        b1, b2 = self.beta1, self.beta2
        g = p.grad
        if not (p.values.flags.c_contiguous and (g is None or g.flags.c_contiguous)):
            raise InvariantViolation(f"parameter '{name}' is not C-contiguous")
        if g is None:                 # backward did not reach p: a zero gradient
            g = np.broadcast_to(np.zeros((), self.store.dtype), p.values.shape)
        if g.shape != p.values.shape:
            raise InvariantViolation(f"parameter '{name}' gradient shape mismatch")
        if not p.values.dtype == g.dtype == self.store.dtype:
            raise InvariantViolation(f"parameter '{name}' or its gradient is not "
                                     f"{self.store.dtype}")
        lr, wd = self.overrides.get(name, (self.lr, self.weight_decay))
        flat = [x.reshape(-1) for x in (p.values, g, self._m[name], self._v[name])]
        for lo in range(0, g.size, _CHUNK):
            pc, gc, mc, vc = (x[lo:lo + _CHUNK] for x in flat)
            a, b, ok = (s[:gc.size] for s in self._scratch)
            if not np.isfinite(gc, out=ok).all():
                raise NumericError(f"non-finite gradient for parameter '{name}'")
            mc *= b1                          # m = b1*m + (1-b1)*g
            mc += np.multiply(gc, 1.0 - b1, out=a)
            vc *= b2                          # v = b2*v + (1-b2)*g*g
            vc += np.multiply(np.multiply(gc, 1.0 - b2, out=a), gc, out=a)
            np.add(np.sqrt(np.divide(vc, bc2, out=b), out=b), _ADAM_EPS, out=b)
            np.divide(np.divide(mc, bc1, out=a), b, out=a)   # (m/bc1) / (sqrt(v/bc2)+eps)
            a += np.multiply(pc, wd, out=b)   # p -= lr*(update + wd*p)
            pc -= np.multiply(a, lr, out=a)
        p.grad = None
