import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionscope.tensor import (
    Parameter,
    ShapeError,
    Tensor,
    concat,
    grad_check,
    node,
    softmax_attention,
    softmax_backward,
    softplus_sigmoid,
    stable_sigmoid,
    stable_softmax,
    standardize,
    take,
)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(2, 5))
        out = Tensor(np.eye(2)) @ Tensor(b)
        assert np.array_equal(out.data, b)

    def test_hand_check(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        out = (Tensor(a) @ Tensor(b)).data
        assert np.allclose(out, naive_matmul(a, b), atol=1e-12)

    def test_identity_associativity_exact(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 6))
        lhs = ((Tensor(a) @ Tensor(np.eye(4))) @ Tensor(b)).data
        rhs = (Tensor(a) @ Tensor(b)).data
        assert np.array_equal(lhs, rhs)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 5)))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_batched_broadcast(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(4, 5))
        out = (Tensor(a) @ Tensor(b)).data
        for t in range(3):
            assert np.allclose(out[t], a[t] @ b)


class TestSoftmax:
    def test_uniform_logits(self):
        out = stable_softmax(np.zeros(6), axis=0)
        assert np.allclose(out, np.full(6, 1 / 6), atol=1e-15)

    def test_closed_form(self):
        out = stable_softmax(np.array([0.0, np.log(3.0)]), axis=0)
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=7)
        expected = np.exp(x) / np.exp(x).sum()
        assert np.allclose(stable_softmax(x, axis=0), expected, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_slices_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=5.0, size=(4, 6))
        axis = int(rng.integers(0, 2))
        sums = stable_softmax(x, axis=axis).sum(axis=axis)
        assert np.all(np.abs(sums - 1.0) < 1e-9)

    def test_monotone_in_inputs(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=5)
        base = stable_softmax(x, axis=0)
        x2 = x.copy()
        x2[2] += 0.5
        bumped = stable_softmax(x2, axis=0)
        assert bumped[2] > base[2]


def attend(q, k, v):
    """The shared attention core at the 1/sqrt(C) scale of textbook attention."""
    return softmax_attention(q, k, v, 1.0 / np.sqrt(q.shape[-1]))[0]


class TestAttention:
    def test_single_value_row(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(4, 8))
        k = rng.normal(size=(1, 8))
        v = rng.normal(size=(1, 8))
        out = attend(q, k, v)
        assert np.allclose(out, np.broadcast_to(v, (4, 8)), atol=1e-12)

    def test_uniform_scores_give_row_mean(self):
        q = np.zeros((3, 4))
        rng = np.random.default_rng(7)
        k = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 4))
        out = attend(q, k, v)
        assert np.allclose(out, np.broadcast_to(v.mean(axis=0), (3, 4)), atol=1e-12)

    def test_matches_composition(self):
        rng = np.random.default_rng(8)
        q, k, v = (rng.normal(size=(3, 8)) for _ in range(3))
        out = attend(q, k, v)
        e = np.exp(q @ k.T / np.sqrt(8))
        assert np.allclose(out, (e / e.sum(axis=1, keepdims=True)) @ v, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_outputs_in_convex_hull(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 5))
        q = rng.normal(size=(3, 6))
        k = rng.normal(size=(b, 6))
        v = rng.normal(size=(b, 6))
        out = attend(q, k, v)
        lo, hi = v.min(axis=0), v.max(axis=0)
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)
        # simplex-weight reconstruction: least squares over value rows has ~zero residual
        for row in out:
            w, res, _, _ = np.linalg.lstsq(v.T, row, rcond=None)
            assert np.linalg.norm(v.T @ w - row) < 1e-6


BINARY_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
    "matmul": lambda x, y: x @ y,
    "concat": lambda x, y: concat([x, y], axis=1),
}


class TestAutodiff:
    def test_linear_quadratic_gradcheck(self):
        rng = np.random.default_rng(9)
        w = Parameter("w", rng.normal(size=(4, 3)))
        x = Tensor(rng.normal(size=(5, 4)))
        y = Tensor(rng.normal(size=(5, 3)))

        def loss():
            d = x @ w - y
            return (d * d).sum()

        assert grad_check([w], loss) < 1e-10

    def test_softmax_layer_gradcheck(self):
        """`softmax_backward` against central differences of g · softmax(x),
        along each axis."""
        rng = np.random.default_rng(10)
        x, g, h = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), 1e-5
        for axis in (0, 1):
            analytic = softmax_backward(g, stable_softmax(x, axis), axis)
            numeric = np.zeros_like(x)
            for i in np.ndindex(x.shape):
                bump = np.zeros_like(x)
                bump[i] = h
                numeric[i] = ((g * stable_softmax(x + bump, axis)).sum()
                              - (g * stable_softmax(x - bump, axis)).sum()) / (2.0 * h)
            assert np.abs(analytic - numeric).max() < 1e-8

    def test_elementwise_chain_gradcheck(self):
        rng = np.random.default_rng(11)
        w = Parameter("w", rng.normal(size=(6,)))

        def loss():
            return (w.sigmoid() * w.exp() + w.relu() - (w * w + 1.0).log() / (w * w + 2.0).sqrt()).sum()

        assert grad_check([w], loss) < 1e-8

    def test_take_repeat_concat_gradcheck(self):
        rng = np.random.default_rng(13)
        w = Parameter("w", rng.normal(size=(5, 3)))
        idx = np.array([0, 2, 2, 4])

        def loss():
            g = take(w, idx, axis=0)
            r = take(g, np.repeat(np.arange(4), 2), axis=0)
            c = concat([r, g], axis=0)
            return (c * c).sum()

        assert grad_check([w], loss) < 1e-9

    @pytest.mark.parametrize("idx, axis", [
        ([3, 0, 4, 1], 0),    # distinct
        ([0, 2, 2, 4], 0),    # repeated
        ([4, -1], 0),         # -1 wraps to 4
        ([[2], [0]], 1),      # 2-d, distinct, on a later axis
        ([[1, 0], [2, 1]], 1),  # 2-d, repeated
        ([], 0),
    ])
    def test_take_gradient_equals_scatter_add(self, idx, axis):
        rng = np.random.default_rng(15)
        w = Parameter("w", rng.normal(size=(5, 3)))
        idx = np.array(idx, dtype=np.intp)
        g = rng.normal(size=np.take(w.data, idx, axis=axis).shape)
        (take(w, idx, axis=axis) * Tensor(g)).sum().backward()
        expected = np.zeros((5, 3))
        np.add.at(expected, (slice(None),) * axis + (idx,), g)
        assert np.array_equal(w.grad, expected)

    def test_broadcast_add_gradcheck(self):
        rng = np.random.default_rng(14)
        b = Parameter("b", rng.normal(size=(4,)))
        x = Tensor(rng.normal(size=(3, 4)))

        def loss():
            return ((x + b) * (x + b)).mean()

        assert grad_check([b], loss) < 1e-9

    def test_grad_accumulates_through_reuse(self):
        w = Parameter("w", [2.0])

        def loss():
            return (w * w + w * 3.0).sum()

        l = loss()
        l.backward()
        assert np.allclose(w.grad, [7.0])

    @pytest.mark.parametrize("position", ["left", "right", "both"])
    @pytest.mark.parametrize("op", BINARY_OPS.values(), ids=BINARY_OPS.keys())
    def test_binary_op_gradcheck_at_each_operand_position(self, op, position):
        rng = np.random.default_rng(16)
        w = Parameter("w", rng.uniform(1.0, 2.0, size=(3, 3)))
        const = Tensor(rng.uniform(1.0, 2.0, size=(3, 3)))

        def loss():
            left = const if position == "right" else w
            right = const if position == "left" else w
            out = op(left, right)
            return (out * out).sum()

        assert grad_check([w], loss) < 1e-8

    @pytest.mark.parametrize("op", [lambda t: 2.0 + t, lambda t: 2.0 - t, lambda t: 2.0 * t],
                             ids=["add", "sub", "mul"])
    def test_python_scalar_on_the_left_gradcheck(self, op):
        w = Parameter("w", np.random.default_rng(17).normal(size=(2, 3)))
        assert grad_check([w], lambda: (op(w) * op(w)).sum()) < 1e-8

    def test_parameter_is_a_named_leaf_operand(self):
        """`@`, `+` and `take` read a parameter as they read any leaf tensor:
        the graph nodes are plain tensors, and the gradient equals an unnamed
        leaf's bit for bit.  `zero_grad` clears it back to None."""
        rng = np.random.default_rng(18)
        w0, x = rng.normal(size=(3, 2)), Tensor(rng.normal(size=(4, 3)))
        w, leaf = Parameter("w", w0), Tensor(w0, requires_grad=True)
        assert isinstance(w, Tensor) and w.requires_grad and w.grad is None
        outs = [x @ t + take(t, [2, 0, 2, 1], axis=0) for t in (w, leaf)]
        for out in outs:
            (out * out).sum().backward()
        assert type(outs[0]) is Tensor and outs[0]._parents[0]._parents == (w,)
        assert np.array_equal(outs[0].data, outs[1].data)
        assert np.array_equal(w.grad, leaf.grad)
        w.zero_grad()
        assert w.grad is None and repr(w) == "Parameter('w', shape=(3, 2))"

    def test_operands_sharing_an_output_gradient_get_their_own_buffers(self):
        a, b, c = Parameter("a", np.ones((2, 3))), Parameter("b", np.ones(3)), Parameter("c", [1.0])
        ((a + b) + a).sum().backward()
        ((c + c) + c).sum().backward()
        assert np.array_equal(a.grad, np.full((2, 3), 2.0))
        assert np.array_equal(b.grad, np.full(3, 2.0))
        assert np.array_equal(c.grad, [3.0])

    def test_nonfinite_loss_raises(self):
        w = Parameter("w", [1.0])

        def loss():
            with np.errstate(divide="ignore"):
                return (w / Tensor([0.0])).sum()

        with pytest.raises(FloatingPointError):
            grad_check([w], loss)


class TestStandardize:
    @pytest.mark.parametrize("shape,axis", [((7,), -1), ((3, 5), -1), ((4, 6, 8), -1), ((4, 6, 8), 1)])
    def test_equals_mean_form_bit_for_bit(self, shape, axis):
        """Value and gradient equal the form that takes each mean with `ndarray.mean`."""
        rng = np.random.default_rng(30)
        x0, g = rng.normal(size=shape) * 3.0 + 1.0, rng.normal(size=shape)
        x = Tensor(x0, requires_grad=True)
        out = standardize(x, axis=axis)
        (out * Tensor(g)).sum().backward()

        centered = x0 - x0.mean(axis=axis, keepdims=True)
        sigma = np.sqrt((centered * centered).mean(axis=axis, keepdims=True) + 1e-6)
        data = centered / sigma
        grad = (g - g.mean(axis=axis, keepdims=True)
                - data * (g * data).mean(axis=axis, keepdims=True)) / sigma
        assert np.array_equal(out.data, data)
        assert np.array_equal(x.grad, grad)

    def test_gradcheck(self):
        w = Parameter("w", np.random.default_rng(31).normal(size=(3, 4)))
        target = np.random.default_rng(32).normal(size=(3, 4))
        assert grad_check([w], lambda: (standardize(w) * Tensor(target)).sum()) < 1e-8


class TestNode:
    def test_one_backward_pass_per_output_gradient(self):
        """Three operands read one pass; an operand that needs no gradient is
        flagged so the pass can skip it, and gets none."""
        a, b = Parameter("a", [1.0, 2.0]), Parameter("b", [3.0, 4.0])
        const = Tensor([5.0, 6.0])
        passes = []

        def backward(g, needs):
            passes.append(needs)
            return g * 2.0, None, g * 3.0, g * 4.0

        out = node(np.zeros(2), (a, const, b, a), backward)
        (out * Tensor([1.0, 10.0])).sum().backward()
        assert passes == [(True, False, True, True)]
        assert np.array_equal(a.grad, [6.0, 60.0])
        assert np.array_equal(b.grad, [3.0, 30.0])
        assert const.grad is None

    def test_constant_operands_make_a_constant(self):
        out = node(np.ones(2), (Tensor([1.0]), Tensor([2.0])), lambda g, needs: (g, g))
        assert out._parents == () and not out.requires_grad


class TestTensorInvariants:
    def test_rejects_nan_at_construction(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            Tensor([np.inf])

    def test_constants_do_not_grow_graph(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.ones((2, 2)))
        out = a @ b + a
        assert out._parents == () and not out.requires_grad


def two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_stable_sigmoid_is_bitwise_the_two_branch_form():
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, 710.0, -710.0, 745.0, -745.0, 1e308, -1e308, 5e-324, -5e-324, 2e-308]
    x = np.concatenate([rng.normal(scale=s, size=1000) for s in (0.1, 1.0, 30.0, 300.0)]
                       + [np.array(edges)]).reshape(3, 7, -1)
    got = stable_sigmoid(x)
    assert got.shape == x.shape
    assert np.array_equal(got.view(np.int64), two_branch_sigmoid(x).view(np.int64))


def test_softplus_sigmoid_values():
    """Softplus is finite and within 1 ulp of `np.logaddexp(0, x)` from ±0 and
    the smallest subnormal to where e^x overflows and beyond, and within 2 ulps
    on normal samples: the two evaluate the same max(x, 0) + log1p(e^-|x|) with
    different exp and log1p routines, and on 600,000 samples they differed by
    2 ulps at 0.2% of them, each within 1.51 ulp of a long-double value.  The
    sigmoid is bitwise `stable_sigmoid`.  No floating-point warning is raised."""
    rng = np.random.default_rng(1)
    edges = np.array([0.0, 5e-324, 1e-300, 36.0, 709.0, 710.0, 800.0, 1e308])
    samples = np.concatenate([rng.normal(scale=s, size=1000) for s in (1.0, 30.0)])
    for x, max_ulps in ((np.concatenate([edges, -edges]), 1), (samples, 2)):
        softplus, sigmoid = softplus_sigmoid(x)
        want = np.logaddexp(0.0, x)
        assert np.all(np.isfinite(softplus))
        # both are >= 0, so the distance of their bit patterns counts ulps
        assert np.abs(softplus.view(np.int64) - want.view(np.int64)).max() <= max_ulps
        assert np.array_equal(sigmoid.view(np.int64), stable_sigmoid(x).view(np.int64))


def test_kernels_leave_their_inputs_alone():
    """The in-place kernels write only into buffers they made: not into their
    inputs, nor into an incoming gradient, which `Tensor.backward` may share
    with an operand."""
    rng = np.random.default_rng(2)
    inputs = [rng.normal(size=shape) for shape in ((3, 4), (5, 4), (5, 6), (3, 6), (3, 5))]
    x, k, v, d_out, g = (a.copy() for a in inputs)
    softplus_sigmoid(x)
    y = stable_softmax(x, axis=0)
    softmax_backward(x, y, axis=0)
    for scale in (1.0, 0.5):
        _, backward = softmax_attention(x, k, v, scale)
        backward(d_out, (True, True, True))
    softmax_backward(g, stable_softmax(g, axis=-1), axis=-1)
    assert all(np.array_equal(a, b) for a, b in zip((x, k, v, d_out, g), inputs))
