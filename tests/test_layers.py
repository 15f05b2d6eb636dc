import numpy as np
import pytest

from motionscope.layers import Attention, registry
from motionscope.tensor import Parameter, Tensor, linear

from gradcheck import grad_check


def block(channels, kv_channels=None, seed=0):
    """An `Attention` block whose biases, `bk` included, are random and non-zero."""
    rng = np.random.default_rng(seed)
    params: list[Parameter] = []
    attn = Attention(registry("m", params), rng, channels, kv_channels=kv_channels)
    for param in (attn.bq, attn.bk, attn.bv, attn.bo):
        param.data[...] = rng.normal(size=channels)
    return attn, params


def graph_softmax(x):
    """Max-subtracted softmax over the last axis, built from graph primitives."""
    e = (x - Tensor(x.data.max(axis=-1, keepdims=True))).exp()
    return e / e.sum(axis=-1, keepdims=True)


def projected(attn, q_in, k_in, v_in):
    """The textbook formula: project queries, keys and values, attend, project out."""
    q = linear(q_in, attn.wq, attn.bq)
    k = linear(k_in, attn.wk, attn.bk)
    v = linear(v_in, attn.wv, attn.bv)
    weights = graph_softmax((q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1])))
    return linear(weights @ v, attn.wo, attn.bo)


def graph(attn, q_in, k_in, v_in):
    """The block as a chain of graph ops, keys and values reassociated onto
    the query side: the oracle of the block's node."""
    q = linear(q_in, attn.wq, attn.bq)
    q_keys = (q @ attn.wk.swapaxes(-1, -2)) * attn.scale
    weights = graph_softmax(q_keys @ k_in.swapaxes(-1, -2))
    context = linear(weights @ v_in, attn.wv, attn.bv)
    return linear(context, attn.wo, attn.bo)


def assert_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


# name -> (channels, kv_channels, query shape, key/value shape, self-attention)
CASES = {
    # HMP: trajectories [N_s, T, C] attend over their own frames
    "hmp_self": (8, None, (5, 6, 8), (5, 6, 8), True),
    # decoder: motion queries over the flattened trajectory-frame tokens
    "decoder_cross": (8, None, (4, 8), (40, 8), False),
    # perceiver: shared queries over each frame's pixels, img_channels != channels;
    # keys carry a position code the values lack
    "perceiver_pixels": (8, 5, (3, 8), (2, 12, 5), False),
}
# the same callers at sizes a finite-difference check runs through quickly
TOY = {
    "hmp_self": (3, None, (2, 3, 3), (2, 3, 3), True),
    "decoder_cross": (3, None, (2, 3), (4, 3), False),
    "perceiver_pixels": (3, 2, (2, 3), (2, 3, 2), False),
}


def inputs(case, rng):
    """(q_in, k_in, v_in) arrays; keys and values differ unless self-attention."""
    _, _, q_shape, kv_shape, self_attention = case
    q_in = rng.normal(size=q_shape)
    if self_attention:
        return q_in, q_in, q_in
    return q_in, rng.normal(size=kv_shape), rng.normal(size=kv_shape)


@pytest.mark.parametrize("name", CASES)
def test_equals_projected_formula(name):
    attn, _ = block(*CASES[name][:2])
    q_in, k_in, v_in = (Tensor(x) for x in inputs(CASES[name], np.random.default_rng(1)))
    got = attn(q_in, k_in, v_in).data
    expected = projected(attn, q_in, k_in, v_in).data
    assert got.shape == expected.shape
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name,kv_grad", [(name, kv_grad) for name in CASES for kv_grad in (True, False)
                                          if kv_grad or not CASES[name][4]])
def test_equals_graph_composition(name, kv_grad):
    """The node's value equals the graph's bit for bit, and every
    gradient (weights and the inputs that need one) agrees within 1e-12
    relative; keys and values that need no gradient get none."""
    attn, params = block(*CASES[name][:2])
    rng = np.random.default_rng(5)
    arrays = inputs(CASES[name], rng)
    g = rng.normal(size=attn(*(Tensor(a) for a in arrays)).shape)

    def run(fn):
        q_in = Tensor(arrays[0], requires_grad=True)
        if CASES[name][4]:
            k_in = v_in = q_in
        else:
            k_in, v_in = (Tensor(a, requires_grad=kv_grad) for a in arrays[1:])
        for param in params:
            param.zero_grad()
        out = fn(attn, q_in, k_in, v_in)
        (out * Tensor(g)).sum().backward()
        return (out.data, [t.grad for t in (q_in, k_in, v_in)],
                [None if p.grad is None else p.grad.copy() for p in params])

    got, want = run(Attention.__call__), run(graph)
    assert np.array_equal(got[0], want[0])
    for got_grad, want_grad in zip(got[1] + got[2], want[1] + want[2]):
        if want_grad is None:
            assert got_grad is None
        else:
            assert_close(got_grad, want_grad)


@pytest.mark.parametrize("name", TOY)
def test_gradcheck(name):
    """Gradients of the block's weights and of its inputs."""
    attn, params = block(*TOY[name][:2], seed=2)
    rng = np.random.default_rng(3)
    arrays = inputs(TOY[name], rng)
    q_in = Parameter("q_in", arrays[0])
    k_in, v_in = (q_in, q_in) if TOY[name][4] else (Parameter("k_in", arrays[1]),
                                                    Parameter("v_in", arrays[2]))
    target = rng.normal(size=attn(q_in, k_in, v_in).shape)

    def loss():
        d = attn(q_in, k_in, v_in) - Tensor(target)
        return (d * d).sum()

    leaves = params + list({id(p): p for p in (q_in, k_in, v_in)}.values())
    assert grad_check(leaves, loss) < 1e-6


@pytest.mark.parametrize("name", CASES)
def test_bk_has_no_effect(name):
    """Softmax cancels q·bk, the same for every key: shifting `bk` leaves the
    output as it is, and no gradient reaches `bk`."""
    channels, kv_channels = CASES[name][:2]
    attn, params = block(channels, kv_channels)
    q_in, k_in, v_in = (Tensor(x) for x in inputs(CASES[name], np.random.default_rng(4)))
    before = attn(q_in, k_in, v_in)
    attn.bk.data[...] += 10.0
    after = attn(q_in, k_in, v_in)
    assert np.array_equal(before.data, after.data)
    for param in params:
        param.zero_grad()
    (after * after).sum().backward()
    assert attn.bk.grad is None
    assert np.any(attn.bq.grad != 0.0)
