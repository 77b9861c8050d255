"""Property tests of the compact signal model on random small designs.

Designs are built from random relay matrices and conjugation flags, so
every column is conjugate-linear by construction; the rows need not be
orthogonal, which the model itself does not require. The physical
two-phase protocol is the oracle for the batched compact model.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dstc.designs import (Design, design_from_dict, design_to_dict,
                          relay_matrix_set)
from dstc.gnaf_sim import (ChannelRealization, NoiseDraw, column_gains,
                           crandn, draw_noise, effective_matrix, make_rng,
                           protocol_params, simulate_trial)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
VARIANTS = ("gnaf1", "gnaf2", "gnaf3", "jh")


@st.composite
def relay_designs(draw):
    """A T2 x R design whose column c is M_c s or M_c conj(s)."""
    t1, t2, r = (draw(st.integers(1, 3)) for _ in range(3))
    conj = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = np.zeros((2 * t1, t2, r), dtype=np.complex128)
    for c, cj in enumerate(conj):
        m = rng.standard_normal((t2, t1)) + 1j * rng.standard_normal((t2, t1))
        # s_j = x_2j + i x_2j+1, conj(s_j) = x_2j - i x_2j+1
        w[0::2, :, c] = m.T
        w[1::2, :, c] = (-1j if cj else 1j) * m.T
    return Design("random", w)


def channels(d, n, rng):
    z = crandn(rng, n, 2 * d.r + 1)
    return z[:, 0], z[:, 1:d.r + 1], z[:, d.r + 1:]


@SETTINGS
@given(relay_designs(), st.sampled_from(VARIANTS), st.floats(0.1, 100.0),
       st.integers(0, 2 ** 32 - 1))
def test_compact_equals_two_phase(d, variant, p, seed):
    rs = relay_matrix_set(d)
    params = protocol_params(d, p, variant, rs=rs)
    rng = make_rng(seed, 1)
    for _ in range(3):
        g0, f, g = channels(d, 1, rng)
        ch = ChannelRealization(complex(g0[0]), f[0], g[0])
        s = d.source_vector(rng.standard_normal(d.k))
        noise = draw_noise(params, rng)
        y1 = simulate_trial(d, params, ch, s, mode="compact", noise=noise, rs=rs)
        y2 = simulate_trial(d, params, ch, s, mode="two_phase", noise=noise, rs=rs)
        assert np.max(np.abs(y1 - y2)) <= 1e-10 * (1.0 + np.max(np.abs(y2)))


@SETTINGS
@given(relay_designs(), st.sampled_from(VARIANTS), st.floats(0.1, 100.0),
       st.integers(0, 2 ** 32 - 1))
def test_batched_equals_batch_of_one(d, variant, p, seed):
    rs = relay_matrix_set(d)
    params = protocol_params(d, p, variant, rs=rs)
    g0, f, g = channels(d, 5, make_rng(seed, 2))
    batched = effective_matrix(d, params, g0, column_gains(rs, f, g))
    single = np.stack([
        effective_matrix(d, params, g0[b:b + 1], column_gains(rs, f[b], g[b])[None])[0]
        for b in range(len(g0))])
    assert np.array_equal(batched, single)
    # and each row is the noiseless two-phase reception of its channel
    silent = NoiseDraw(np.zeros(params.t1), np.zeros(params.t2),
                       np.zeros((params.r, params.t1)))
    x = make_rng(seed, 3).standard_normal((len(g0), d.k))
    for b in range(len(g0)):
        ch = ChannelRealization(complex(g0[b]), f[b], g[b])
        clean = simulate_trial(d, params, ch, d.source_vector(x[b]),
                               mode="two_phase", noise=silent, rs=rs)
        assert np.max(np.abs(batched[b] @ x[b] - clean)) <= \
            1e-10 * (1.0 + np.max(np.abs(clean)))


@SETTINGS
@given(relay_designs())
def test_json_round_trip_exact(d):
    back = design_from_dict(json.loads(json.dumps(design_to_dict(d))))
    assert (back.t, back.r, back.k) == (d.t, d.r, d.k)
    assert back.weights.dtype == d.weights.dtype
    assert np.array_equal(back.weights.view(np.uint8), d.weights.view(np.uint8))
