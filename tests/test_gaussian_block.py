"""The block Gaussian transform against the scalar quantile, bit for bit.

``gaussian_quantiles`` turns an array of uniforms into N(0, sigma^2) noise
with numpy arithmetic.  Every block draw and the stream's node noise go
through it, and the golden report digests rest on it giving exactly
``sigma * standard_normal_quantile(p)`` for every p.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkhist import core
from unkhist.core import RandomSource, gaussian_quantiles, standard_normal_quantile

TAIL = core._ICDF_P_LOW  # p below it takes the log branch
UPPER_TAIL = 1.0 - TAIL  # 0.97575: p above it takes the mirrored log branch

EDGES = [
    5e-324,  # the smallest subnormal: x < -37.4, no Halley step
    1e-310,  # no Halley step either
    1e-300,  # x = -37.05, just inside the Halley step
    2.0**-53,  # the smallest uniform a RandomSource draws
    np.nextafter(TAIL, 0.0),
    TAIL,
    np.nextafter(TAIL, 1.0),
    np.nextafter(0.5, 0.0),
    0.5,
    np.nextafter(0.5, 1.0),
    np.nextafter(UPPER_TAIL, 0.0),
    UPPER_TAIL,
    np.nextafter(UPPER_TAIL, 1.0),
    1.0 - 2.0**-53,  # the largest uniform below 1
]


def scalar(p, sigma=1.0):
    return np.array([sigma * standard_normal_quantile(x) for x in np.ravel(p).tolist()])


def assert_bit_equal(block, reference):
    assert block.dtype == np.float64
    assert block.tobytes() == reference.tobytes(), repr(
        [(a, b) for a, b in zip(block.tolist(), reference.tolist()) if repr(a) != repr(b)][:5]
    )


@pytest.mark.parametrize("sigma", [1.0, 0.7, 3.0, 1e-3])
def test_edge_values(sigma):
    p = np.array(EDGES, dtype=float)
    assert_bit_equal(gaussian_quantiles(p, sigma), scalar(p, sigma))
    # Shape is kept and entries do not interact.
    grid = np.array(EDGES[::-1] + EDGES[1:3]).reshape(4, 4)
    assert gaussian_quantiles(grid, sigma).shape == (4, 4)
    assert_bit_equal(gaussian_quantiles(grid, sigma).ravel(), scalar(grid, sigma))


@settings(max_examples=300, deadline=None)
@given(
    p=st.lists(
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(0.0, 1e-290, exclude_min=True),  # around the Halley cut
            st.floats(0.02, 0.03),  # across the branch point
            st.floats(0.97, 0.98),
            st.sampled_from(EDGES),
        ),
        min_size=1,
        max_size=60,
    ),
    sigma=st.floats(1e-3, 1e3),
)
def test_matches_scalar_quantile(p, sigma):
    p = np.array(p)
    assert_bit_equal(gaussian_quantiles(p, sigma), scalar(p, sigma))


def test_steps_do_not_change_the_draws(monkeypatch):
    p = RandomSource(4).uniforms(1000)
    whole = gaussian_quantiles(p, 1.0)
    monkeypatch.setattr(core, "_GAUSSIAN_STEP", 7)
    assert_bit_equal(gaussian_quantiles(p, 1.0), whole)
    assert gaussian_quantiles(np.empty((3, 0)), 1.0).shape == (3, 0)
    # In place, too.
    inplace = p.copy()
    assert gaussian_quantiles(inplace, 1.0, out=inplace) is inplace
    assert_bit_equal(inplace, whole)


def test_hundred_thousand_draws_go_through_math(monkeypatch):
    # numpy's SIMD log and exp differ from math's in the last bit on some
    # arguments, by CPU.  On draws that all take the log branch, a swap to
    # np.log changes a few outputs; exp only scales the Halley correction, so
    # the outputs cannot show a swap to np.exp, and the call counts below do.
    u = RandomSource(0).uniforms(10**5)
    for p in (u, u * TAIL, 1.0 - u * TAIL):
        assert_bit_equal(gaussian_quantiles(p, 1.0), scalar(p))

    calls = {"log": 0, "erfc": 0, "exp": 0}

    def counted(name):
        def fn(x):
            calls[name] += 1
            return getattr(math, name)(x)

        return fn

    proxy = types.ModuleType("math")
    proxy.__dict__.update(vars(math))
    for name in calls:
        setattr(proxy, name, counted(name))
    monkeypatch.setattr(core, "math", proxy)
    gaussian_quantiles(u, 1.0)
    tail = int((np.minimum(u, 1.0 - u) < TAIL).sum())
    assert 0 < tail < u.size
    assert calls == {"log": tail, "erfc": u.size, "exp": u.size}


def test_signs_either_side_of_the_median():
    # The block transforms give each draw the sign of p - 0.5, which matches
    # the scalar -x above the median and x + 0.0 below it only if x < 0 off
    # the median and +0.0 on it.  Near p = 0.5, where the Halley step moves x
    # by about as much as x itself, check that on p = 0.5 and the 2000 floats
    # either side of it.
    below, above = [0.5], [0.5]
    for _ in range(2000):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    p = np.array(below[:0:-1] + above)
    for sigma in (1.0, 0.7):
        block = gaussian_quantiles(p, sigma)
        assert_bit_equal(block, scalar(p, sigma))
        assert (block[:2000] < 0).all() and (block[2001:] > 0).all()
        assert math.copysign(1.0, block[2000]) == 1.0 and block[2000] == 0.0
    for scale in (1.3, 1e-320):  # the second underflows to signed zeros
        expected = np.array([core.laplace_quantile(x, scale) for x in p.tolist()])
        assert_bit_equal(core._laplace_quantiles(p, scale), expected)
