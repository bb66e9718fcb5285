import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heolsim.reference_trajectory import TrajectorySpec, sample


LINE = TrajectorySpec("line", speed=2.0)
CIRCLE = TrajectorySpec("circle", radius=1.0, angular_rate=1.0)
CIRCLE_OFF = TrajectorySpec("circle", radius=50.0, angular_rate=0.04,
                            center_x=3.0, center_y=-7.0, phase=0.6)


def test_line_sample():
    x_d, y_d = sample(LINE, 3.0)
    assert x_d == (6.0, 2.0, 0.0)
    assert y_d == (0.0, 0.0, 0.0)


def test_circle_at_time_zero():
    x_d, y_d = sample(CIRCLE, 0.0)
    assert x_d[0] == pytest.approx(1.0)
    assert x_d[1] == pytest.approx(0.0)
    assert x_d[2] == pytest.approx(-1.0)
    assert y_d[0] == pytest.approx(0.0)
    assert y_d[1] == pytest.approx(1.0)


@pytest.mark.parametrize("spec", [LINE, CIRCLE, CIRCLE_OFF])
@pytest.mark.parametrize("t", [0.5, 2.0, 13.7])
def test_each_derivative_order_by_finite_differences(spec, t):
    # Central differences of analytic order k-1 validate order k, and those
    # of the acceleration validate the identity x^(3) = -w^2 x^(1) that
    # flat_feedforward builds jerk and snap from (w the circle's angular
    # rate, 0 on a line).  (A k-th difference of the raw position is
    # hopeless in doubles for k >= 3.)
    w = spec.angular_rate if spec.variant == "circle" else 0.0
    h = 1e-4
    lo = sample(spec, t - h)
    hi = sample(spec, t + h)
    here = sample(spec, t)
    for axis in (0, 1):
        orders = (*here[axis][1:], -w * w * here[axis][1])
        for k in range(1, 4):
            fd = (hi[axis][k - 1] - lo[axis][k - 1]) / (2 * h)
            scale = max(abs(orders[k - 1]), 1e-3)
            assert fd == pytest.approx(orders[k - 1], abs=1e-5 * scale + 1e-9)


def test_circle_harmonic_identities():
    spec = CIRCLE_OFF
    w = spec.angular_rate
    for t in np.linspace(0.0, 200.0, 41):
        x_d, y_d = sample(spec, float(t))
        rx = x_d[0] - spec.center_x
        ry = y_d[0] - spec.center_y
        assert x_d[2] == pytest.approx(-w * w * rx, rel=1e-12, abs=1e-12)
        assert y_d[2] == pytest.approx(-w * w * ry, rel=1e-12, abs=1e-12)


def test_circle_speed_is_constant():
    spec = CIRCLE_OFF
    want = (spec.radius * abs(spec.angular_rate)) ** 2
    for t in np.linspace(0.0, 300.0, 60):
        x_d, y_d = sample(spec, float(t))
        assert x_d[1] ** 2 + y_d[1] ** 2 == pytest.approx(want, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        TrajectorySpec("circle", radius=0.0, angular_rate=1.0)
    with pytest.raises(ValueError):
        TrajectorySpec("circle", radius=1.0, angular_rate=0.0)
    with pytest.raises(ValueError):
        TrajectorySpec(variant="spline")
    with pytest.raises(ValueError, match=r"angular_rate\*\*4"):
        TrajectorySpec("circle", radius=25.0, angular_rate=-1e300)
    TrajectorySpec("circle", radius=25.0, angular_rate=1e76)
    # R * w**4 stays finite (1e300), but sample's -R * (w * w) is -inf.
    with pytest.raises(ValueError, match=r"angular_rate\*\*2"):
        TrajectorySpec("circle", radius=1e-320, angular_rate=1e155)
    # Every product is finite, but center_x + R * cos(0) is inf.
    for center in ({"center_x": 1e308}, {"center_x": -1e308},
                   {"center_y": 1e308}, {"center_y": -1e308}):
        with pytest.raises(ValueError, match=r"center \+- radius"):
            TrajectorySpec("circle", radius=1e308, angular_rate=1e-80, **center)
    for t in (-0.1, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample(LINE, t)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample(CIRCLE, t)


def closed_form(spec, t):
    """The reference as the closed form writes it, each term a left-to-right
    product: the bits ``sample`` must reproduce."""
    if spec.variant == "line":
        s = spec.speed
        return (s * t, s, 0.0), (0.0, 0.0, 0.0)
    R = spec.radius
    w = spec.angular_rate
    ang = w * t + spec.phase
    c = math.cos(ang)
    s = math.sin(ang)
    w2 = w * w
    return (
        (spec.center_x + R * c, -R * w * s, -R * w2 * c),
        (spec.center_y + R * s, R * w * c, -R * w2 * s),
    )


def _bits(point):
    x_d, y_d = point
    return struct.pack("<6d", *x_d, *y_d)


_times = st.one_of(st.just(0.0), st.floats(0.0, 1e6))
_rates = st.floats(1e-6, 1e2).flatmap(lambda w: st.sampled_from([w, -w]))


@given(
    radius=st.floats(1e-6, 1e6),
    rate=_rates,
    center_x=st.floats(-1e6, 1e6),
    center_y=st.floats(-1e6, 1e6),
    phase=st.floats(-100.0, 100.0),
    t=_times,
)
def test_circle_sample_has_the_closed_forms_bits(radius, rate, center_x, center_y,
                                                 phase, t):
    spec = TrajectorySpec("circle", radius=radius, angular_rate=rate,
                          center_x=center_x, center_y=center_y, phase=phase)
    point = sample(spec, t)
    assert type(point) is tuple
    assert _bits(point) == _bits(closed_form(spec, t))


@given(speed=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)), t=_times)
def test_line_sample_has_the_closed_forms_bits(speed, t):
    spec = TrajectorySpec("line", speed=speed)
    point = sample(spec, t)
    assert type(point) is tuple
    assert _bits(point) == _bits(closed_form(spec, t))


def test_cached_products_are_not_part_of_the_spec():
    names = ["variant", "speed", "center_x", "center_y", "radius", "angular_rate",
             "phase"]
    for spec in (LINE, CIRCLE, CIRCLE_OFF):
        assert [f.name for f in dataclasses.fields(spec)] == names
        values = tuple(getattr(spec, name) for name in names)
        assert hash(spec) == hash(values)
        twin = TrajectorySpec(*values)
        assert twin == spec and hash(twin) == hash(spec)
        assert dataclasses.replace(spec) == spec
    assert repr(CIRCLE_OFF) == (
        "TrajectorySpec(variant='circle', speed=0.0, center_x=3.0, center_y=-7.0, "
        "radius=50.0, angular_rate=0.04, phase=0.6)"
    )
    assert repr(LINE) == (
        "TrajectorySpec(variant='line', speed=2.0, center_x=0.0, center_y=0.0, "
        "radius=0.0, angular_rate=0.0, phase=0.0)"
    )
