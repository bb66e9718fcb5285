import math

import numpy as np
import pytest

from heolsim.reference_trajectory import ReferencePoint, TrajectorySpec, sample


LINE = TrajectorySpec.line(speed=2.0)
CIRCLE = TrajectorySpec.circle(radius=1.0, angular_rate=1.0)
CIRCLE_OFF = TrajectorySpec.circle(radius=50.0, angular_rate=0.04,
                                   center=(3.0, -7.0), phase=0.6)


def test_line_sample():
    ref = sample(LINE, 3.0)
    assert ref.x_d == (6.0, 2.0, 0.0, 0.0, 0.0)
    assert ref.y_d == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_circle_at_time_zero():
    ref = sample(CIRCLE, 0.0)
    assert ref.x_d[0] == pytest.approx(1.0)
    assert ref.x_d[1] == pytest.approx(0.0)
    assert ref.x_d[2] == pytest.approx(-1.0)
    assert ref.y_d[0] == pytest.approx(0.0)
    assert ref.y_d[1] == pytest.approx(1.0)


@pytest.mark.parametrize("spec", [LINE, CIRCLE, CIRCLE_OFF])
@pytest.mark.parametrize("t", [0.5, 2.0, 13.7])
def test_each_derivative_order_by_finite_differences(spec, t):
    # Central differences of analytic order k-1 validate order k.  (A k-th
    # difference of the raw position is hopeless in doubles for k >= 3.)
    h = 1e-4
    lo = sample(spec, t - h)
    hi = sample(spec, t + h)
    here = sample(spec, t)
    for axis in ("x_d", "y_d"):
        for k in range(1, 5):
            fd = (getattr(hi, axis)[k - 1] - getattr(lo, axis)[k - 1]) / (2 * h)
            scale = max(abs(getattr(here, axis)[k]), 1e-3)
            assert fd == pytest.approx(getattr(here, axis)[k], abs=1e-5 * scale + 1e-9)


def test_circle_harmonic_identities():
    spec = CIRCLE_OFF
    w = spec.angular_rate
    for t in np.linspace(0.0, 200.0, 41):
        ref = sample(spec, float(t))
        rx = ref.x_d[0] - spec.center[0]
        ry = ref.y_d[0] - spec.center[1]
        assert ref.x_d[2] == pytest.approx(-w * w * rx, rel=1e-12, abs=1e-12)
        assert ref.y_d[2] == pytest.approx(-w * w * ry, rel=1e-12, abs=1e-12)
        assert ref.x_d[4] == pytest.approx(w**4 * rx, rel=1e-12, abs=1e-12)
        assert ref.y_d[4] == pytest.approx(w**4 * ry, rel=1e-12, abs=1e-12)


def test_circle_speed_is_constant():
    spec = CIRCLE_OFF
    want = (spec.radius * abs(spec.angular_rate)) ** 2
    for t in np.linspace(0.0, 300.0, 60):
        ref = sample(spec, float(t))
        assert ref.x_d[1] ** 2 + ref.y_d[1] ** 2 == pytest.approx(want, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        TrajectorySpec.circle(radius=0.0, angular_rate=1.0)
    with pytest.raises(ValueError):
        TrajectorySpec.circle(radius=1.0, angular_rate=0.0)
    with pytest.raises(ValueError):
        TrajectorySpec(variant="spline")
    with pytest.raises(ValueError, match=r"angular_rate\*\*4"):
        TrajectorySpec.circle(radius=25.0, angular_rate=-1e300)
    TrajectorySpec.circle(radius=25.0, angular_rate=1e76)
    with pytest.raises(ValueError):
        sample(LINE, -0.1)


def test_reference_point_is_immutable():
    ref = sample(LINE, 1.0)
    assert isinstance(ref, ReferencePoint)
    with pytest.raises(AttributeError):
        ref.t = 2.0
