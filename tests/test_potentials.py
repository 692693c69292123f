"""Hybrid potential closed forms checked against finite differences."""

import numpy as np
import pytest

from pslet.errors import NonPositiveRadius
from pslet.potentials import HybridPotential


class TestHybridDerivative:
    def test_value(self):
        p = HybridPotential(a_osc=0.5, c_coul=2.0)
        assert p.derivative(1.0, 0) == pytest.approx(2.5)

    def test_second_derivative(self):
        p = HybridPotential(a_osc=0.5, c_coul=2.0)
        assert p.derivative(1.0, 2) == pytest.approx(5.0)

    def test_third_derivative(self):
        p = HybridPotential(a_osc=0.005, c_coul=1.0)
        assert p.derivative(2.0, 3) == pytest.approx(-0.375)

    def test_derivative_zero_is_value(self):
        p = HybridPotential(a_osc=0.3, c_coul=0.7)
        for q in (0.2, 1.0, 17.5):
            assert p.derivative(q, 0) == p.value(q)

    def test_nonpositive_radius_rejected(self):
        p = HybridPotential(a_osc=0.5, c_coul=2.0)
        for q in (0.0, -1.0):
            with pytest.raises(NonPositiveRadius):
                p.value(q)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            HybridPotential(a_osc=-1.0)
        with pytest.raises(ValueError):
            HybridPotential(a_osc=1.0, c_coul=-0.5)

    @pytest.mark.parametrize("a", [0.0, 0.17, 3.0])
    def test_oscillator_only_kills_high_orders(self, a):
        p = HybridPotential(a_osc=a, c_coul=0.0)
        for n in range(3, 12):
            assert p.derivative(1.7, n) == 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_finite_difference_of_lower_order(self, n):
        p = HybridPotential(a_osc=0.04, c_coul=1.0)
        for q in np.geomspace(0.5, 50, 12):
            h = 1e-5 * q
            fd = (p.derivative(q + h, n - 1) - p.derivative(q - h, n - 1)) / (2 * h)
            exact = p.derivative(q, n)
            scale = max(abs(exact), abs(p.derivative(q, n - 1)) / q)
            assert abs(fd - exact) <= 1e-6 * max(scale, 1e-12)

