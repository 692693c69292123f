"""Truncated polynomial arithmetic and Pade fitting against exact oracles."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pslet.engine import StateIndex, _F64Backend, _solve_path, locate_q0, pade_stability
from pslet.errors import PoleProximity, SingularPadeSystem
from pslet.potentials import HybridPotential
from pslet.series import PadeApproximant, pade_eval, pade_fit, staircase_orders


def brute_convolution(a, b, cap):
    """Term-by-term product oracle, independent of numpy."""
    out = [0.0] * (cap + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= cap:
                out[i + j] += ai * bj
    return out


def taylor_of_rational(num, den, n):
    """Exact Taylor coefficients of num/den via rational arithmetic.

    den[0] must be 1.  Floats are exact rationals, so this measures the true
    series of the fitted approximant with no rounding at all.
    """
    num = [Fraction(float(x)) for x in num]
    den = [Fraction(float(x)) for x in den]
    out = []
    for r in range(n):
        s = num[r] if r < len(num) else Fraction(0)
        s -= sum(den[j] * out[r - j] for j in range(1, min(r, len(den) - 1) + 1))
        out.append(s)
    return [float(x) for x in out]


class TestPolynomial:
    """The double backend's truncated polynomial arithmetic, on which the
    hierarchy runs."""

    be = _F64Backend

    def test_add_cancellation(self):
        out = self.be.poly_add(np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        assert self.be.get(out, 0) == 2.0
        assert all(self.be.get(out, j) == 0.0 for j in range(1, 5))

    def test_mul_truncates(self):
        a = np.array([1.0, 1.0])
        assert list(self.be.poly_mul(a, a, 1)) == [1.0, 2.0]

    def test_mul_matches_convolution_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        out = self.be.poly_mul(a, b, 10)
        expect = brute_convolution(a, b, 10)
        np.testing.assert_allclose(out, expect[: len(out)], rtol=1e-14)

    def test_derivative_antiderivative_roundtrip(self):
        # the termwise integral is the one wavefunction_eval applies to W_j
        p = np.array([0.5, -1.0, 2.0, 3.0])
        d = self.be.poly_diff(p)
        q = np.concatenate(([0.0], d / np.arange(1, len(d) + 1)))
        np.testing.assert_allclose(q[1:], p[1:], rtol=1e-15)
        assert q[0] == 0.0

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_mul_commutative(self, a, b):
        # equal up to summation order: convolve(a, b) may round differently
        pa, pb = np.array(a), np.array(b)
        left = self.be.poly_mul(pa, pb, 8)
        right = self.be.poly_mul(pb, pa, 8)
        np.testing.assert_allclose(left, right, rtol=1e-13, atol=1e-12)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=5),
        st.lists(st.floats(-5, 5), min_size=1, max_size=5),
        st.lists(st.floats(-5, 5), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_mul_distributes_over_add(self, a, b, c):
        be = self.be
        pa, pb, pc = (np.array(x) for x in (a, b, c))
        lhs = be.poly_mul(pa, be.poly_add(pb, pc), 8)
        rhs = be.poly_add(be.poly_mul(pa, pb, 8), be.poly_mul(pa, pc, 8))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestPadeFit:
    def test_geometric_series(self):
        p = pade_fit([1.0, 1.0], 0, 1)
        np.testing.assert_allclose(p.num, [1.0])
        np.testing.assert_allclose(p.den, [1.0, -1.0])

    def test_exp_one_one(self):
        p = pade_fit([1.0, 1.0, 0.5], 1, 1)
        np.testing.assert_allclose(p.num, [1.0, 0.5], rtol=1e-14)
        np.testing.assert_allclose(p.den, [1.0, -0.5], rtol=1e-14)

    def test_random_nine_ten_reexpands(self):
        # the defining rows are satisfied to machine residual; the exact
        # Taylor coefficients differ by that residual amplified through the
        # denominator recurrence (factor (1/|smallest pole|)^steps), so the
        # coefficient-level agreement is seed dependent and plateaus around
        # 1e-6 for standard-normal draws
        for seed in (42, 7, 2024):
            c = np.random.default_rng(seed).normal(size=20)
            p = pade_fit(c, 9, 10)
            back = taylor_of_rational(p.num, p.den, 20)
            np.testing.assert_allclose(back, c, rtol=1e-5, atol=1e-9)
            self._assert_row_residuals(p, c)

    @staticmethod
    def _assert_row_residuals(p, c):
        """Every defining row of the fit holds to the backward-stable bound.

        On subnormal series both relative terms underflow below the one
        subnormal ulp a residual can carry, so the bound never falls below
        four subnormal ulps; for any series with a normal max|c| the floor
        term alone exceeds that, and the bound is the relative one.
        """
        cmax = max(abs(float(x)) for x in c)
        floor = 1e-14 * cmax * float(np.sum(np.abs(p.den)))
        for r in range(len(c)):
            terms = [p.den[s] * c[r - s] for s in range(0, min(r, p.N) + 1)]
            lhs = math.fsum(terms)
            rhs = p.num[r] if r <= p.M else 0.0
            scale = max(sum(abs(t) for t in terms), abs(rhs))
            assert abs(lhs - rhs) <= max(1e-12 * scale + floor, 4 * math.ulp(0.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pade_fit([1.0, 2.0, 3.0], 2, 2)

    def test_zero_series_is_singular(self):
        with pytest.raises(SingularPadeSystem):
            pade_fit(np.zeros(4), 1, 2)

    def test_denominator_normalization_enforced(self):
        with pytest.raises(ValueError):
            PadeApproximant(np.array([1.0]), np.array([2.0, 1.0]))

    @given(st.lists(st.floats(-2, 2), min_size=5, max_size=9))
    # the [4/4] fit has a pole at |t| = 0.318, and its re-expansion error
    # grows about 3.2x per coefficient, to 1.05e-12 at n = 8
    @example(c=[1.125, -2.0, 0.6953125, 1.125, 0.6953125, -0.640625, -0.625, 0.0, 0.0])
    # subnormal series: the row residual is one subnormal ulp
    @example(c=[0.0, 0.0, 5e-324, 5e-324, 0.0])
    @example(c=[0.0, 2.2250738585e-313, 5e-324, 2.2250738585e-313, 0.0])
    # a leading coefficient 1e-17 of the rest must not read as growth:
    # taken at face value it gives rho = 128 and a condition of 2.7e8
    @example(c=[5.303993624546562e-18, 1.0, 1e-05, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    @settings(max_examples=150, deadline=None)
    def test_reexpansion_invariant(self, c):
        # coefficient n agrees to 1e-10 relative, or to an absolute floor:
        # the recurrence num_r - sum den_j t_{r-j} amplifies the rounding of
        # the fit by about 1/|t_pole| per coefficient, t_pole the pole
        # nearest the origin, so the floor is 1e-14 max|c| |t_pole|^-n, and
        # never below 1e-12 (the whole floor when no pole is inside |t| < 1).
        # A pole so deep that the floor passes max|c| leaves nothing to check.
        M = (len(c) - 1) // 2
        N = len(c) - 1 - M
        try:
            p = pade_fit(c, M, N)
        except SingularPadeSystem:
            return
        # drop negligible high-degree denominator terms before root finding;
        # a companion matrix with a tiny leading coefficient overflows
        den = np.trim_zeros(
            np.where(np.abs(p.den) > 1e-120 * np.max(np.abs(p.den)), p.den, 0.0), "b"
        )
        poles = np.roots(den[::-1]) if len(den) > 1 else np.array([])
        nearest = np.min(np.abs(poles)) if len(poles) else np.float64(np.inf)
        cmax = max(abs(x) for x in c)
        with np.errstate(divide="ignore", over="ignore"):
            pole_floor = 1e-14 * cmax / nearest ** np.arange(len(c))
        if pole_floor[-1] >= cmax:
            return
        back = taylor_of_rational(p.num, p.den, len(c))
        for got, expect, floor in zip(back, c, pole_floor):
            assert abs(got - expect) <= max(1e-10 * abs(expect), 1e-12, floor)
        self._assert_row_residuals(p, c)

    @given(st.lists(st.floats(-2, 2), min_size=4, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_small_t_limit_recovers_constant_term(self, c):
        M = (len(c) - 1) // 2
        N = len(c) - 1 - M
        try:
            p = pade_fit(c, M, N)
        except SingularPadeSystem:
            return
        assert abs(pade_eval(p, 1e-8) - c[0]) <= 1e-6


class TestPadeEval:
    def test_geometric_value(self):
        p = pade_fit([1.0, 1.0], 0, 1)
        assert pade_eval(p, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_constant_term_at_origin(self):
        p = pade_fit([3.25, -1.0, 0.7], 1, 1)
        assert pade_eval(p, 0.0) == pytest.approx(3.25, abs=0.0)

    def test_exp_approximation(self):
        # exact [1/1] of exp at 0.1 is 21/19 = 1.10526...; its true distance
        # to e^0.1 is t^3/12 + O(t^4), about 9.2e-5
        p = pade_fit([1.0, 1.0, 0.5], 1, 1)
        assert pade_eval(p, 0.1) == pytest.approx(21.0 / 19.0, rel=1e-14)
        assert abs(pade_eval(p, 0.1) - math.exp(0.1)) < 1e-4

    def test_pole_raises(self):
        p = pade_fit([1.0, 1.0], 0, 1)   # pole at t = 1
        with pytest.raises(PoleProximity):
            pade_eval(p, 1.0 + 1e-12)


class TestStaircase:
    def test_ladder_shape(self):
        orders = staircase_orders()
        assert orders[0] == (1, 2)
        assert orders[-1] == (9, 10)
        assert len(orders) == 17
        for (m1, n1), (m2, n2) in zip(orders, orders[1:]):
            assert (m2 - m1, n2 - n1) in ((1, 0), (0, 1))


class TestNonFiniteSeries:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [0, 2, -1])
    def test_fit_raises_the_typed_error(self, bad, where):
        c = np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])
        c[where] = bad
        for M, N in [(2, 3), (3, 2), (5, 0)]:
            with pytest.raises(SingularPadeSystem):
                pade_fit(c, M, N)

    def test_ladder_records_the_member_as_missing(self):
        pot = HybridPotential(a_osc=0.7**2 / 8.0, c_coul=1.0)
        s = StateIndex.from_azimuthal(1, 1)
        e = _solve_path("double", pot, s, locate_q0(pot, s)).expansion
        corrections = e.corrections.copy()
        corrections[19] = math.inf
        stair = pade_stability(dataclasses.replace(e, corrections=corrections))
        # only [9/10] reads E^(19); every other member keeps its value
        assert stair.orders[-1] == (9, 10) and stair.values[-1] is None
        assert stair.values[:-1] == pade_stability(e).values[:-1]
        assert None not in stair.values[:-1]
