"""Double-double primitives validated against mpmath at 50 digits; the dd Pade
fit's failure paths and its bits."""

import hashlib
import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

from pslet._dd import DD, dd_add, dd_div, dd_mul, dd_pade_eval, dd_pade_fit
from pslet.errors import PoleProximity, SingularPadeSystem

mpmath.mp.dps = 50

# clean doubles span many magnitudes; dd pairs carry ~32 digits
_RNG = np.random.default_rng(2024)


def _random_dd(n):
    hi = _RNG.normal(size=n) * 10.0 ** _RNG.integers(-6, 7, size=n)
    lo = hi * _RNG.normal(size=n) * 1e-17
    return hi, lo


def _as_mp(hi, lo):
    return [mpmath.mpf(h) + mpmath.mpf(l) for h, l in zip(np.atleast_1d(hi), np.atleast_1d(lo))]


def _rel_err(hi, lo, exact):
    got = [mpmath.mpf(h) + mpmath.mpf(l) for h, l in zip(np.atleast_1d(hi), np.atleast_1d(lo))]
    return max(
        abs((g - e) / e) if e != 0 else abs(g) for g, e in zip(got, exact)
    )


class TestPrimitives:
    def test_add(self):
        ah, al = _random_dd(200)
        bh, bl = _random_dd(200)
        ch, cl = dd_add(ah, al, bh, bl)
        exact = [a + b for a, b in zip(_as_mp(ah, al), _as_mp(bh, bl))]
        assert _rel_err(ch, cl, exact) < 1e-29

    def test_mul(self):
        ah, al = _random_dd(200)
        bh, bl = _random_dd(200)
        ch, cl = dd_mul(ah, al, bh, bl)
        exact = [a * b for a, b in zip(_as_mp(ah, al), _as_mp(bh, bl))]
        assert _rel_err(ch, cl, exact) < 1e-29

    def test_div(self):
        ah, al = _random_dd(200)
        bh, bl = _random_dd(200)
        ch, cl = dd_div(ah, al, bh, bl)
        exact = [a / b for a, b in zip(_as_mp(ah, al), _as_mp(bh, bl))]
        assert _rel_err(ch, cl, exact) < 1e-28

    def test_scalar_third_roundtrip(self):
        third = DD(1.0) / DD(3.0)
        assert float(third * DD(3.0) - DD(1.0)) == pytest.approx(0.0, abs=1e-31)


class TestDDPade:
    def test_matches_double_path_on_tame_series(self):
        # not a geometric series: those make the higher denominator systems
        # exactly singular
        from pslet.series import pade_eval, pade_fit

        c = [1.0, 0.9, 0.5, 0.3, 0.1]
        num, den = dd_pade_fit([DD(x) for x in c], 2, 2)
        p = pade_fit(np.array(c), 2, 2)
        np.testing.assert_allclose([float(x) for x in num], p.num, rtol=1e-13)
        np.testing.assert_allclose([float(x) for x in den], p.den, rtol=1e-13)
        got = float(dd_pade_eval(num, den, DD(0.3)))
        assert got == pytest.approx(pade_eval(p, 0.3), rel=1e-13)

    def test_geometric(self):
        num, den = dd_pade_fit([DD(1.0), DD(1.0)], 0, 1)
        assert float(dd_pade_eval(num, den, DD(0.5))) == pytest.approx(2.0, abs=1e-30)

    def test_geometric_series_is_singular_at_two_two(self):
        # every 2x2 block of 1, t, t^2, ... has rank one
        with pytest.raises(SingularPadeSystem, match=r"\[2/2\] dd denominator system is singular"):
            dd_pade_fit([DD(1.0)] * 5, 2, 2)

    def test_eval_on_a_pole_raises(self):
        # den(t) = 1 - 2t vanishes at t = 1/2
        with pytest.raises(PoleProximity, match="sits on a pole"):
            dd_pade_eval([DD(1.0)], [DD(1.0), DD(-2.0)], DD(0.5))

    def test_zero_denominator_degree_returns_the_series(self):
        c = [DD(1.0, 1e-20), DD(-0.5, 2e-21), DD(0.25)]
        num, den = dd_pade_fit(c, 2, 0)
        assert [(x.hi, x.lo) for x in num] == [(x.hi, x.lo) for x in c]
        assert [(x.hi, x.lo) for x in den] == [(1.0, 0.0)]


# SHA-256 of every hi and lo word of the [9/10] fit below, recorded before
# the fit moved from boxed DD operators to float pairs; both run the same
# operation sequence, so no word may change.  The input is the pin row's
# float corrections, so the compiled table's lo words do not enter.
ION_G02_FIT_SHA256 = "ab6a9b2324f18f69cf3a30ee9ea2b9eb9debe4795f14cc0636bd96421c4cea00"


def test_top_ladder_fit_keeps_every_word():
    rows = json.loads((Path(__file__).parent / "data" / "corrections_pin.json").read_text())
    row = next(r for r in rows if (r["system"], r["k"], r["m"], r["Gamma"], r["precision"])
               == ("ion", 0, 0, 0.2, "extended"))
    num, den = dd_pade_fit([DD(float.fromhex(h)) for h in row["corrections"]], 9, 10)
    assert (len(num), len(den)) == (10, 11)
    words = "".join(f"{x.hi.hex()} {x.lo.hex()}\n" for x in num + den)
    assert hashlib.sha256(words.encode()).hexdigest() == ION_G02_FIT_SHA256
