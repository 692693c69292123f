"""Double-double primitives validated against mpmath at 50 digits; the dd Pade
fit's failure paths, its agreement with a per-member elimination and its bits."""

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
        num, den = dd_pade_fit(c, [0.0] * len(c))[2, 2]
        p = pade_fit(np.array(c), 2, 2)
        np.testing.assert_allclose([h + lo for h, lo in num], p.num, rtol=1e-13)
        np.testing.assert_allclose([h + lo for h, lo in den], p.den, rtol=1e-13)
        got = float(dd_pade_eval(num, den, DD(0.3)))
        assert got == pytest.approx(pade_eval(p, 0.3), rel=1e-13)

    def test_every_staircase_member_up_to_the_series_length(self):
        c = np.array([1.0, 0.9, 0.5, 0.3, 0.1, 0.07])
        members = dd_pade_fit(c, np.zeros_like(c))
        assert list(members) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]
        for (M, N), (num, den) in members.items():
            assert (len(num), len(den)) == (M + 1, N + 1)
            assert den[0] == (1.0, 0.0)
        assert dd_pade_fit(np.zeros(0), np.zeros(0)) == {}

    def test_geometric(self):
        num, den = dd_pade_fit([1.0, 1.0], [0.0, 0.0])[0, 1]
        assert float(dd_pade_eval(num, den, DD(0.5))) == pytest.approx(2.0, abs=1e-30)

    def test_geometric_series_is_singular_at_two_two(self):
        # every 2x2 block of 1, t, t^2, ... has rank one: e_1 is zero, so
        # q_2 = q_1 e_1 / e_1 has a zero divisor and [1/2] and every member
        # above it fail; [1/1] is still the series' sum 1 / (1 - t)
        members = dd_pade_fit([1.0] * 5, [0.0] * 5)
        assert members[1, 2] is None and members[2, 2] is None
        num, den = members[1, 1]
        assert num == [(1.0, 0.0), (0.0, 0.0)]
        assert den == [(1.0, 0.0), (-1.0, 0.0)]

    def test_zero_divisor_fails_every_member_above_it(self):
        # c_1 = 0 makes q_1^(1) = c_2 / c_1 a zero-divisor entry; it first
        # enters a_2 = e_1^(0), so [1/1] and every member above it fail (the
        # [1/1] system c_1 q_1 = -c_2 is singular), while [0/1] has
        # a_1 = c_1 / c_0 = 0 and is the constant c_0
        members = dd_pade_fit([1.0, 0.0, 0.5, 0.3, 0.1], [0.0] * 5)
        num, den = members[0, 1]
        assert num == [(1.0, 0.0)]
        assert den == [(1.0, 0.0), (0.0, 0.0)]
        assert [members[M, N] for M, N in ((1, 1), (1, 2), (2, 2))] == [None] * 3

    def test_eval_on_a_pole_raises(self):
        # den(t) = 1 - 2t vanishes at t = 1/2
        with pytest.raises(PoleProximity, match="sits on a pole"):
            dd_pade_eval([(1.0, 0.0)], [(1.0, 0.0), (-2.0, 0.0)], DD(0.5))


def _reference_fit(hi, lo, M: int, N: int) -> tuple[list, list]:
    """The [M/N] dd fit of hi + lo by partial-pivoting Gaussian elimination, as (hi, lo) pairs.

    The per-member fit the extended path used before the qd table: the
    pivot is the first row of largest |hi|, and the elimination, the back
    substitution and the numerator run on hi/lo floats in the operation
    order of DD's operators.  Raises SingularPadeSystem on a zero pivot.
    """

    def sub_mul(ah, al, bh, bl, ch, cl):
        ph, pl = dd_mul(bh, bl, ch, cl)
        return dd_add(ah, al, -ph, -pl)

    ch, cl = [float(x) for x in hi], [float(x) for x in lo]
    if N == 0:
        return list(zip(ch[: M + 1], cl[: M + 1])), [(1.0, 0.0)]
    rows = [[M + 1 + i - s for s in range(1, N + 1)] for i in range(N)]
    Ah = [[ch[j] if j >= 0 else 0.0 for j in row] for row in rows]
    Al = [[cl[j] if j >= 0 else 0.0 for j in row] for row in rows]
    rh, rl = [-ch[M + 1 + i] for i in range(N)], [-cl[M + 1 + i] for i in range(N)]
    for col in range(N):
        piv = max(range(col, N), key=lambda r: abs(Ah[r][col]))
        if Ah[piv][col] == 0.0 and Al[piv][col] == 0.0:
            raise SingularPadeSystem(f"[{M}/{N}] dd denominator system is singular")
        for a in (Ah, Al, rh, rl):
            a[col], a[piv] = a[piv], a[col]
        ph, pl = Ah[col], Al[col]
        for r in range(col + 1, N):
            ah, al = Ah[r], Al[r]
            fh, fl = dd_div(ah[col], al[col], ph[col], pl[col])
            for cc in range(col, N):
                ah[cc], al[cc] = sub_mul(ah[cc], al[cc], fh, fl, ph[cc], pl[cc])
            rh[r], rl[r] = sub_mul(rh[r], rl[r], fh, fl, rh[col], rl[col])
    qh, ql = [1.0] + [0.0] * N, [0.0] * (N + 1)
    for r in range(N - 1, -1, -1):
        sh, sl = rh[r], rl[r]
        for cc in range(r + 1, N):
            sh, sl = sub_mul(sh, sl, Ah[r][cc], Al[r][cc], qh[cc + 1], ql[cc + 1])
        qh[r + 1], ql[r + 1] = dd_div(sh, sl, Ah[r][r], Al[r][r])
    num = []
    for i in range(M + 1):
        sh = sl = 0.0
        for j in range(0, min(i, N) + 1):
            sh, sl = dd_add(sh, sl, *dd_mul(qh[j], ql[j], ch[i - j], cl[i - j]))
        num.append((sh, sl))
    return num, list(zip(qh, ql))


def _member_energy(lead: DD, t: DD, fit) -> float | str:
    """lead + the member's dd value at t, or the name of its failure."""
    try:
        member = fit()
        if member is None:
            raise SingularPadeSystem("the member's fit failed")
        return float(lead + dd_pade_eval(*member, t))
    except (SingularPadeSystem, PoleProximity) as err:
        return type(err).__name__


def _table_states() -> list[tuple[str, float, int, int]]:
    # seeded states across the table's k range, with the named hard cases:
    # the pole case, whose [9/10] member sits on a pole, and the ion 4s
    # outlier, whose [9/10] member carries a Froissart doublet
    rng = np.random.default_rng(37)
    states = [
        (str(rng.choice(["ion", "rm"])), float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))),
         int(rng.integers(0, 6)), int(rng.integers(0, 3)))
        for _ in range(24)
    ]
    states += [(system, gamma, k, 0) for system in ("ion", "rm") for gamma in (0.3, 2.0) for k in (4, 5)]
    return states + [("ion", 3.29, 5, 0), ("ion", 0.179876, 3, 0)]


def test_one_pass_fit_matches_the_elimination_member_for_member():
    # every staircase member of the one-pass fit gives the float the
    # per-member elimination gives, or fails as it does (a None member
    # counts as the elimination's SingularPadeSystem)
    from pslet.engine import StateIndex, _dd_shift, _table_corrections, locate_q0
    from pslet.quantum_dot import radial_potential

    failures = {}
    for system, gamma, k, m in _table_states():
        p, s = radial_potential(system, gamma), StateIndex.from_azimuthal(k, m)
        q, omega, _, lbar, em2 = _dd_shift(p, s, locate_q0(p, s))
        hi, lo = _table_corrections(k, omega, q)
        lead, t = lbar * lbar * em2, DD(1.0) / lbar
        members = dd_pade_fit(hi, lo)
        assert len(members) == len(hi)
        for M, N in members:
            n = M + N + 1
            ref = _member_energy(lead, t, lambda: _reference_fit(hi[:n], lo[:n], M, N))
            got = _member_energy(lead, t, lambda: members[M, N])
            assert got == ref, (system, gamma, k, m, M, N)
            if isinstance(ref, str):
                failures[system, gamma, k, m, M, N] = ref
    assert failures[("ion", 3.29, 5, 0, 9, 10)] == "PoleProximity"


# SHA-256 of every hi and lo word of the one-pass [9/10] member below,
# recorded when the qd table replaced the per-member elimination.  The
# input is the pin row's float corrections, so the compiled table's lo
# words do not enter.
ION_G02_FIT_SHA256 = "e3c21b91549fd133e274f9325fd169521979cedb977f3603852a576be818f4a4"


def test_top_ladder_fit_keeps_every_word():
    rows = json.loads((Path(__file__).parent / "data" / "corrections_pin.json").read_text())
    row = next(r for r in rows if (r["system"], r["k"], r["m"], r["Gamma"], r["precision"])
               == ("ion", 0, 0, 0.2, "extended"))
    c = [float.fromhex(h) for h in row["corrections"]]
    num, den = dd_pade_fit(c, [0.0] * len(c))[9, 10]
    assert (len(num), len(den)) == (10, 11)
    words = "".join(f"{hi.hex()} {lo.hex()}\n" for hi, lo in num + den)
    assert hashlib.sha256(words.encode()).hexdigest() == ION_G02_FIT_SHA256
