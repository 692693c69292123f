"""Double-double arithmetic: ~32 significant digits from pairs of doubles.

The correction hierarchy sums heavily cancelling terms, so in double
precision its high-order corrections carry large rounding errors: E^(19)
is off by 1.0e-2 relative for relative motion with k = 0, |m| = 1,
Gamma = 2, and by 7.3e-5 for the ion 1s state at Gamma = 0.2.  States
whose staircase is unstable in double precision are therefore re-solved
from the compiled correction table, in this arithmetic, which keeps every
quantity as an unevaluated sum hi + lo of two doubles (Dekker/Knuth
error-free transforms).

The routines dd_add, dd_mul and dd_div take (hi, lo) pairs of numpy arrays
for the compiled correction table, and pairs of Python floats for the Pade
fit, which holds hi and lo lists rather than DD objects.  The scalar DD
class (+, -, *, / and float) carries the Newton step on the frequency
equation and the shift geometry (engine._dd_shift), and the Pade fit's
coefficients in and out.
"""

from __future__ import annotations

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_prod(a, b):
    p = a * b
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def dd_add(ah, al, bh, bl):
    sh, sl = two_sum(ah, bh)
    return two_sum(sh, sl + (al + bl))


def dd_mul(ah, al, bh, bl):
    ph, pl = two_prod(ah, bh)
    return two_sum(ph, pl + (ah * bl + al * bh))


def dd_div(ah, al, bh, bl):
    # a plain 0.0 broadcasts like zeros_like and keeps scalar work in Python floats
    q1 = ah / bh
    th, tl = dd_mul(q1, 0.0, bh, bl)
    rh, rl = dd_add(ah, al, -th, -tl)
    q2 = rh / bh
    th, tl = dd_mul(q2, 0.0, bh, bl)
    rh, rl = dd_add(rh, rl, -th, -tl)
    q3 = rh / bh
    h, l = two_sum(q1, q2)
    return two_sum(h, l + q3)


class DD:
    """Scalar double-double number with operator overloading."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    @staticmethod
    def _coerce(x) -> "DD":
        return x if isinstance(x, DD) else DD(x)

    def __add__(self, other):
        o = self._coerce(other)
        return DD(*dd_add(self.hi, self.lo, o.hi, o.lo))

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __sub__(self, other):
        o = self._coerce(other)
        return DD(*dd_add(self.hi, self.lo, -o.hi, -o.lo))

    def __mul__(self, other):
        o = self._coerce(other)
        return DD(*dd_mul(self.hi, self.lo, o.hi, o.lo))

    def __truediv__(self, other):
        o = self._coerce(other)
        return DD(*dd_div(self.hi, self.lo, o.hi, o.lo))

    def __float__(self):
        return self.hi + self.lo

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"


def _sub_mul(ah, al, bh, bl, ch, cl):
    """a - b * c in dd, the operation sequence of DD's a - b * c."""
    ph, pl = dd_mul(bh, bl, ch, cl)
    return dd_add(ah, al, -ph, -pl)


def dd_pade_fit(c: list[DD], M: int, N: int) -> tuple[list[DD], list[DD]]:
    """(M, N) Pade fit in dd arithmetic; Gaussian elimination, partial pivoting.

    The pivot is the first row of largest |hi|.  The elimination, the back
    substitution and the numerator run on hi/lo lists of Python floats in
    the operation order of DD's operators, so they give the bits of the same
    steps on DD numbers without boxing each one.
    """
    from .errors import SingularPadeSystem

    if len(c) != M + N + 1:
        raise ValueError(f"need exactly M+N+1 = {M + N + 1} coefficients, got {len(c)}")
    if N == 0:
        return list(c[: M + 1]), [DD(1.0)]
    ch, cl = [x.hi for x in c], [x.lo for x in c]
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
                ah[cc], al[cc] = _sub_mul(ah[cc], al[cc], fh, fl, ph[cc], pl[cc])
            rh[r], rl[r] = _sub_mul(rh[r], rl[r], fh, fl, rh[col], rl[col])
    qh, ql = [1.0] + [0.0] * N, [0.0] * (N + 1)
    for r in range(N - 1, -1, -1):
        sh, sl = rh[r], rl[r]
        for cc in range(r + 1, N):
            sh, sl = _sub_mul(sh, sl, Ah[r][cc], Al[r][cc], qh[cc + 1], ql[cc + 1])
        qh[r + 1], ql[r + 1] = dd_div(sh, sl, Ah[r][r], Al[r][r])
    num = []
    for i in range(M + 1):
        sh = sl = 0.0
        for j in range(0, min(i, N) + 1):
            sh, sl = dd_add(sh, sl, *dd_mul(qh[j], ql[j], ch[i - j], cl[i - j]))
        num.append(DD(sh, sl))
    return num, [DD(h, l) for h, l in zip(qh, ql)]


def dd_pade_eval(num: list[DD], den: list[DD], t: DD) -> DD:
    """Horner evaluation of num(t)/den(t) in dd, with the same pole guard."""
    from .errors import PoleProximity
    from .series import POLE_TOLERANCE

    def horner(coeffs):
        vh = vl = 0.0
        for cc in reversed(coeffs):
            vh, vl = dd_add(*dd_mul(vh, vl, t.hi, t.lo), cc.hi, cc.lo)
        return vh, vl

    dh, dl = horner(den)
    scale = 0.0
    tp = 1.0
    for cc in den:
        scale += abs(float(cc)) * abs(tp)
        tp *= float(t)
    if abs(dh + dl) < POLE_TOLERANCE * scale:
        raise PoleProximity(f"dd denominator {dh + dl:.3e} at t={float(t):.6g} sits on a pole")
    return DD(*dd_div(*horner(num), dh, dl))
