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
fit, which works on such pairs rather than DD objects.  The scalar DD
class (+, -, *, / and float) carries the Newton step on the frequency
equation and the shift geometry (engine._dd_shift), and the Pade fit's
coefficients in and out.

dd_pade_fit builds every staircase Pade member of a series in one pass,
as the convergents of its qd continued fraction; dd_pade_eval evaluates
one member under the double path's pole rule.
"""

from __future__ import annotations

import math

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


def dd_pade_fit(c: list[DD]) -> dict[tuple[int, int], tuple[list[DD], list[DD]] | None]:
    """Every staircase Pade member of the series c in dd, from one qd table.

    Returns {(M, N): (num, den) or None} for every M + N < len(c) with
    N = M or M + 1: [0/0], [0/1], [1/1], [1/2], ... up to [9/10] for the 20
    corrections of a solve.  Rutishauser's qd table (progressive form) gives
    the coefficients a_1, a_2, ... of the corresponding fraction
    c_0 / (1 - a_1 t / (1 - a_2 t / ...)): q_1^(j) = c_{j+1} / c_j, e_0^(j) = 0,
    e_k^(j) = (q_k^(j+1) - q_k^(j)) + e_{k-1}^(j+1) and
    q_{k+1}^(j) = (q_k^(j+1) * e_k^(j+1)) / e_k^(j), with a_{2k-1} = q_k^(0)
    and a_{2k} = e_k^(0).  Its n-th convergent P_n / Q_n is the [n//2 / (n+1)//2]
    member: P_n = P_{n-1} - a_n t P_{n-2}, and the same for Q, from
    P_{-1} = 0, P_0 = c_0, Q_{-1} = Q_0 = 1, so den[0] = 1 exactly.

    A zero divisor makes its table entry NaN, which reaches every entry that
    depends on it; the first a_n that is not finite fails member n and every
    member above it, which are None.  Nothing is raised.  Whether a member's
    denominator sits on a pole at t is for dd_pade_eval to decide, by the
    same rule as for any fit.  The work runs on (hi, lo) pairs of Python
    floats in the operation order of DD's operators.
    """
    nan = (float("nan"), float("nan"))

    def div(a, b):
        return dd_div(*a, *b) if b[0] != 0.0 else nan

    cs = [(x.hi, x.lo) for x in c]
    a = cs[:1]
    q = [div(cs[j + 1], cs[j]) for j in range(len(cs) - 1)]
    e = [(0.0, 0.0)] * len(q)
    while q:
        a.append(q[0])
        e = [dd_add(*dd_add(*q[j + 1], -q[j][0], -q[j][1]), *e[j + 1]) for j in range(len(q) - 1)]
        if not e:
            break
        a.append(e[0])
        q = [div(dd_mul(*q[j + 1], *e[j + 1]), e[j]) for j in range(len(e) - 1)]
    members = {}
    num_prev, num, den_prev, den = [], cs[:1], [(1.0, 0.0)], [(1.0, 0.0)]
    for n, an in enumerate(a):
        if not (math.isfinite(an[0]) and math.isfinite(an[1])):
            members.update(dict.fromkeys((m // 2, (m + 1) // 2) for m in range(n, len(c))))
            break
        if n:
            num_prev, num = num, _step(num, num_prev, an)
            den_prev, den = den, _step(den, den_prev, an)
        members[n // 2, (n + 1) // 2] = ([DD(*x) for x in num], [DD(*x) for x in den])
    return members


def _step(p1, p2, a):
    """P_{n-1} - a t P_{n-2} on lists of (hi, lo) pairs, lowest degree first."""
    size = max(len(p1), len(p2) + 1)
    p1 = p1 + [(0.0, 0.0)] * (size - len(p1))
    return p1[:1] + [
        _sub_mul(*p1[i], *a, *p2[i - 1]) if i <= len(p2) else p1[i] for i in range(1, size)
    ]


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
