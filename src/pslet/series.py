"""Pade resummation of a power series in plain double precision.

The Pade fitter solves the usual Toeplitz system for the denominator by
dense LU with partial pivoting.  Physical correction series can grow close
to factorially, which makes the raw system look astronomically
ill-conditioned for scaling reasons alone, so the condition estimate (and
the solve itself) is performed in a power-of-two rescaled variable that
removes the geometric growth without changing a single bit of the input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PoleProximity, SingularPadeSystem

# A fit whose growth-equilibrated denominator system is worse conditioned
# than this loses essentially all double-precision digits.
CONDITION_LIMIT = 1e12

# |den(t)| below this fraction of sum_i |den_i t^i| counts as sitting on a pole.
POLE_TOLERANCE = 1e-8

# A denominator system whose largest term is below this is scaled up before
# the solve: the product of two such terms is subnormal or zero.
_TINY = 2.0**-500


@dataclass(frozen=True)
class PadeApproximant:
    """Rational function num/den of degrees (M, N) in one variable.

    den[0] is fixed to exactly 1; the approximant re-expands to the fitted
    power-series coefficients through order M + N.
    """

    num: np.ndarray
    den: np.ndarray
    M: int = field(init=False)
    N: int = field(init=False)

    def __post_init__(self):
        num = np.asarray(self.num, dtype=float)
        den = np.asarray(self.den, dtype=float)
        if den[0] != 1.0:
            raise ValueError("denominator leading coefficient must be 1")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "M", len(num) - 1)
        object.__setattr__(self, "N", len(den) - 1)


def _growth_rate(c: list) -> float:
    """Power-of-two estimate of the geometric growth of |c_n|, c as Python floats.

    Rescaling by an exact power of two is lossless in binary floating point,
    so the equilibrated solve is bit-deterministic.  The exponent is clamped
    so that rho**(len(c)-1) can never overflow.
    """
    a = [abs(x) for x in c]
    # a coefficient below 2**-52 of the largest is rounding noise, not growth
    floor = 2.0**-52 * max(a)
    nz = [x for x in a if x != 0.0 and x >= floor]
    if len(nz) < 2:
        return 1.0
    # per-step growth exponent in log space; immune to over/underflow
    log_ratio = (math.log2(nz[-1]) - math.log2(nz[0])) / (len(c) - 1)
    e_max = 1000 // max(1, len(c) - 1)
    e = min(e_max, max(-e_max, round(log_ratio)))
    return 2.0**e


@functools.lru_cache(maxsize=64)
def _toeplitz_index(M: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, idx, inside) of the (M, N) denominator system, built once per (M, N).

    Entry (r, s) of the system is c[idx[r, s]] where inside[r, s], else 0;
    rows are the series indices of the right-hand side.  Read-only, since
    every fit of that (M, N) shares them.
    """
    rows = np.arange(M + 1, M + N + 1)
    raw = rows[:, None] - np.arange(1, N + 1)[None, :]
    out = (rows, np.clip(raw, 0, None), raw >= 0)
    for a in out:
        a.setflags(write=False)
    return out


def pade_fit(c, M: int, N: int) -> PadeApproximant:
    """Fit the (M, N) Pade approximant to the series coefficients c0..c_{M+N}.

    Raises SingularPadeSystem when a coefficient is not finite, or when the
    denominator system is singular or so ill-conditioned (after removing
    geometric coefficient growth) that the result would carry no
    double-precision accuracy.

    The condition number is s[0]/s[-1] of the singular values, the 2-norm
    number np.linalg.cond computes (a zero s[-1] reads as infinite, as there),
    and the numerator's fsum runs over Python floats: the same bits as the
    numpy spelling, without its per-call overhead; a rho of 1 skips the
    rescale and its undoing, which would change no bit.
    """
    c = np.asarray(c, dtype=float)
    if len(c) != M + N + 1:
        raise ValueError(f"need exactly M+N+1 = {M + N + 1} coefficients, got {len(c)}")
    if not np.isfinite(c).all():
        raise SingularPadeSystem(f"[{M}/{N}] series has a non-finite coefficient")
    if N == 0:
        return PadeApproximant(c.copy(), np.array([1.0]))

    cl = c.tolist()
    rho = _growth_rate(cl)
    cs = c if rho == 1.0 else c / rho ** np.arange(len(c))
    # the solve's products of tiny (say subnormal) terms underflow and lose
    # their digits; an exact power-of-two scale keeps them and changes no q
    top = float(np.abs(cs).max())
    if 0.0 < top < _TINY:
        cs = np.ldexp(cs, -math.frexp(top)[1])
    rows, idx, inside = _toeplitz_index(M, N)
    A = np.where(inside, cs[idx], 0.0)
    rhs = -cs[rows]
    try:
        sv = np.linalg.svd(A, compute_uv=False).tolist()
    except np.linalg.LinAlgError:
        sv = [math.nan]
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else math.inf
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularPadeSystem(
            f"[{M}/{N}] denominator system condition {cond:.2e} exceeds {CONDITION_LIMIT:.0e}"
        )
    try:
        q = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularPadeSystem(f"[{M}/{N}] denominator system is singular") from err
    # q solves the system in the rescaled variable rho*t; undo the scaling
    den = np.concatenate(([1.0], q if rho == 1.0 else q * rho ** np.arange(1, N + 1)))
    dl = den.tolist()
    num = np.array(
        [math.fsum([dl[j] * cl[i - j] for j in range(min(i, N) + 1)]) for i in range(M + 1)]
    )
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise SingularPadeSystem(f"[{M}/{N}] fit produced non-finite coefficients")
    return PadeApproximant(num, den)


def _horner(c: list, t: float) -> float:
    """np.polynomial.polynomial.polyval(t, c) in Python floats, bit for bit.

    The same start c[-1] + t*0 (which fixes the sign of a zero, and gives
    nan at an infinite t) and the same order of the same operations.
    """
    v = c[-1] + t * 0.0
    for a in c[-2::-1]:
        v = a + v * t
    return v


def pade_eval(p: PadeApproximant, t: float) -> float:
    """Evaluate num(t)/den(t) by Horner's rule in Python floats.

    Raises PoleProximity when den(t) is negligible against the natural scale
    sum_i |den_i t^i|, which signals a spurious pole at the evaluation point.
    """
    tpow = np.abs(p.den) * np.abs(t) ** np.arange(len(p.den))
    scale = float(tpow.sum())
    den_val = float(_horner(p.den.tolist(), t))
    if abs(den_val) < POLE_TOLERANCE * scale:
        raise PoleProximity(
            f"denominator {den_val:.3e} at t={t:.6g} is below {POLE_TOLERANCE:.0e} of scale {scale:.3e}"
        )
    num_val = float(_horner(p.num.tolist(), t))
    return num_val / den_val


def staircase_orders() -> list[tuple[int, int]]:
    """The Pade order ladder (1,2), (2,2), (2,3), ... up to (9,10)."""
    orders = [(1, 2)]
    while orders[-1] != (9, 10):
        M, N = orders[-1]
        orders.append((M + 1, N) if M < N else (M, N + 1))
    return orders
