"""Shifted angular-momentum expansion for one radial bound state.

The radial problem  [-1/2 d^2/dq^2 + L(L+1)/(2 q^2) + V(q)] psi = eps psi
is expanded about the minimum q0 of its leading classical energy term in
powers of 1/lbar, where lbar = L - beta and the shift beta is chosen so the
first subleading energy coefficient vanishes.  The wavefunction ansatz
psi = F(x) exp(U(x)), with x = sqrt(lbar) (q - q0)/q0, turns the problem
into a Riccati equation whose coefficients can be matched order by order:
at every half-order in 1/sqrt(lbar) the residual is a polynomial in x, and
equating its coefficients to zero from the highest power downward solves
for that order's unknowns one at a time with nonzero pivots built from the
zeroth-order oscillator frequency.  Even half-orders carry odd-parity
log-derivative corrections plus one energy coefficient; odd half-orders
carry the even-parity corrections.  The divergent correction series is then
resummed with a Pade approximant in 1/lbar.

There is one solver configuration: solve_state(p, s) expands to order
DEFAULT_ORDER = 19 and takes the top member [9/10] of the Pade order ladder
(see _ladder_energy).  It runs in double precision first.  The hierarchy
sums heavily cancelling terms, so its rounding error grows with the order:
the double-precision E^(19) is off by 1.0e-2 relative for relative motion
with k = 0, |m| = 1, Gamma = 2, and by 7.3e-5 for the ion 1s state at
Gamma = 0.2, measured against double-double.  A state whose double ladder
does not converge is therefore re-solved in double-double arithmetic; the
escalation guards against the hierarchy's rounding error, not against the
Pade fit.  That observed convergence is the only choice of path.

The double-double corrections come from a compiled table, the only dd
source: scaled to q0 = 1 they are F_n(k, omega) = omega^e_n P_n(z), with
P_n an exact polynomial in z = 1 - 4/omega^2, and data/series.npz holds the
P_n in Chebyshev form for k <= K_TAB and every omega > 2 (built by
tools/series_table.py, which runs _hierarchy_core in exact rational
arithmetic).  _table_corrections evaluates it from dd Chebyshev polynomials
built by doubling, summed pairwise.  One call of _dd.dd_pade_fit then
builds every member of the dd Pade ladder in one pass, from the qd table of
the corrections and the three-term recurrence of its continued fraction,
on hi/lo float pairs; a member whose qd divisor vanishes is None.  Each
member the ladder reads is evaluated by _dd.dd_pade_eval, whose pole rule
is the double path's.  A state that escalates with k > K_TAB raises
OutsideSeriesTable.

A solve returns the eigenvalue and its certificate (SolveResult).  The W
and F tables of the double hierarchy are read at run time only by
wavefunction_eval, for every state, escalated or not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache, partial
from importlib import resources

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _dd
from ._dd import DD, dd_add, dd_mul
from .errors import (
    HierarchyResidual,
    NoRootInDomain,
    NonPositiveRadius,
    OmegaDomainError,
    OrderOverflow,
    OutsideSeriesTable,
    PoleProximity,
    SeriesTableMismatch,
    SingularPadeSystem,
    ZeroPivot,
    check_integers,
)
from .potentials import HybridPotential
from .series import pade_eval, pade_fit, staircase_orders

# Highest correction order E^(n) the hierarchy will produce.
ORDER_CAP = 30

# Correction order of every solve: one past the 19-coefficient series so
# the [9/10] member of the order ladder is fully determined.
DEFAULT_ORDER = 19

# resum's default Pade degrees (numerator, denominator): the ladder's top member.
DEFAULT_PADE = (9, 10)

# Engine-unit stability demanded of the last five order-ladder members.
STABILITY_TOL = 5e-5

# Highest node count of the compiled correction table data/series.npz
# (tools/series_table.py).
K_TAB = 5

# Log-spaced points of locate_q0's grid; it bisects their indices for the
# one interval on which the origin condition changes sign.
_N_SCAN = 512


@dataclass(frozen=True)
class StateIndex:
    """One radial state: node count k and effective angular momentum l_eff.

    For a two-dimensional problem with azimuthal quantum number m the
    centrifugal term (m^2 - 1/4)/q^2 corresponds to l_eff = |m| - 1/2.
    """

    k: int
    l_eff: float

    def __post_init__(self):
        check_integers(k=self.k)
        if self.k < 0:
            raise ValueError("node count k must be non-negative")
        if not math.isfinite(self.l_eff):
            raise ValueError(f"effective angular momentum must be finite, got {self.l_eff}")
        if self.l_eff < -0.5:
            raise ValueError("effective angular momentum must be >= -1/2")

    @classmethod
    def from_azimuthal(cls, k: int, m: int) -> "StateIndex":
        return cls(k=k, l_eff=abs(m) - 0.5)


@dataclass(frozen=True)
class ShiftParams:
    """Expansion geometry of one state: origin, frequency, shift."""

    q0: float
    omega: float
    beta: float
    lbar: float

    @property
    def q_scale(self) -> float:
        """lbar**2, the constant that scales the potential term."""
        return self.lbar * self.lbar


@dataclass(frozen=True)
class EnergyExpansion:
    """Leading coefficient plus the ladder of corrections in powers of 1/lbar.

    The physical series is lbar^2 * leading_coeff + sum_n corrections[n] / lbar^n.
    """

    leading_coeff: float
    corrections: np.ndarray
    lbar: float

    def __post_init__(self):
        object.__setattr__(self, "corrections", np.asarray(self.corrections, dtype=float))

    @property
    def leading_term(self) -> float:
        return self.lbar * self.lbar * self.leading_coeff

    def truncated_sum(self) -> float:
        """Plain partial sum of the series (no resummation)."""
        t = 1.0 / self.lbar
        return self.leading_term + math.fsum(c * t**i for i, c in enumerate(self.corrections))


# A ladder member that has not been fitted yet (see StaircaseResult).
_UNFITTED = object()


@dataclass(frozen=True)
class StaircaseResult:
    """The Pade order ladder evaluated at the physical expansion parameter.

    fitted holds each member's value, None, or _UNFITTED.  A solve fits
    only the members its spread reads (see _ladder); any other member is
    fitted on first read, once, by fit(M, N), which returns the value or
    None.  So values and member() give what fitting every member up front
    gives.
    """

    orders: list
    spread: float
    converged: bool
    fitted: list = field(repr=False)
    fit: object = field(repr=False, compare=False, default=None)

    @property
    def values(self) -> list:
        """Each member's value; None where its fit failed or the series is too short."""
        return [self._value(i) for i in range(len(self.orders))]

    def member(self, M: int, N: int) -> float | None:
        """The ladder's own [M/N] value; None when (M, N) is off the ladder or its fit failed."""
        try:
            i = self.orders.index((M, N))
        except ValueError:
            return None
        return self._value(i)

    def _value(self, i: int) -> float | None:
        if self.fitted[i] is _UNFITTED:
            self.fitted[i] = self.fit(*self.orders[i])
        return self.fitted[i]


@dataclass(frozen=True)
class SolveResult:
    """One fully solved radial state in engine units.

    precision names the arithmetic path it was solved on, "double" or
    "extended" (double-double).
    """

    energy: float
    expansion: EnergyExpansion
    shift: ShiftParams
    staircase: StaircaseResult
    precision: str

    @property
    def leading_fraction(self) -> float:
        return self.expansion.leading_term / self.energy


# ----------------------------------------------------------------------
# expansion origin and shift geometry
# ----------------------------------------------------------------------

def _omega_sq(p: HybridPotential, q: float) -> float:
    return 3.0 + q * p.derivative(q, 2) / p.derivative(q, 1)


def _root_function(p: HybridPotential, q: float, s: StateIndex) -> float:
    """sqrt(q^3 V') - [l_eff + 1/2 + (k + 1/2) Omega(q)], increasing in q."""
    vp = p.derivative(q, 1)
    if vp <= 0.0:
        return math.nan
    om2 = _omega_sq(p, q)
    if om2 <= 0.0:
        return math.nan
    return math.sqrt(q**3 * vp) - (s.l_eff + 0.5 + (s.k + 0.5) * math.sqrt(om2))


def _root_derivative(p: HybridPotential, q: float, s: StateIndex) -> float:
    v1 = p.derivative(q, 1)
    v2 = p.derivative(q, 2)
    v3 = p.derivative(q, 3)
    omega = math.sqrt(_omega_sq(p, q))
    d_sqrt = (3.0 * q * q * v1 + q**3 * v2) / (2.0 * math.sqrt(q**3 * v1))
    d_omega = ((v2 + q * v3) * v1 - q * v2 * v2) / (2.0 * omega * v1 * v1)
    return d_sqrt - (s.k + 0.5) * d_omega


def locate_q0(p: HybridPotential, s: StateIndex) -> float:
    """Find the expansion origin: the radius minimizing the leading energy term.

    The origin condition g = _root_function is strictly increasing where
    V' > 0: q^3 V' = 2 a q^4 - c q rises and Omega^2 = 3 + (2 a q^3 + 2 c) /
    (2 a q^3 - c) falls.  So a log-spaced grid holds at most one interval
    on which g changes sign from negative to non-negative.  Bisecting the
    grid's indices finds it, and safeguarded Newton iteration polishes it.
    The leading term's curvature there, 3/q^4 + V''/(q^3 V'), equals
    Omega^2/q^4 > 0, so the root is always a minimum.
    """
    a2 = 2.0 * p.a_osc
    osc_len = (a2 / 2.0) ** -0.25 if a2 > 0.0 else 1.0
    if p.c_coul > 0.0 and a2 > 0.0:
        # the frequency diverges at 2 a_osc q^3 = c_coul; stay just above
        q_lo = 1.01 * (p.c_coul / a2) ** (1.0 / 3.0)
    else:
        q_lo = 1e-8 * osc_len
    q_hi = 1e3 * osc_len
    grid = np.geomspace(q_lo, q_hi, _N_SCAN)
    g_lo, g_hi = _root_function(p, grid[0], s), _root_function(p, grid[-1], s)
    if not (math.isfinite(g_lo) or math.isfinite(g_hi)):
        raise OmegaDomainError(
            f"oscillator frequency is not real anywhere in [{q_lo:.3e}, {q_hi:.3e}]"
        )
    if not g_lo < 0.0 <= g_hi:
        raise NoRootInDomain(f"no sign change of the origin condition in [{q_lo:.3e}, {q_hi:.3e}]")
    lo, hi = 0, _N_SCAN - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _root_function(p, grid[mid], s) < 0.0:
            lo = mid
        else:
            hi = mid
    return _polish_root(p, s, grid[lo], grid[hi])


def _polish_root(p: HybridPotential, s: StateIndex, lo: float, hi: float) -> float:
    """Newton iteration kept inside the bracket by bisection fallback.

    Polished to full machine convergence, not merely |g| small: the
    high-order series coefficients magnify an origin error of 1e-12 by many
    orders of magnitude.
    """
    eps = np.finfo(float).eps
    q = 0.5 * (lo + hi)
    for _ in range(200):
        g = _root_function(p, q, s)
        if math.isfinite(g):
            if g < 0.0:
                lo = q
            elif g > 0.0:
                hi = q
            else:
                return q
            dg = _root_derivative(p, q, s)
            step = q - g / dg if dg != 0.0 else math.nan
        else:
            step = math.nan
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
        if abs(step - q) <= 2.0 * eps * q or hi - lo <= 4.0 * eps * q:
            return step if math.isfinite(step) else q
        q = step
    return q


def shift_params(p: HybridPotential, q0: float, s: StateIndex) -> ShiftParams:
    """Frequency, shift and shifted angular momentum at the expansion origin."""
    om2 = _omega_sq(p, q0)
    if om2 <= 0.0:
        raise OmegaDomainError(f"3 + q V''/V' = {om2:.6g} <= 0 at q0 = {q0:.6g}")
    omega = math.sqrt(om2)
    beta = -(0.5 + (s.k + 0.5) * omega)
    lbar = s.l_eff - beta
    if lbar <= 0.0:
        raise OmegaDomainError(f"shifted angular momentum lbar = {lbar:.6g} must be positive")
    return ShiftParams(q0=q0, omega=omega, beta=beta, lbar=lbar)


def subleading_coefficient(sp: ShiftParams, k: int) -> float:
    """The would-be 1/lbar energy coefficient; the shift choice makes it vanish."""
    return ((2.0 * sp.beta + 1.0) / 2.0 + (k + 0.5) * sp.omega) / sp.q0**2


def leading_energy(p: HybridPotential, sp: ShiftParams) -> float:
    """Coefficient of lbar^2 in the energy: 1/(2 q0^2) + V(q0)/lbar^2."""
    return 0.5 / sp.q0**2 + p.value(sp.q0) / sp.q_scale


def b_coefficients(p: HybridPotential, sp: ShiftParams, n_max: int) -> np.ndarray:
    """Taylor coefficients B_n of the scaled effective potential about q0.

    Returns an array b with b[n] = B_n for 1 <= n <= n_max (b[0] unused).
    B_1 vanishes at a converged origin and 2 B_2 equals omega**2.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2: B_2 fixes the oscillator frequency")
    q0, Q = sp.q0, sp.q_scale
    b = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        b[n] = (-1.0) ** n * (n + 1) / 2.0 + p.derivative(q0, n) * q0 ** (n + 2) / (
            math.factorial(n) * Q
        )
    return b


def v_series(b: np.ndarray, beta: float, n_max: int) -> list[np.ndarray]:
    """Perturbation polynomials v^(0)..v^(n_max) of the oscillator expansion.

    v^(0) = B_2 x^2 + (2 beta + 1)/2,
    v^(1) = -(2 beta + 1) x + B_3 x^3, and for n >= 2
    v^(n) = B_{n+2} x^{n+2} + (-1)^n (2b+1)(n+1)/2 x^n + (-1)^n b(b+1)(n-1)/2 x^{n-2}.
    Each is a coefficient array, constant term first.
    """
    if len(b) < n_max + 3:
        raise ValueError(f"need B up to index {n_max + 2}, got {len(b) - 1}")
    return _v_polys(b, beta, n_max, _F64Backend())


def _v_polys(b, beta, n_max: int, backend) -> list:
    """v^(0)..v^(n_max) (see v_series) as backend polynomials, from backend scalars."""
    be = backend
    one = be.scalar(1.0)
    tb1 = be.scalar(2.0) * beta + one
    bb = beta * (beta + one) * be.scalar(0.5)
    out = []
    for n in range(n_max + 1):
        c = be.poly_zeros(n + 3)
        if n == 0:
            be.set_(c, 2, b[2])
            be.set_(c, 0, tb1 * be.scalar(0.5))
        elif n == 1:
            be.set_(c, 3, b[3])
            be.set_(c, 1, -tb1)
        else:
            sign = be.scalar((-1.0) ** n)
            be.set_(c, n + 2, b[n + 2])
            be.set_(c, n, sign * tb1 * be.scalar((n + 1) / 2.0))
            be.set_(c, n - 2, be.get(c, n - 2) + sign * bb * be.scalar(n - 1))
        out.append(c)
    return out


# ----------------------------------------------------------------------
# the order-by-order hierarchy, generic over the scalar backend
# ----------------------------------------------------------------------

# the tables the two product sums read, each indexed by half-order
_TABLES = ("F", "Fp", "T", "W")


def _unknown_powers(k: int, i: int) -> range:
    """The powers of F_i's unknowns: the p < k of the parity of k + i."""
    return range((k + i) % 2, k, 2)


@cache
def _f_side_plan(k: int, J: int) -> tuple[int, dict, list]:
    """(size, reads, steps): how _F64Backend forms R at every half-order, for one (k, J).

    For i = 1..j-1: F_i T_{j-i} where F_i has unknowns, then -F_i' W_{j-i}
    where F_i' has a nonzero power (an unknown of F_i above power 0).  A
    term whose F_i or F_i' has exactly one, at power p, is a scaled shift:
    its coefficient times T_{j-i} or W_{j-i} moved up by p.  Each output
    of it is one product, which rounds once in any order of the sum, with
    or without FMA.  That is every term at k <= 2, the F_i T_{j-i} of even
    i and every F_i' W_{j-i} at k = 3, and the F_i' W_{j-i} of even i at
    k = 4.  Every other term is a correlation, the longer operand first
    (F side on a tie), from the hierarchy's lengths: F_i has max(k, 1)
    coefficients, F_i' k - 1, T_m 2m + 3 and W_m 2m + 2.

    size: the length of a solve's flat buffer, which holds a row for each
    T_m and W_m (k zeros, the coefficients, zeros up to the widest row of
    R) and one for each F_i and -F_i' (max(k, 1) entries); 0 where no term
    is a scaled shift.
    reads[name][i]: (form, offset) of table name's entry i: whether a
    correlation reads its operand form, and where its row starts in the
    buffer (None where no scaled shift reads it).
    steps[j]: None where R is F_0 T_known alone (j = 1, or k = 0), else
    (n, width, shift_rows, starts, coef, correlations): the stack's shape
    (row 0 for F_0 T_known); the rows of the scaled shifts, the buffer
    index each one's output column 0 reads (n_shift) and that of its
    coefficient (n_shift x 1), both None where there are none; and each
    other term as (row, np.positive or np.negative, length, F-side table,
    i, table, j - i, F side first).
    """
    lf = max(k, 1)
    wd = 2 * k + 2 * J + 3
    base = {"T": 0, "W": (J + 1) * wd, "F": 2 * (J + 1) * wd}
    base["Fp"] = base["F"] + (J + 1) * lf
    powers = {"F": [list(_unknown_powers(k, i)) for i in range(J + 1)]}
    powers["Fp"] = [[p - 1 for p in ps if p] for ps in powers["F"]]
    form = {name: [False] * (J + 1) for name in _TABLES}
    form["F"][0] = True  # F_0 T_known
    form["W"] = [True] * (J + 1)  # the mirrored sum
    offset = {name: [None] * (J + 1) for name in _TABLES}
    steps = [None] * (J + 1)
    for j in range(2, J + 1):
        width = k + 2 * j + 3
        rows, starts, coefs, correlations = [], [], [], []
        n = 1
        for i in range(1, j):
            for f, t in (("F", "T"), ("Fp", "W")):
                ps, m = powers[f][i], j - i
                if not ps:
                    continue
                if len(ps) == 1:
                    offset[f][i] = base[f] + i * lf
                    offset[t][m] = base[t] + m * wd + k
                    rows.append(n)
                    starts.append(offset[t][m] - ps[0])
                    coefs.append(offset[f][i] + ps[0])
                else:
                    form[f][i] = form[t][m] = True
                    lf_i, lt = (lf, 2 * m + 3) if f == "F" else (lf - 1, 2 * m + 2)
                    put = np.positive if f == "F" else np.negative
                    correlations.append((n, put, lf_i + lt - 1, f, i, t, m, lf_i >= lt))
                n += 1
        if n == 1:
            continue
        starts, coef = (np.array(starts), np.array(coefs)[:, None]) if rows else (None, None)
        if rows == list(range(1, n)):
            rows = slice(1, n)
        steps[j] = (n, width, rows, starts, coef, correlations)
    reads = {name: list(zip(form[name], offset[name])) for name in _TABLES}
    shifts = any(o is not None for o in offset["F"] + offset["Fp"])
    return base["Fp"] + (J + 1) * lf if shifts else 0, reads, steps


class _F64Operands:
    """One solve's operands of _F64Backend's product sums, as _f_side_plan reads them.

    forms[name][i] is the operand form of a correlation; flat is the buffer
    of padded rows the scaled shifts gather from, and windows its view as
    every run of k + 2J + 3 entries, the widest stack, so that a gather is
    one index of start rows.
    """

    def __init__(self, k: int, J: int):
        size, self.reads, self.steps = _f_side_plan(k, J)
        self.forms = {name: [None] * (J + 1) for name in _TABLES}
        self.flat = np.zeros(size)
        self.windows = sliding_window_view(self.flat, k + 2 * J + 3) if size else None


class _F64Backend:
    """Plain numpy arrays and floats."""

    residual_tol = 1e-7

    @staticmethod
    def scalar(x: float) -> float:
        return float(x)

    @staticmethod
    def to_float(z) -> float:
        return float(z)

    @staticmethod
    def poly_zeros(n: int) -> np.ndarray:
        return np.zeros(n)

    @staticmethod
    def poly_add(a, b, sign=1.0):
        """a + sign * b, the shorter operand padded with zeros.

        With no zero buffer to add into, a -0.0 of an operand stays -0.0;
        the hierarchy's sums that can hold one are read only by np.convolve,
        whose sums start from +0.0 (see _hierarchy_core).  A sign of 1.0
        multiplies exactly, so it is left out.
        """
        if len(a) >= len(b):
            out = a.copy()
            out[: len(b)] += b if sign == 1.0 else sign * b
        else:
            out = b.copy() if sign == 1.0 else sign * b
            out[: len(a)] += a
        return out

    @staticmethod
    def poly_mul(a, b, cap):
        return np.convolve(a, b)[: cap + 1]

    # The batched kernels below each stand for a plain loop, named in their
    # docstrings, and give its bits: every sum keeps its term order.  The
    # two product sums take no cap: no product of the hierarchy reaches it
    # (see _hierarchy_core).

    operands = _F64Operands

    @staticmethod
    def operand(ops, name, j, a):
        """Keep entry j of table name ("F", "Fp", "T" or "W") where _f_side_plan reads it.

        A correlation reads it as (a, a reversed, contiguous), made here
        once: np.convolve(a, b) is the C correlation np.correlate(longer,
        shorter[::-1], "full"), the first operand counting as the longer on
        a tie, so a product finds either operand ready in the order it
        needs.  A scaled shift reads a from its row of ops.flat, F_i' there
        negated.
        """
        form, offset = ops.reads[name][j]
        if form:
            ops.forms[name][j] = a, a[::-1].copy()
        if offset is not None:
            ops.flat[offset : offset + len(a)] = -a if name == "Fp" else a

    @staticmethod
    def mirrored_sum(ops, j):
        """The plain sum 0.0 + W_1 W_{j-1} + W_2 W_{j-2} + ... + W_{j-1} W_1.

        W_i has 2i + 2 coefficients.  The plain loop is acc = poly_zeros(1),
        then acc = acc + poly_mul(W_i, W_{j-i}, cap) for i = 1..j-1, every
        sum started from +0.0 as a zero buffer does; at j = 1 it is
        poly_zeros(1).  W_i W_{j-i} and W_{j-i} W_i are the same bits, the
        longer operand going first whichever is named first, so each
        product is formed once for i <= j/2, as np.correlate(W_{j-i}, W_i
        reversed), and added at i and at j - i.  Every product has 2j + 3
        coefficients, so whole rows are added in place to one zero buffer;
        at j = 2 the one row is the sum, as it holds no -0.0.
        """
        W = ops.forms["W"]
        rows = [np.correlate(W[j - i][0], W[i][1], "full") for i in range(1, j // 2 + 1)]
        if j < 3:
            return rows[0] if rows else np.zeros(1)
        acc = np.zeros(2 * j + 3)
        for row in rows + rows[: (j - 1) // 2][::-1]:
            acc += row
        return acc

    @staticmethod
    def f_term_sum(ops, t_known, j):
        """The plain sum F_0 T_known + sum over i = 1..j-1 of (F_i T_{j-i} - F_i' W_{j-i}).

        The plain loop is R = poly_mul(F_0, T_known, cap), then R =
        poly_add(R, poly_mul(F_i, T_{j-i}, cap)) where F_i has unknowns and
        R = poly_add(R, poly_mul(F_i', W_{j-i}, cap), -1.0) where F_i' is
        not identically zero, for each i in order, poly_add with a zero
        buffer.  F_0 T_known is np.correlate(longer, shorter reversed), F_0
        first on a tie, and holds no -0.0.  At k = 0 (F_0 = [1.0]) it is
        T_known + 0.0, the correlation's sums without the call, and R.
        Otherwise it is row 0 of a stack as wide as itself (a wider later
        row fails numpy's broadcast), and _f_side_plan puts every later term
        in the row of its place in the loop: the scaled shifts with one
        index into ops.windows and one multiply, the others as the
        correlation np.convolve(F_i, .) runs, and every F_i' W_{j-i} row
        negated, as a subtraction adds the negation.  R is the last row of
        the stack's accumulate, sequential by definition; zero padding adds
        exact zeros to sums holding no -0.0.
        """
        f0, f0r = ops.forms["F"][0]
        if len(f0) == 1:
            return t_known * f0[0] + 0.0
        if len(t_known) > len(f0):
            row0 = np.correlate(t_known, f0r, "full")
        else:
            row0 = np.correlate(f0, t_known[::-1], "full")
        step = ops.steps[j]
        if step is None:
            return row0
        n, width, shift_rows, starts, coef, correlations = step
        stack = np.zeros((n, width))
        stack[0] = row0
        if starts is not None:
            shifted = ops.windows[starts, :width]
            shifted *= ops.flat[coef]
            stack[shift_rows] = shifted
        forms = ops.forms
        for r, put, length, f, i, t, m, f_first in correlations:
            (a, ar), (b, br) = forms[f][i], forms[t][m]
            put(np.correlate(a, br, "full") if f_first else np.correlate(b, ar, "full"),
                out=stack[r, :length])
        return np.add.accumulate(stack, axis=0, out=stack)[-1]

    @staticmethod
    def poly_scale(a, z):
        return a * z

    @staticmethod
    def poly_diff(a):
        if len(a) == 1:
            return np.zeros(1)
        return a[1:] * np.arange(1, len(a))

    @staticmethod
    def get(a, j):
        return float(a[j]) if j < len(a) else 0.0

    @staticmethod
    def set_(a, j, z):
        a[j] = z

    @staticmethod
    def max_abs(a) -> float:
        return float(np.abs(a).max()) if len(a) else 0.0

    # Elimination of one unknown adds z times its influence polynomial to the
    # residual R.  An influence has only a handful of nonzero coefficients,
    # so the update runs on a Python-float copy of R over those alone
    # (eliminate makes all W updates of a half-order in one call), and R
    # goes back to numpy once per half-order.  Each touched coefficient
    # gets the same two roundings as the full-length numpy update.  An
    # untouched one would only have gained an exact zero, which changes
    # nothing: numpy sums start from +0.0, so R holds no negative zero.

    @staticmethod
    def sparse(a) -> list:
        return [(i, v) for i, v in enumerate(a.tolist()) if v != 0.0]

    @staticmethod
    def influences(f0, f0p, omega, n: int) -> list:
        """[(sparse(c_t), max_abs(c_t)) for t < n] for the influences c_t.

        c_t is poly_add(poly_mul(f0, Omega x^(t+1) - (t/2) x^(t-1), cap),
        poly_mul(f0p, x^t, cap), -1.0) in the plain loop; here it is Omega f0
        shifted by t + 1, plus -(t/2) f0 shifted by t - 1, less f0p shifted
        by t, with the same bits (see _hierarchy_core).  Only nonzero
        coefficients are kept, so the sign of a zero does not matter.
        """
        rows = np.zeros((n, n + len(f0) + 1))
        t = np.arange(n)[:, None]
        rows[t, t + 1 + np.arange(len(f0))] = f0 * omega
        rows[t[1:], t[1:] - 1 + np.arange(len(f0))] += (t[1:] / -2.0) * f0
        rows[t, t + np.arange(len(f0p))] -= f0p
        out = [[] for _ in range(n)]
        r, c = np.nonzero(rows)
        for ri, ci, v in zip(r.tolist(), c.tolist(), rows[r, c].tolist()):
            out[ri].append((ci, v))
        return list(zip(out, np.max(np.abs(rows), axis=1).tolist()))

    @staticmethod
    def work(a) -> list:
        return a.tolist()

    @staticmethod
    def axpy(r: list, infl: list, z: float, sign=1.0) -> list:
        for i, v in infl:
            r[i] += sign * (v * z)
        return r

    @staticmethod
    def eliminate(r: list, w, powers, influence: list, k: int, omega: float, scale: float) -> float:
        """Solve the W unknowns at powers, in order, from r; return the new scale.

        The plain loop: for each t, z = -get(r, k + t + 1) / omega,
        scale = max(scale, abs(z) * max_abs(c_t)), r = axpy(r, c_t, z) and
        set_(w, t, z), with (c_t, max_abs(c_t)) = influence[t].  r and w
        change in place.  axpy's sign of 1.0 multiplies exactly, so it is
        left out; max(scale, a) is scale unless a > scale, a NaN a included;
        and powers, the half-order's range(top, -1, -2), is w[top::-2], so
        the z go into w with one slice assignment.
        """
        zs = []
        for t in powers:
            infl, infl_max = influence[t]
            z = -r[k + t + 1] / omega
            a = abs(z) * infl_max
            if a > scale:
                scale = a
            for i, v in infl:
                r[i] += v * z
            zs.append(z)
        w[powers.start :: powers.step] = zs
        return scale

    @staticmethod
    def unwork(r: list) -> np.ndarray:
        return np.array(r)


def _hierarchy_core(vpolys, k, order, omega_s, q0_s, backend):
    """Match Riccati coefficients half-order by half-order.

    vpolys: backend polynomials v^(0)..v^(2*order+2); omega_s, q0_s backend
    scalars; returns (corrections list of backend scalars, W, F poly lists).
    Raises ZeroPivot when an elimination pivot vanishes and HierarchyResidual
    when the residual of a half-order does not close to rounding level.  Two
    backends run it: _F64Backend for every solve and wavefunction, and
    tools/series_table.py's rational backend, whose kernels are the plain
    loops, for the compiled correction table.

    Work that does not change inside the half-order loop is done once per
    solve: the influence polynomial of each power, and each solved W_i, F_i,
    F_i' and T_i that the product sums read, kept by be.operand in the
    solve's store (be.operands) when the piece is solved.  Products with an
    F_i that has no unknowns (every i >= 1 for k = 0, even i for k = 1) are
    skipped, and T_j is only built where such a product reads it.  So is
    F_i' W_{j-i} where F_i's only unknown sits at power 0, so that F_i' is
    identically zero: every such term at k = 1, and those of even i at
    k = 2.  A skipped piece is not kept.

    Each half-order makes two product sums and one eliminate call.
    mirrored_sum forms every W_i W_{j-i} once, for i <= j/2, and adds them
    up in the order i = 1..j-1; f_term_sum forms F_0 T_known, every
    F_i T_{j-i} and every -F_i' W_{j-i}, and adds those up into R, in the
    double backend from a plan made once per (k, J) (_f_side_plan).  No
    product reaches the cap k + 2J + 4 of the plain loop's poly_mul: the
    widest, F_0 T_known at j = J, has k + 2J + 3 coefficients.
    eliminate then solves the half-order's W unknowns one power at a time
    on the backend's own form of R, each update touching only the nonzero
    coefficients of the influence.  In double precision all of it gives the
    bits of the plain loop of poly_add / poly_mul / get / axpy / set_ calls,
    resting on these facts (tests/test_batched_kernels.py):

    1. every sum keeps its term order (mirrored_sum adds its rows one by
       one, f_term_sum accumulates down the stack of its rows), and every
       row is the np.convolve it stands for: a scaled shift (fact 5), or
       the same C correlation of the longer operand with the reversed
       shorter one, F_i or F_i' first on a tie (k = 5 ties F_i with T_1
       and F_i' with W_1; k = 3 ties F_0 with T_known at j = 1).  How
       np.correlate rounds depends on the overlap: an output where the
       reversed shorter operand only partly overlaps the longer is a BLAS
       ddot, which with OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell kernel) is
       the sequential sum with fused multiply-adds (FMA) for 1-15 terms,
       as np.dot is; an output of full overlap comes from numpy's own
       loop, the plain sequential sum for a shorter operand of up to 11
       coefficients and the FMA sum at 12 and 13 (at 16, neither).  So the
       double bits, and tests/data/hierarchy_pin.json, hold for that
       kernel; another BLAS kernel may round the partial overlaps
       otherwise;
    2. adding an exact zero to a value that holds no negative zero returns
       it unchanged, so zero padding and skipped coefficients change
       nothing; every sum here starts from +0.0 or from a row that holds
       no -0.0, and x + y is -0.0 only when both are;
    3. np.convolve starts its sums from +0.0, so a product holds no
       negative zero: the negative zeros that _F64Backend.poly_add keeps
       without a zero buffer never reach R, and F_0 T_known, which the
       plain loop takes as R's start, passes the +0.0 start of R's sum
       unchanged (at k = 0, where F_0 = [1.0], it is the only row,
       T_known + 0.0);
    4. a skipped F_i' W_{j-i} row was an exact (signed) zero: every operand
       is finite once the earlier half-orders have passed their residual
       check, and R, which is longer than the row, holds no negative zero,
       so by fact 2 leaving the row out changes no bit, nor R's length;
    5. a row whose F_i or F_i' has one nonzero coefficient c, at power p,
       holds at most one nonzero product per output, which rounds once:
       the correlation gives it whatever order it sums in, with or without
       FMA, and so does c times T_{j-i} or W_{j-i} moved up by p, up to
       the sign of a zero output, which fact 2 makes harmless; -c gives
       the negated row exactly.  (T_m is read unchecked: one that
       overflowed fails the next residual check either way, though the
       residual it prints may read nan on one side and inf on the other.)

    The influences are built in closed form from shifted copies of F_0 and
    F_0': F_0 holds the powers of one parity and F_0' the other, so each
    coefficient of F_0 (Omega x^(t+1) - (t/2) x^(t-1)) sums at most two
    nonzero products, which rounds the same in either order, and the F_0'
    term is taken from it afterwards, as in the plain loop.

    tests/test_hierarchy_pin.py checks the double results bit for bit.
    """
    be = backend
    J = 2 * order + 2
    cap = k + 2 * J + 4
    minus_half = be.scalar(-0.5)
    two = be.scalar(2.0)

    W = [None] * (J + 1)
    F = [None] * (J + 1)
    # the operands the two product sums read, each kept once, when its
    # polynomial is solved
    ops = be.operands(k, J)
    eps = {}

    if be.to_float(omega_s) <= 0.0:
        raise ZeroPivot("oscillator frequency must be positive")

    # half-order 0: W_0 = -Omega x and the oscillator polynomial prefactor
    w0 = be.poly_zeros(2)
    be.set_(w0, 1, -omega_s)
    W[0] = w0
    f0 = be.poly_zeros(k + 1)
    be.set_(f0, k, be.scalar(1.0))
    for p in range(k - 2, -1, -2):
        val = be.scalar((p + 1) * (p + 2) / 2.0) * be.get(f0, p + 2) / (omega_s * be.scalar(p - k))
        be.set_(f0, p, val)
    F[0] = f0
    f0p = be.poly_diff(F[0])
    be.operand(ops, "F", 0, F[0])

    # F_i carries unknowns at the powers p < k of parity k + i; with none it
    # stays zero and its products would add exact zeros to R.  T_j is read
    # only through F_i T_{j-i} with such a nonzero F_i.  F_i' is zero too
    # when F_i's only unknown sits at power 0 (k = 1, and even i at k = 2).
    has_f = [bool(_unknown_powers(k, i)) for i in range(J + 1)]
    has_fp = [max(_unknown_powers(k, i), default=0) > 0 for i in range(J + 1)]
    need_t = any(has_f[1:])

    # influence of the unknown W coefficient at power t <= 2J+1 on the
    # residual, F_0 (Omega x^(t+1) - (t/2) x^(t-1)) - F_0' x^t, with its max_abs;
    # the influences are kept in the backend's elimination form
    influence = be.influences(F[0], f0p, omega_s, 2 * J + 2)
    f0_sparse = be.sparse(F[0])

    # influence of the unknown F coefficient at power p < k: pivot and poly
    prefactor = []
    for p in range(k):
        pivot = omega_s * be.scalar(p - k)
        if be.to_float(pivot) == 0.0:
            raise ZeroPivot(f"prefactor pivot vanished at power {p}")
        infl = be.poly_zeros(p + 1)
        be.set_(infl, p, pivot)
        if p >= 2:
            be.set_(infl, p - 2, be.scalar(-p * (p - 1) / 2.0))
        prefactor.append((pivot, be.sparse(infl)))

    for j in range(1, J + 1):
        # known part: products of already-solved pieces, the sum of the
        # W_i W_{j-i} over i = 1..j-1, then R from F_0 T_known and the
        # F_i T_{j-i} and -F_i' W_{j-i} that are not identically zero
        acc = be.mirrored_sum(ops, j)
        t_known = be.poly_add(be.poly_scale(acc, minus_half), vpolys[j])
        R = be.f_term_sum(ops, t_known, j)
        scale = max(be.max_abs(R), 1.0)

        # odd-parity unknowns at even half-orders, even-parity at odd ones;
        # r is R in the backend's elimination form
        r = be.work(R)
        wj = be.poly_zeros(2 * j + 2)
        powers = range(2 * j + 1, -1, -2) if j % 2 == 0 else range(2 * j, -1, -2)
        scale = be.eliminate(r, wj, powers, influence, k, omega_s, scale)
        W[j] = wj
        be.operand(ops, "W", j, wj)

        if j % 2 == 0:
            # the x^k coefficient carries the energy at integer orders
            z = be.get(r, k) / be.get(F[0], k)
            eps[j] = z
            scale = max(scale, abs(be.to_float(z)))
            r = be.axpy(r, f0_sparse, z, -1.0)

        fj = be.poly_zeros(max(k, 1))
        for p in reversed(_unknown_powers(k, j)):
            pivot, infl = prefactor[p]
            z = -be.get(r, p) / pivot
            r = be.axpy(r, infl, z)
            be.set_(fj, p, z)
        F[j] = fj
        if has_f[j]:
            be.operand(ops, "F", j, fj)
        if has_fp[j]:
            be.operand(ops, "Fp", j, be.poly_diff(fj))

        # the check reads every coefficient of R; an overflow that leaves
        # R infinite (with an infinite scale) fails it too
        R = be.unwork(r)
        resid = be.max_abs(R)
        if not (resid <= be.residual_tol * scale and math.isfinite(resid)):
            raise HierarchyResidual(
                f"hierarchy residual {resid:.3e} at half-order {j} exceeds "
                f"{be.residual_tol:.0e} of scale {scale:.3e}"
            )

        if need_t and j < J:
            w0_wj = be.poly_mul(W[0], W[j], cap)
            acc = be.poly_add(acc, be.poly_scale(w0_wj, two))
            tj = be.poly_add(be.poly_diff(W[j]), acc)
            tj = be.poly_scale(tj, minus_half)
            tj = be.poly_add(tj, vpolys[j])
            if j % 2 == 0:
                be.set_(tj, 0, be.get(tj, 0) - eps[j])
            be.operand(ops, "T", j, tj)

    q0_sq = q0_s * q0_s
    corrections = [eps[2 * n + 2] / q0_sq for n in range(order + 1)]
    return corrections, W, F


def solve_hierarchy(
    v: list[np.ndarray],
    k: int,
    order: int,
    shift: ShiftParams,
    leading_coeff: float,
) -> tuple[EnergyExpansion, list, list]:
    """Solve the matching hierarchy in double precision.

    v holds the coefficient arrays of half-orders 0..2*order+2 (as produced
    by v_series with n_max = 2*order+2).  Returns the correction ladder
    E^(0)..E^(order) and the tables W and F: W[j] and F[j] are the
    log-derivative and prefactor polynomials of half-order j, W_j with only
    odd powers at even j and only even powers at odd j.
    """
    if order > ORDER_CAP or order < 0:
        raise OrderOverflow(f"order {order} outside supported range 0..{ORDER_CAP}")
    J = 2 * order + 2
    if len(v) < J + 1:
        raise ValueError(f"need v^(0)..v^({J}), got {len(v)} polynomials")
    be = _F64Backend()
    vpolys = [np.asarray(c, dtype=float) for c in v]
    corr, W, F = _hierarchy_core(vpolys, k, order, shift.omega, shift.q0, be)
    expansion = EnergyExpansion(
        leading_coeff=leading_coeff,
        corrections=np.array(corr),
        lbar=shift.lbar,
    )
    return expansion, W, F


# ----------------------------------------------------------------------
# resummation
# ----------------------------------------------------------------------

def resum(e: EnergyExpansion, M: int = DEFAULT_PADE[0], N: int = DEFAULT_PADE[1]) -> float:
    """lbar^2 leading coefficient plus the [M/N] Pade value at 1/lbar.

    Any [M/N] the corrections determine, in double precision.  Propagates
    SingularPadeSystem / PoleProximity; solve_state falls back down the
    order ladder instead (see _ladder_energy).
    """
    if len(e.corrections) < M + N + 1:
        raise ValueError(f"[{M}/{N}] needs {M + N + 1} corrections, have {len(e.corrections)}")
    approximant = pade_fit(e.corrections[: M + N + 1], M, N)
    return e.leading_term + pade_eval(approximant, 1.0 / e.lbar)


def pade_stability(e: EnergyExpansion) -> StaircaseResult:
    """Evaluate the double-precision Pade order ladder of the expansion."""
    return _ladder(e.corrections, e.leading_term, partial(resum, e))


def _ladder(corrections: np.ndarray, lead: float, fit_eval) -> StaircaseResult:
    """The Pade order ladder of one series and its late-member stability.

    corrections holds the series in double precision and lead its leading
    term; fit_eval(M, N) returns the leading term plus the [M/N] Pade value
    at 1/lbar, fitted in the precision of the solve, or None where that fit
    failed.  Members whose fit fails or whose denominator sits on a pole are
    recorded as missing.  The
    spread is max - min over the last five available members (fewer if the
    ladder is shorter); spread <= STABILITY_TOL is the convergence signal
    used to accept a state.

    Members are fitted from the top of the ladder down until five exist;
    the rest are left to StaircaseResult to fit on first read.  The tail
    keeps ladder order, so max and min see the values in the order of the
    eager list [v for v in values if v is not None][-5:].
    """
    orders = staircase_orders()
    if _series_is_trivial(corrections, lead):
        return StaircaseResult(
            orders=orders, spread=0.0, converged=True, fitted=[lead] * len(orders)
        )
    fitted = [_UNFITTED if M + N + 1 <= len(corrections) else None for M, N in orders]
    fit = partial(_fit_or_none, fit_eval)
    tail = []
    for i in reversed(range(len(orders))):
        if fitted[i] is _UNFITTED:
            fitted[i] = fit(*orders[i])
        if fitted[i] is not None:
            tail.insert(0, fitted[i])
            if len(tail) == 5:
                break
    spread = (max(tail) - min(tail)) if tail else math.inf
    return StaircaseResult(
        orders=orders, spread=spread, converged=spread <= STABILITY_TOL, fitted=fitted, fit=fit
    )


def _fit_or_none(fit_eval, M: int, N: int) -> float | None:
    try:
        return fit_eval(M, N)
    except (SingularPadeSystem, PoleProximity):
        return None


def _ladder_energy(stair: StaircaseResult, e: EnergyExpansion) -> float:
    """The resummed energy, by one rule for both precisions.

    The ladder's top member, [9/10]; if its fit failed, the highest member
    below it that exists; if none exists, the plain truncated sum of the
    expansion.  The walk reads member() from the top down, so it fits no
    member the spread did not already fit: the first member that exists is
    the top one of the last five the spread is taken over.
    """
    for M, N in reversed(stair.orders):
        energy = stair.member(M, N)
        if energy is not None:
            return energy
    return e.truncated_sum()


def _series_is_trivial(corrections: np.ndarray, leading_term: float) -> bool:
    """True when every correction is negligible against the leading term.

    The expansion is exact for the pure oscillator: all corrections vanish,
    every nontrivial Pade system is singular, and the resummed energy is the
    leading term itself.
    """
    if len(corrections) == 0:
        return True
    scale = max(1.0, abs(leading_term))
    return float(np.max(np.abs(corrections))) <= 1e-13 * scale


# ----------------------------------------------------------------------
# extended-precision path and the orchestrating solver
# ----------------------------------------------------------------------

def _dd_shift(p: HybridPotential, s: StateIndex, q0_seed: float):
    """The origin and its shift geometry in dd, from the frequency equation.

    With t = 2 a q^3, the origin condition q^3 V' = lbar^2 and Omega^2 =
    3 + q V''/V' give omega^2 - 4 = 3c/(t - c) and omega^2 - 1 = 3t/(t - c).
    So q0 = lbar^2 (omega^2 - 4)/(3c) needs no cube root, and omega is the
    one root on (2, inf) of lbar^6 (omega^2 - 4)^4 = (27 c^4/2a)(omega^2 - 1),
    with lbar = l_eff + 1/2 + (k + 1/2) omega.  Newton runs on u = omega - 2,
    so omega^2 - 4 = u(u + 4) keeps its relative accuracy near omega = 2.
    It starts from the frequency at the double origin q0_seed and takes dd
    residuals over a double-precision derivative; each step gains about
    sixteen digits, so the third must already sit at dd rounding level.  The
    pure oscillator (c = 0) has omega = 2 and q0^4 = lbar^2/(2a).

    Returns (q0, omega, beta, lbar, E^(-2)), the last the coefficient of
    lbar^2 in the energy, all DD.
    """
    a, c = p.a_osc, p.c_coul
    half = DD(0.5)
    kh = DD(s.k) + half
    u = DD(0.0)
    if c != 0.0:
        rhs = DD(c) * c * c * c * 27.0 / (2.0 * a)
        u = DD(math.sqrt(_omega_sq(p, q0_seed)) - 2.0)
        for _ in range(3):
            w = u * (u + 4.0)
            lbar = DD(s.l_eff) + (half + kh * (u + 2.0))
            l2, w2 = lbar * lbar, w * w
            lf, wf = float(lbar), float(w)
            slope = (6.0 * float(kh) * lf**5 * wf**4
                     + (4.0 * lf**6 * wf**3 - float(rhs)) * (2.0 * float(u) + 4.0))
            step = (l2 * l2 * l2 * w2 * w2 - rhs * (w + 3.0)) / slope
            u = u - step
        if not abs(float(step)) <= 1e-28 * float(u):
            raise NoRootInDomain(
                f"dd frequency Newton did not converge: last step {float(step):.3e} "
                f"at omega - 2 = {float(u):.6g}"
            )
    omega = u + 2.0
    beta = -(half + kh * omega)
    lbar = DD(s.l_eff) - beta
    if c == 0.0:
        # E^(-2) is stationary in q0, so a double q0 leaves it dd-accurate
        q = DD((float(lbar) ** 2 / (2.0 * a)) ** 0.25)
    else:
        q = lbar * lbar * (u * (u + 4.0)) / (DD(c) * 3.0)
    em2 = half / (q * q) + (DD(a) * q * q + DD(c) / q) / (lbar * lbar)
    return q, omega, beta, lbar, em2


@cache
def _series_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, e): Chebyshev coefficients of P_n(k, z), indexed [k, j, n], and e_n.

    Read once from data/series.npz (tools/series_table.py), which must have
    been built for DEFAULT_ORDER and K_TAB.  Every solve shares the arrays,
    so they are read-only.
    """
    with resources.files("pslet.data").joinpath("series.npz").open("rb") as fh:
        with np.load(fh, allow_pickle=False) as table:
            built = (int(table["order"]), int(table["k_tab"]))
            if built != (DEFAULT_ORDER, K_TAB):
                raise SeriesTableMismatch(
                    f"series.npz holds (order, K_TAB) = {built}, the engine needs "
                    f"{(DEFAULT_ORDER, K_TAB)}: rebuild it with tools/series_table.py"
                )
            out = tuple(np.ascontiguousarray(table[name].transpose(0, 2, 1))
                        for name in ("hi", "lo")) + (table["e"],)
    for a in out:
        a.setflags(write=False)
    return out


def _table_corrections(k: int, omega: DD, q0: DD) -> list[DD] | None:
    """E^(0)..E^(DEFAULT_ORDER) in dd from the compiled table; None for k > K_TAB.

    q0^2 E^(n) = F_n(k, omega) = omega^e_n P_n(z) exactly, with P_n a
    polynomial in z = 1 - 4/omega^2 (see tools/series_table.py), and the
    table holds P_n in Chebyshev form in x = 2z - 1.  z is formed as
    (omega - 2)(omega + 2)/omega^2, which keeps its relative accuracy near
    omega = 2.  The T_j(x) of every coefficient index j are built in dd by
    doubling, T_{m+i} = 2 T_m T_i - T_{m-i} for i = 1..m with m = 1, 2, 4,
    ..., the terms c_j T_j are added up in one fixed pairwise tree (a zero
    row pads an odd count), all n at once, and row n is multiplied by
    omega^e_n / q0^2, with e_n 1 or 2.  It covers every omega > 2.
    """
    if k > K_TAB:
        return None
    hi, lo, e = _series_table()
    ch, cl = hi[k], lo[k]
    z = (omega - 2.0) * (omega + 2.0) / (omega * omega)
    x = z + z - 1.0
    th, tl = np.zeros(len(ch)), np.zeros(len(ch))
    th[:2], tl[:2] = (1.0, x.hi), (0.0, x.lo)
    m = 1
    while m + 1 < len(ch):
        i = min(m, len(ch) - 1 - m)
        ph, pl = dd_mul(th[1 : i + 1], tl[1 : i + 1], 2.0 * th[m], 2.0 * tl[m])
        th[m + 1 : m + i + 1], tl[m + 1 : m + i + 1] = dd_add(
            ph, pl, -th[m - i : m][::-1], -tl[m - i : m][::-1])
        m *= 2
    sh, sl = dd_mul(ch, cl, th[:, None], tl[:, None])
    while len(sh) > 1:
        if len(sh) % 2:
            sh, sl = np.vstack((sh, np.zeros_like(sh[:1]))), np.vstack((sl, np.zeros_like(sl[:1])))
        sh, sl = dd_add(sh[0::2], sl[0::2], sh[1::2], sl[1::2])
    w1 = omega / (q0 * q0)
    w2 = w1 * omega
    eh, el = dd_mul(sh[0], sl[0], np.where(e == 1, w1.hi, w2.hi), np.where(e == 1, w1.lo, w2.lo))
    return [DD(h, l) for h, l in zip(eh.tolist(), el.tolist())]


def solve_state(p: HybridPotential, s: StateIndex) -> SolveResult:
    """Full pipeline for one radial state in engine units.

    Solves in double precision and re-solves in double-double whenever the
    Pade order ladder fails its stability tolerance, which is where
    double-precision coefficient noise (amplified by the ill-conditioned
    fit) shows up.  The double-double corrections come from the compiled
    (k, omega) table (_table_corrections); a state that escalates with
    k > K_TAB raises OutsideSeriesTable.  The energy is the top member of
    the final ladder (see _ladder_energy).
    """
    return _solve(p, s)[0]


def _solve_path(path: str, p: HybridPotential, s: StateIndex, q0: float) -> SolveResult:
    """solve_state's "double" or "extended" path alone, from the origin q0."""
    return _solve(p, s, path, q0)[0]


def _solve(p: HybridPotential, s: StateIndex, path: str | None = None, q0: float | None = None):
    """(SolveResult, W, F) on path from the origin q0 (None: locate it).

    path None is solve_state's choice: "double", then "extended" (double-
    double) when the double ladder does not converge.  On the double path W
    and F are the hierarchy's float tables (see solve_hierarchy).  The
    extended path takes its corrections from the compiled table and has no
    tables: W and F are None.
    """
    if q0 is None:
        q0 = locate_q0(p, s)
    if path is None:
        out = _solve(p, s, "double", q0)
        return out if out[0].staircase.converged else _solve(p, s, "extended", q0)
    if path == "double":
        sp = shift_params(p, q0, s)
        b = b_coefficients(p, sp, 2 * DEFAULT_ORDER + 4)
        v = v_series(b, sp.beta, 2 * DEFAULT_ORDER + 2)
        expansion, W, F = solve_hierarchy(v, s.k, DEFAULT_ORDER, sp, leading_energy(p, sp))
        stair = pade_stability(expansion)
    else:
        q, omega, beta, lbar, em2 = _dd_shift(p, s, q0)
        corr_dd, W, F = _table_corrections(s.k, omega, q), None, None
        if corr_dd is None:
            raise OutsideSeriesTable(
                f"k = {s.k} is outside the compiled series table (k <= {K_TAB})"
            )
        expansion = EnergyExpansion(
            leading_coeff=float(em2),
            corrections=np.array([float(c) for c in corr_dd]),
            lbar=float(lbar),
        )
        sp = ShiftParams(q0=float(q), omega=float(omega), beta=float(beta), lbar=float(lbar))
        lead = lbar * lbar * em2
        t = DD(1.0) / lbar
        members = _dd.dd_pade_fit(corr_dd)

        def fit_eval(M: int, N: int) -> float | None:
            member = members[M, N]
            return None if member is None else float(lead + _dd.dd_pade_eval(*member, t))

        stair = _ladder(expansion.corrections, float(lead), fit_eval)
    res = SolveResult(
        energy=_ladder_energy(stair, expansion),
        expansion=expansion,
        shift=sp,
        staircase=stair,
        precision=path,
    )
    return res, W, F


# ----------------------------------------------------------------------
# wavefunction reconstruction
# ----------------------------------------------------------------------

def wavefunction_eval(
    p: HybridPotential,
    s: StateIndex,
    q_grid,
    x_max: float = 3.0,
) -> np.ndarray:
    """Unnormalized psi(q) = F(x) exp(U(x)) from the double hierarchy's W and F.

    W, F and the shift geometry are those of the double path for every
    state, also one whose energy solve_state takes from the extended path:
    over 49 escalated states the dd tables moved psi by at most 4.6e-5 of
    its maximum, far below psi's own error against the finite-difference
    eigenvector (2e-3 to 1.6e-1).  U is the termwise antiderivative of the
    matched log-derivative series (each piece is polynomial, so the integral
    is exact).  Outside the trust region |x| > x_max the truncated exponent
    is unreliable; a warning is emitted and the values are still returned.
    A non-finite radius or x_max, or x_max <= 0, is a ValueError.
    """
    q = np.asarray(q_grid, dtype=float)
    if not (np.all(np.isfinite(q)) and math.isfinite(x_max) and x_max > 0.0):
        raise ValueError(f"need a finite grid and a finite x_max > 0, got x_max = {x_max}")
    if np.any(q <= 0.0):
        raise NonPositiveRadius("wavefunction grid must be strictly positive")
    res, W, F = _solve(p, s, "double")
    sp = res.shift
    x = math.sqrt(sp.lbar) * (q - sp.q0) / sp.q0
    if np.any(np.abs(x) > x_max):
        warnings.warn(
            f"{int(np.sum(np.abs(x) > x_max))} grid points outside the trust region |x| <= {x_max}",
            stacklevel=2,
        )
    rt = 1.0 / math.sqrt(sp.lbar)
    exponent = np.zeros_like(x)
    prefactor = np.zeros_like(x)
    scale = 1.0
    # F[0] already carries the monic x**k head of the prefactor
    for w, f in zip(W, F):
        u_int = np.concatenate(([0.0], w / np.arange(1, len(w) + 1)))
        exponent += scale * np.polynomial.polynomial.polyval(x, u_int)
        prefactor += scale * np.polynomial.polynomial.polyval(x, f)
        scale *= rt
    return prefactor * np.exp(exponent)
