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

Everything runs in double precision by default.  The series coefficients
are accurate to ~1e-13 relative there, but the Pade fit of a factorially
growing series can amplify that noise by ~1e10, so states whose order
ladder is unstable in double precision are re-solved in double-double
arithmetic ("auto" escalation).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _dd
from ._dd import DD, DDPoly
from .errors import (
    HierarchyResidual,
    NoRootInDomain,
    OmegaDomainError,
    OrderOverflow,
    PoleProximity,
    SingularPadeSystem,
    ZeroPivot,
)
from .potentials import PotentialModel
from .series import Polynomial, pade_eval, pade_fit, staircase_orders

# Highest correction order E^(n) the hierarchy will produce.
ORDER_CAP = 30

# Default correction order: one past the 19-coefficient series so the
# [9/10] member of the order ladder is fully determined.
DEFAULT_ORDER = 19

# Default Pade degrees (numerator, denominator) for the resummation.
DEFAULT_PADE = (9, 10)

# Engine-unit stability demanded of the last five order-ladder members.
STABILITY_TOL = 5e-5


@dataclass(frozen=True)
class StateIndex:
    """One radial state: node count k and effective angular momentum l_eff.

    For a two-dimensional problem with azimuthal quantum number m the
    centrifugal term (m^2 - 1/4)/q^2 corresponds to l_eff = |m| - 1/2.
    """

    k: int
    l_eff: float

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("node count k must be non-negative")
        if self.l_eff < -0.5:
            raise ValueError("effective angular momentum must be >= -1/2")

    @classmethod
    def from_azimuthal(cls, k: int, m: int) -> "StateIndex":
        return cls(k=k, l_eff=abs(m) - 0.5)

    @property
    def centrifugal_factor(self) -> float:
        """l_eff (l_eff + 1), the coefficient of 1/(2 q^2)."""
        return self.l_eff * (self.l_eff + 1.0)


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

    @property
    def expansion_parameter(self) -> float:
        return 1.0 / self.lbar


@dataclass(frozen=True)
class EnergyExpansion:
    """Leading coefficient plus the ladder of corrections in powers of 1/lbar.

    The physical series is lbar^2 * leading_coeff + sum_n corrections[n] / lbar^n.
    """

    leading_coeff: float
    corrections: np.ndarray
    lbar: float
    order: int

    def __post_init__(self):
        object.__setattr__(self, "corrections", np.asarray(self.corrections, dtype=float))

    @property
    def leading_term(self) -> float:
        return self.lbar * self.lbar * self.leading_coeff

    def truncated_sum(self, order: int | None = None) -> float:
        """Plain partial sum of the series (no resummation)."""
        n = len(self.corrections) if order is None else order + 1
        t = 1.0 / self.lbar
        return self.leading_term + math.fsum(c * t**i for i, c in enumerate(self.corrections[:n]))


@dataclass(frozen=True)
class HierarchyState:
    """Coefficient tables produced by the order-by-order matching.

    d_table[m, j] multiplies x**(2m-1) in the odd log-derivative piece of
    half-order j; c_table[m, j] multiplies x**(2m) in the even piece (offset
    so index j stores the piece entering at half-order j+1); a_table[p, j]
    is the x**p coefficient of the polynomial prefactor correction at
    half-order j.  Row m = 0 of d_table is identically zero.
    """

    k: int
    order: int
    omega: float
    d_table: np.ndarray
    c_table: np.ndarray
    a_table: np.ndarray
    w_polys: tuple = field(repr=False, default=())
    f_polys: tuple = field(repr=False, default=())


@dataclass(frozen=True)
class StaircaseResult:
    """The Pade order ladder evaluated at the physical expansion parameter."""

    orders: list
    values: list
    spread: float
    converged: bool

    @property
    def available(self) -> list:
        return [v for v in self.values if v is not None]


@dataclass(frozen=True)
class SolveResult:
    """One fully solved radial state in engine units."""

    energy: float
    expansion: EnergyExpansion
    shift: ShiftParams
    hierarchy: HierarchyState
    staircase: StaircaseResult
    precision: str

    @property
    def leading_fraction(self) -> float:
        return self.expansion.leading_term / self.energy


# ----------------------------------------------------------------------
# expansion origin and shift geometry
# ----------------------------------------------------------------------

def _omega_sq(p: PotentialModel, q: float) -> float:
    return 3.0 + q * p.derivative(q, 2) / p.derivative(q, 1)


def _root_function(p: PotentialModel, q: float, s: StateIndex) -> float:
    """sqrt(q^3 V') - [l_eff + 1/2 + (k + 1/2) Omega(q)], increasing in q."""
    vp = p.derivative(q, 1)
    if vp <= 0.0:
        return math.nan
    om2 = _omega_sq(p, q)
    if om2 <= 0.0:
        return math.nan
    return math.sqrt(q**3 * vp) - (s.l_eff + 0.5 + (s.k + 0.5) * math.sqrt(om2))


def _root_derivative(p: PotentialModel, q: float, s: StateIndex) -> float:
    v1 = p.derivative(q, 1)
    v2 = p.derivative(q, 2)
    v3 = p.derivative(q, 3)
    omega = math.sqrt(_omega_sq(p, q))
    d_sqrt = (3.0 * q * q * v1 + q**3 * v2) / (2.0 * math.sqrt(q**3 * v1))
    d_omega = ((v2 + q * v3) * v1 - q * v2 * v2) / (2.0 * omega * v1 * v1)
    return d_sqrt - (s.k + 0.5) * d_omega


def _curvature_ok(p: PotentialModel, q: float) -> bool:
    """Second minimization condition: d2/dq2 of the leading term is positive."""
    q_scale = q**3 * p.derivative(q, 1)
    return 3.0 / q**4 + p.derivative(q, 2) / q_scale > 0.0


def locate_q0(
    p: PotentialModel,
    s: StateIndex,
    q_lo: float | None = None,
    q_hi: float | None = None,
    n_scan: int = 512,
) -> float:
    """Find the expansion origin: the radius minimizing the leading energy term.

    Scans a log-spaced grid for a sign change of the combined origin/shift
    condition, then polishes the bracket with safeguarded Newton iteration.
    When several roots exist the smallest one with positive curvature of the
    leading term is returned.
    """
    # oscillator stiffness from the large-q curvature (V'' -> 2 a_osc there)
    a_osc = getattr(p, "a_osc", None)
    a2 = 2.0 * a_osc if a_osc is not None else p.derivative(1e3, 2)
    osc_len = (a2 / 2.0) ** -0.25 if a2 > 0.0 else 1.0
    if q_lo is None:
        # for a repulsive-core hybrid the frequency diverges at 2 a q^3 = c
        coul = getattr(p, "c_coul", 0.0)
        if coul > 0.0 and a2 > 0.0:
            # the frequency diverges at 2 a_osc q^3 = c_coul; stay just above
            q_lo = 1.01 * (coul / a2) ** (1.0 / 3.0)
        else:
            q_lo = 1e-8 * osc_len
    if q_hi is None:
        q_hi = 1e3 * osc_len
    grid = np.geomspace(q_lo, q_hi, n_scan)
    vals = np.array([_root_function(p, q, s) for q in grid])
    finite = np.isfinite(vals)
    if not finite.any():
        raise OmegaDomainError(
            f"oscillator frequency is not real anywhere in [{q_lo:.3e}, {q_hi:.3e}]"
        )
    brackets = [
        (grid[i], grid[i + 1])
        for i in range(n_scan - 1)
        if finite[i] and finite[i + 1] and vals[i] < 0.0 <= vals[i + 1]
    ]
    if not brackets:
        raise NoRootInDomain(
            f"no sign change of the origin condition in [{q_lo:.3e}, {q_hi:.3e}]",
            q_lo=q_lo,
            q_hi=q_hi,
        )
    for lo, hi in brackets:
        root = _polish_root(p, s, lo, hi)
        if _curvature_ok(p, root):
            return root
    raise NoRootInDomain(
        f"roots found in [{q_lo:.3e}, {q_hi:.3e}] but none is a minimum",
        q_lo=q_lo,
        q_hi=q_hi,
    )


def _polish_root(p: PotentialModel, s: StateIndex, lo: float, hi: float) -> float:
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


def shift_params(p: PotentialModel, q0: float, s: StateIndex) -> ShiftParams:
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


def leading_energy(p: PotentialModel, sp: ShiftParams) -> float:
    """Coefficient of lbar^2 in the energy: 1/(2 q0^2) + V(q0)/lbar^2."""
    return 0.5 / sp.q0**2 + p.value(sp.q0) / sp.q_scale


def b_coefficients(p: PotentialModel, sp: ShiftParams, n_max: int) -> np.ndarray:
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


def v_series(b: np.ndarray, beta: float, n_max: int) -> list[Polynomial]:
    """Perturbation polynomials v^(0)..v^(n_max) of the oscillator expansion.

    v^(0) = B_2 x^2 + (2 beta + 1)/2,
    v^(1) = -(2 beta + 1) x + B_3 x^3, and for n >= 2
    v^(n) = B_{n+2} x^{n+2} + (-1)^n (2b+1)(n+1)/2 x^n + (-1)^n b(b+1)(n-1)/2 x^{n-2}.
    """
    if len(b) < n_max + 3:
        raise ValueError(f"need B up to index {n_max + 2}, got {len(b) - 1}")
    cap = n_max + 2
    out = []
    for n in range(n_max + 1):
        c = np.zeros(n + 3)
        if n == 0:
            c[2] = b[2]
            c[0] = (2.0 * beta + 1.0) / 2.0
        elif n == 1:
            c[3] = b[3]
            c[1] = -(2.0 * beta + 1.0)
        else:
            sign = (-1.0) ** n
            c[n + 2] = b[n + 2]
            c[n] = sign * (2.0 * beta + 1.0) * (n + 1) / 2.0
            c[n - 2] += sign * beta * (beta + 1.0) / 2.0 * (n - 1)
        out.append(Polynomial(c, cap))
    return out


# ----------------------------------------------------------------------
# the order-by-order hierarchy, generic over the scalar backend
# ----------------------------------------------------------------------

class _F64Backend:
    """Plain numpy arrays and floats."""

    name = "double"
    residual_tol = 1e-7

    @staticmethod
    def scalar(x: float) -> float:
        return float(x)

    @staticmethod
    def to_float(z) -> float:
        return float(z)

    @staticmethod
    def sqrt(z: float) -> float:
        return math.sqrt(z)

    @staticmethod
    def poly_zeros(n: int) -> np.ndarray:
        return np.zeros(n)

    @staticmethod
    def poly_add(a, b, sign=1.0):
        n = max(len(a), len(b))
        out = np.zeros(n)
        out[: len(a)] += a
        out[: len(b)] += sign * b
        return out

    @staticmethod
    def poly_mul(a, b, cap):
        return np.convolve(a, b)[: cap + 1]

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
        return float(np.max(np.abs(a))) if len(a) else 0.0

    @staticmethod
    def poly_to_float(a) -> np.ndarray:
        return np.asarray(a, dtype=float)


class _DDBackend:
    """Double-double pairs of numpy arrays; scalars are DD instances."""

    name = "extended"
    residual_tol = 1e-23

    @staticmethod
    def scalar(x: float) -> DD:
        return DD(x)

    @staticmethod
    def to_float(z: DD) -> float:
        return float(z)

    @staticmethod
    def sqrt(z: DD) -> DD:
        return z.sqrt()

    @staticmethod
    def poly_zeros(n: int) -> DDPoly:
        return DDPoly.zeros(n)

    @staticmethod
    def poly_add(a: DDPoly, b: DDPoly, sign=1.0) -> DDPoly:
        return a.add(b, sign)

    @staticmethod
    def poly_mul(a: DDPoly, b: DDPoly, cap: int) -> DDPoly:
        return a.mul(b, cap)

    @staticmethod
    def poly_scale(a: DDPoly, z: DD) -> DDPoly:
        return a.scale(z)

    @staticmethod
    def poly_diff(a: DDPoly) -> DDPoly:
        return a.derivative()

    @staticmethod
    def get(a: DDPoly, j: int) -> DD:
        return a.get(j)

    @staticmethod
    def set_(a: DDPoly, j: int, z: DD) -> None:
        a.set(j, z)

    @staticmethod
    def max_abs(a: DDPoly) -> float:
        return float(np.max(np.abs(a.hi))) if len(a) else 0.0

    @staticmethod
    def poly_to_float(a: DDPoly) -> np.ndarray:
        return a.to_float()


def _hierarchy_core(vpolys, k, order, omega_s, q0_s, backend):
    """Match Riccati coefficients half-order by half-order.

    vpolys: backend polynomials v^(0)..v^(2*order+2); omega_s, q0_s backend
    scalars; returns (corrections list of backend scalars, W, F poly lists).
    Raises ZeroPivot when an elimination pivot vanishes and HierarchyResidual
    when the residual of a half-order does not close to rounding level.

    Work that does not change inside the half-order loop is done once per
    solve: the influence polynomial of each power, the derivative of each
    solved F_i and the mirrored products W_i W_{j-i}.  Products with an F_i
    that has no unknowns (every i >= 1 for k = 0, even i for k = 1) are
    skipped, and T_j is only built where such a product reads it.  Each of
    these must keep the arithmetic of every term and the order of every sum:
    tests/test_corrections_pin.py checks the results bit for bit.
    """
    be = backend
    J = 2 * order + 2
    cap = k + 2 * J + 4
    minus_half = be.scalar(-0.5)
    two = be.scalar(2.0)

    W = [None] * (J + 1)
    F = [None] * (J + 1)
    Fp = [None] * (J + 1)
    T = [None] * (J + 1)
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

    # F_i carries unknowns at the powers p < k of parity k + i; with none it
    # stays zero and its products would add exact zeros to R.  T_j is read
    # only through F_i T_{j-i} with such a nonzero F_i.
    has_f = [any(p % 2 == (k + i) % 2 for p in range(k)) for i in range(J + 1)]
    need_t = any(has_f[1:])

    # influence of the unknown W coefficient at power t <= 2J+1 on the
    # residual, F_0 (Omega x^(t+1) - (t/2) x^(t-1)) - F_0' x^t, with its max_abs
    influence = []
    for t in range(2 * J + 2):
        tmp = be.poly_zeros(t + 2)
        be.set_(tmp, t + 1, omega_s)
        if t >= 1:
            be.set_(tmp, t - 1, be.scalar(-t / 2.0))
        infl = be.poly_mul(F[0], tmp, cap)
        xt = be.poly_zeros(t + 1)
        be.set_(xt, t, be.scalar(1.0))
        infl = be.poly_add(infl, be.poly_mul(f0p, xt, cap), -1.0)
        influence.append((infl, be.max_abs(infl)))

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
        prefactor.append((pivot, infl))

    for j in range(1, J + 1):
        # known part: products of already-solved pieces.  W_i W_{j-i} and
        # W_{j-i} W_i are the same bits: W_i has 2i+2 coefficients, so the
        # operands differ in length whenever i != j-i, and both np.convolve
        # (longer operand first) and DDPoly.mul (loop over the shorter one)
        # then compute the product in one fixed operand order.  Each product
        # is formed once and added at i and j-i, summing over i = 1..j-1.
        ww = [None] + [be.poly_mul(W[i], W[j - i], cap) for i in range(1, j // 2 + 1)]
        acc = be.poly_zeros(1)
        for i in range(1, j):
            acc = be.poly_add(acc, ww[min(i, j - i)])
        t_known = be.poly_add(be.poly_scale(acc, minus_half), vpolys[j])
        R = be.poly_mul(F[0], t_known, cap)
        for i in range(1, j):
            if has_f[i]:
                R = be.poly_add(R, be.poly_mul(F[i], T[j - i], cap))
                R = be.poly_add(R, be.poly_mul(Fp[i], W[j - i], cap), -1.0)
        scale = max(be.max_abs(R), 1.0)

        # odd-parity unknowns at even half-orders, even-parity at odd ones
        wj = be.poly_zeros(2 * j + 2)
        powers = range(2 * j + 1, -1, -2) if j % 2 == 0 else range(2 * j, -1, -2)
        for t in powers:
            infl, infl_max = influence[t]
            z = -be.get(R, k + t + 1) / omega_s
            scale = max(scale, abs(be.to_float(z)) * infl_max)
            R = be.poly_add(R, be.poly_scale(infl, z))
            be.set_(wj, t, z)
        W[j] = wj

        if j % 2 == 0:
            # the x^k coefficient carries the energy at integer orders
            z = be.get(R, k) / be.get(F[0], k)
            eps[j] = z
            scale = max(scale, abs(be.to_float(z)))
            R = be.poly_add(R, be.poly_scale(F[0], z), -1.0)

        fj = be.poly_zeros(max(k, 1))
        for p in range(k - 1, -1, -1):
            if p % 2 != (k + j) % 2:
                continue
            pivot, infl = prefactor[p]
            z = -be.get(R, p) / pivot
            R = be.poly_add(R, be.poly_scale(infl, z))
            be.set_(fj, p, z)
        F[j] = fj
        if has_f[j]:
            Fp[j] = be.poly_diff(fj)

        resid = be.max_abs(R)
        if not resid <= be.residual_tol * scale:
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
            T[j] = tj

    q0_sq = q0_s * q0_s
    corrections = [eps[2 * n + 2] / q0_sq for n in range(order + 1)]
    return corrections, W, F


def _tables_from_polys(W, F, k, order, backend) -> HierarchyState:
    be = backend
    J = 2 * order + 2
    d_table = np.zeros((J + 2, J + 1))
    c_table = np.zeros((J + 2, J + 1))
    a_table = np.zeros((max(k, 1), J + 1))
    w_float = tuple(be.poly_to_float(w) for w in W)
    f_float = tuple(be.poly_to_float(f) for f in F)
    omega = -w_float[0][1]
    for j in range(J + 1):
        wj = w_float[j]
        if j % 2 == 0:
            for m in range(1, j + 2):
                if 2 * m - 1 < len(wj):
                    d_table[m, j] = wj[2 * m - 1]
        else:
            # even piece entering at half-order j is indexed j - 1
            for m in range(0, j + 1):
                if 2 * m < len(wj):
                    c_table[m, j - 1] = wj[2 * m]
        fj = f_float[j]
        for p in range(min(k, len(fj))):
            a_table[p, j] = fj[p]
    return HierarchyState(
        k=k,
        order=order,
        omega=omega,
        d_table=d_table,
        c_table=c_table,
        a_table=a_table,
        w_polys=w_float,
        f_polys=f_float,
    )


def solve_hierarchy(
    v: list[Polynomial],
    k: int,
    order: int,
    shift: ShiftParams,
    leading_coeff: float,
) -> tuple[EnergyExpansion, HierarchyState]:
    """Solve the matching hierarchy in double precision.

    v must cover half-orders 0..2*order+2 (as produced by v_series with
    n_max = 2*order+2).  Returns the correction ladder E^(0)..E^(order) and
    the full coefficient tables.
    """
    if order > ORDER_CAP or order < 0:
        raise OrderOverflow(f"order {order} outside supported range 0..{ORDER_CAP}")
    J = 2 * order + 2
    if len(v) < J + 1:
        raise ValueError(f"need v^(0)..v^({J}), got {len(v)} polynomials")
    be = _F64Backend()
    vpolys = [np.asarray(p.coeffs, dtype=float) for p in v]
    corr, W, F = _hierarchy_core(vpolys, k, order, shift.omega, shift.q0, be)
    expansion = EnergyExpansion(
        leading_coeff=leading_coeff,
        corrections=np.array(corr),
        lbar=shift.lbar,
        order=order,
    )
    return expansion, _tables_from_polys(W, F, k, order, be)


# ----------------------------------------------------------------------
# resummation
# ----------------------------------------------------------------------

def resum(e: EnergyExpansion, M: int = DEFAULT_PADE[0], N: int = DEFAULT_PADE[1]) -> float:
    """lbar^2 leading coefficient plus the [M/N] Pade value at 1/lbar.

    Propagates SingularPadeSystem / PoleProximity; callers that need a value
    regardless should walk down the order ladder (see resummed_energy).
    """
    if len(e.corrections) < M + N + 1:
        raise ValueError(f"[{M}/{N}] needs {M + N + 1} corrections, have {len(e.corrections)}")
    approximant = pade_fit(e.corrections[: M + N + 1], M, N)
    return e.leading_term + pade_eval(approximant, 1.0 / e.lbar)


def resummed_energy(
    e: EnergyExpansion, M: int = DEFAULT_PADE[0], N: int = DEFAULT_PADE[1]
) -> float:
    """resum with the documented fallback: walk the order ladder downward.

    If the requested [M/N] fit fails or sits on a pole, earlier ladder
    members are tried from the largest down; the plain truncated sum is the
    final fallback (it is the [order/0] member and always exists).
    """
    try:
        return resum(e, M, N)
    except (SingularPadeSystem, PoleProximity):
        pass
    for Mi, Ni in reversed(staircase_orders()):
        if (Mi, Ni) == (M, N) or Mi + Ni >= M + N or Mi + Ni + 1 > len(e.corrections):
            continue
        try:
            return resum(e, Mi, Ni)
        except (SingularPadeSystem, PoleProximity):
            continue
    return e.truncated_sum()


def pade_stability(e: EnergyExpansion, tol: float = STABILITY_TOL) -> StaircaseResult:
    """Evaluate the Pade order ladder and measure its late-member stability.

    Members whose fit fails or whose denominator sits on a pole are recorded
    as missing.  The spread is max - min over the last five available
    members (fewer if the ladder is shorter); spread <= tol is the
    convergence signal used to accept a state.
    """
    orders = staircase_orders()
    if _series_is_trivial(e.corrections, e.leading_term):
        values = [e.leading_term] * len(orders)
        return StaircaseResult(orders=orders, values=values, spread=0.0, converged=True)
    values: list[float | None] = []
    for M, N in orders:
        if M + N + 1 > len(e.corrections):
            values.append(None)
            continue
        try:
            values.append(resum(e, M, N))
        except (SingularPadeSystem, PoleProximity):
            values.append(None)
    tail = [v for v in values if v is not None][-5:]
    spread = (max(tail) - min(tail)) if tail else math.inf
    return StaircaseResult(orders=orders, values=values, spread=spread, converged=spread <= tol)


def _series_is_trivial(corrections, leading_term: float) -> bool:
    """True when every correction is negligible against the leading term.

    The expansion is exact for the pure oscillator: all corrections vanish,
    every nontrivial Pade system is singular, and the resummed energy is the
    leading term itself.
    """
    if len(corrections) == 0:
        return True
    scale = max(1.0, abs(float(leading_term)))
    return float(np.max(np.abs(np.asarray(corrections, dtype=float)))) <= 1e-13 * scale


# ----------------------------------------------------------------------
# extended-precision path and the orchestrating solver
# ----------------------------------------------------------------------

def _dd_shift_and_b(p: PotentialModel, s: StateIndex, q0_seed: float, n_b: int):
    """Polish the origin and rebuild the shift geometry and B_n in dd.

    Only the oscillator-plus-Coulomb family is supported here: the Taylor
    coefficients beyond second order are generated from its closed form.
    """
    if not all(hasattr(p, name) for name in ("derivative_dd", "a_osc", "c_coul")):
        raise TypeError(
            "extended precision supports only potentials of the "
            "oscillator-plus-Coulomb family (need derivative_dd/a_osc/c_coul)"
        )
    half = DD(0.5)
    three = DD(3.0)

    def gfun(q: DD) -> DD:
        v1 = p.derivative_dd(q, 1)
        v2 = p.derivative_dd(q, 2)
        omega = (three + q * v2 / v1).sqrt()
        return (q * q * q * v1).sqrt() - (DD(s.l_eff) + half + (DD(s.k) + half) * omega)

    q = DD(q0_seed)
    for _ in range(4):
        dg = _root_derivative(p, float(q), s)
        q = q - gfun(q) / DD(dg)
    v1 = p.derivative_dd(q, 1)
    v2 = p.derivative_dd(q, 2)
    omega = (three + q * v2 / v1).sqrt()
    beta = -(half + (DD(s.k) + half) * omega)
    lbar = DD(s.l_eff) - beta
    Q = lbar * lbar
    b: list[DD] = [DD(0.0)] * (n_b + 1)
    q4 = q * q * q * q
    coul = DD(getattr(p, "c_coul", 0.0))
    a_osc = DD(getattr(p, "a_osc", 0.0))
    b[1] = DD(-1.0) + (DD(2.0) * a_osc * q4 - coul * q) / Q
    b[2] = DD(1.5) + (a_osc * q4 + coul * q) / Q
    cq = coul * q / Q
    for n in range(3, n_b + 1):
        b[n] = DD((-1.0) ** n) * (DD((n + 1) / 2.0) + cq)
    em2 = half / (q * q) + p.derivative_dd(q, 0) / Q
    return q, omega, beta, lbar, b, em2


def _solve_extended(p: PotentialModel, s: StateIndex, order: int, q0_seed: float):
    J = 2 * order + 2
    q, omega, beta, lbar, b, em2 = _dd_shift_and_b(p, s, q0_seed, J + 4)
    be = _DDBackend()
    tb1 = DD(2.0) * beta + DD(1.0)
    bb = beta * (beta + DD(1.0)) * DD(0.5)
    vpolys = []
    for n in range(J + 1):
        poly = DDPoly.zeros(n + 3)
        if n == 0:
            poly.set(2, b[2])
            poly.set(0, tb1 * DD(0.5))
        elif n == 1:
            poly.set(3, b[3])
            poly.set(1, -tb1)
        else:
            sign = DD((-1.0) ** n)
            poly.set(n + 2, b[n + 2])
            poly.set(n, sign * tb1 * DD((n + 1) / 2.0))
            poly.set(n - 2, poly.get(n - 2) + sign * bb * DD(float(n - 1)))
        vpolys.append(poly)
    corr_dd, W, F = _hierarchy_core(vpolys, s.k, order, omega, q, be)
    shift = ShiftParams(q0=float(q), omega=float(omega), beta=float(beta), lbar=float(lbar))
    hierarchy = _tables_from_polys(W, F, s.k, order, be)
    return corr_dd, lbar, em2, shift, hierarchy


def _dd_staircase(corr_dd, lbar: DD, em2: DD, M: int, N: int, tol: float):
    """Order ladder, resummed value and spread, all in dd arithmetic."""
    lead = lbar * lbar * em2
    t = DD(1.0) / lbar
    orders = staircase_orders()
    if _series_is_trivial([float(c) for c in corr_dd], float(lead)):
        values = [float(lead)] * len(orders)
        stair = StaircaseResult(orders=orders, values=values, spread=0.0, converged=True)
        return stair, float(lead)
    values: list[float | None] = []
    for Mi, Ni in orders:
        if Mi + Ni + 1 > len(corr_dd):
            values.append(None)
            continue
        try:
            num, den = _dd.dd_pade_fit(corr_dd[: Mi + Ni + 1], Mi, Ni)
            values.append(float(lead + _dd.dd_pade_eval(num, den, t)))
        except (SingularPadeSystem, PoleProximity):
            values.append(None)
    tail = [v for v in values if v is not None][-5:]
    spread = (max(tail) - min(tail)) if tail else math.inf
    stair = StaircaseResult(orders=orders, values=values, spread=spread, converged=spread <= tol)
    try:
        num, den = _dd.dd_pade_fit(corr_dd[: M + N + 1], M, N)
        energy = float(lead + _dd.dd_pade_eval(num, den, t))
    except (SingularPadeSystem, PoleProximity):
        energy = None
    return stair, energy


def solve_state(
    p: PotentialModel,
    s: StateIndex,
    order: int = DEFAULT_ORDER,
    pade: tuple[int, int] = DEFAULT_PADE,
    precision: str = "auto",
    stability_tol: float = STABILITY_TOL,
) -> SolveResult:
    """Full pipeline for one radial state in engine units.

    precision "double" and "extended" force the backend; "auto" solves in
    double precision and re-solves in double-double whenever the Pade order
    ladder fails its stability tolerance, which is where double-precision
    coefficient noise (amplified by the ill-conditioned fit) shows up.
    """
    if precision not in ("auto", "double", "extended"):
        raise ValueError(f"unknown precision {precision!r}")
    if order > ORDER_CAP or order < 0:
        raise OrderOverflow(f"order {order} outside supported range 0..{ORDER_CAP}")
    M, N = pade
    if M + N + 1 > order + 1:
        raise ValueError(f"[{M}/{N}] needs order >= {M + N}, got {order}")

    q0 = locate_q0(p, s)
    if precision in ("auto", "double"):
        sp = shift_params(p, q0, s)
        b = b_coefficients(p, sp, 2 * order + 4)
        v = v_series(b, sp.beta, 2 * order + 2)
        expansion, hierarchy = solve_hierarchy(v, s.k, order, sp, leading_energy(p, sp))
        stair = pade_stability(expansion, tol=stability_tol)
        if stair.converged or precision == "double":
            energy = resummed_energy(expansion, M, N)
            return SolveResult(
                energy=energy,
                expansion=expansion,
                shift=sp,
                hierarchy=hierarchy,
                staircase=stair,
                precision="double",
            )

    corr_dd, lbar_dd, em2_dd, sp, hierarchy = _solve_extended(p, s, order, q0)
    stair, energy = _dd_staircase(corr_dd, lbar_dd, em2_dd, M, N, stability_tol)
    expansion = EnergyExpansion(
        leading_coeff=float(em2_dd),
        corrections=np.array([float(c) for c in corr_dd]),
        lbar=float(lbar_dd),
        order=order,
    )
    if energy is None:
        energy = resummed_energy(expansion, M, N)
    return SolveResult(
        energy=energy,
        expansion=expansion,
        shift=sp,
        hierarchy=hierarchy,
        staircase=stair,
        precision="extended",
    )


# ----------------------------------------------------------------------
# wavefunction reconstruction
# ----------------------------------------------------------------------

def wavefunction_eval(
    h: HierarchyState,
    sp: ShiftParams,
    q_grid,
    x_max: float = 3.0,
) -> np.ndarray:
    """Unnormalized psi(q) = F(x) exp(U(x)) from the solved hierarchy.

    U is the termwise antiderivative of the matched log-derivative series
    (each piece is polynomial, so the integral is exact).  Outside the trust
    region |x| > x_max the truncated exponent is unreliable; a warning is
    emitted and the values are still returned.
    """
    q = np.asarray(q_grid, dtype=float)
    if np.any(q <= 0.0):
        from .errors import NonPositiveRadius

        raise NonPositiveRadius("wavefunction grid must be strictly positive")
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
    # f_polys[0] already carries the monic x**k head of the prefactor
    for w, f in zip(h.w_polys, h.f_polys):
        u_int = Polynomial(w, cap=len(w)).antiderivative()
        exponent += scale * u_int(x)
        prefactor += scale * np.polynomial.polynomial.polyval(x, f)
        scale *= rt
    return prefactor * np.exp(exponent)
