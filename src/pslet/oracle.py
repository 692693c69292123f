"""Independent finite-difference eigensolver for cross-checking.

Discretizes  -u'' + [(m^2 - 1/4)/q^2 + W(q)] u = eps u  on a uniform
staggered grid q_i = (i - 1/2) h.  Working on the regular component
f = u / sqrt(q) in flux form and symmetrizing with sqrt(q) weights gives a
symmetric tridiagonal matrix whose inner boundary needs no condition at all
(the flux through q = 0 vanishes), which restores clean O(h^2) convergence
even for m = 0 where the raw centrifugal term is attractive.  Eigenvalues
come from bisection with Sturm counting (LAPACK's selected-index driver),
are verified against our own Sturm counts, and are Richardson-extrapolated
from two grids, h and h/2, for an O(h^4) estimate.

This solver shares nothing with the shifted-expansion pipeline.  Measured
in engine units, it errs by 3e-11 to 1.8e-10 at Taut's exact points
(|m| = 0..3), and quadrupling its grid moves it by at most 5e-8 on the 23
hardest states checked (Gamma up to 5, k = 3, |m| = 4; the ion 4s state at
Gamma 0.05-0.2).  Its gates (RICHARDSON_TOL, the callers' 1e-3 checks) are
far looser than that precision.

It is a plain radial solver and knows nothing of the dot's systems: its
full-scale problem is twice the engine's, W = 2V with eigenvalue 2 eps.
quantum_dot.radial_potential maps a system and Gamma to V, and
quantum_dot.oracle_delta doubles it and maps the eigenvalue back to Ry*.

It is the only user of scipy in pslet: scipy.linalg is imported by the
first solve, not with the module, so that a run without the oracle never
loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainTooSmall, NotConverged, check_integers
from .potentials import HybridPotential

TAIL_LIMIT = 1e-6          # max relative eigenvector amplitude at q = L
RICHARDSON_TOL = 1e-4      # relative agreement demanded between grids
MIN_POINTS = 2000


@dataclass(frozen=True)
class RadialProblem:
    """Full-scale radial problem on (0, L] with n_points staggered points."""

    m: int
    W: HybridPotential
    L: float
    n_points: int

    def __post_init__(self):
        check_integers(m=self.m)
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValueError(f"domain length must be finite and positive, got {self.L}")
        if self.n_points < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} grid points")

    @classmethod
    def auto_sized(cls, m: int, W: HybridPotential, k: int) -> "RadialProblem":
        """Domain from the oscillator tail of W; holds ~8 turning radii."""
        omega_eff = 2.0 * math.sqrt(W.a_osc or W.derivative(1e3, 2) / 2.0)
        L = 8.0 * math.sqrt((2 * k + abs(m) + 3) / omega_eff)
        n = max(MIN_POINTS, int(24.0 * L))
        return cls(m=m, W=W, L=L, n_points=n)

    def grid(self, n: int) -> tuple[np.ndarray, float]:
        h = self.L / (n + 0.5)
        return (np.arange(1, n + 1) - 0.5) * h, h

    def tridiagonal(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric tridiagonal (diag, offdiag) acting on u(q_i) values."""
        q, h = self.grid(n)
        q_half = np.arange(0, n + 1) * h  # cell edges q_{i -/+ 1/2}; q_{1/2} = 0
        w_vals = np.array([self.W.value(qi) for qi in q])
        diag = (q_half[:-1] + q_half[1:]) / (q * h * h) + (self.m * self.m) / (q * q) + w_vals
        off = -q_half[1:-1] / (h * h * np.sqrt(q[:-1] * q[1:]))
        return diag, off


def sturm_count(diag: np.ndarray, off: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues strictly below sigma (LDL^T inertia count)."""
    count = 0
    d = diag[0] - sigma
    if d < 0.0:
        count += 1
    for i in range(1, len(diag)):
        if d == 0.0:
            d = 1e-300
        d = (diag[i] - sigma) - off[i - 1] * off[i - 1] / d
        if d < 0.0:
            count += 1
    return count


def _kth_eigenpair(diag, off, k, want_vector):
    # imported on first use, not with the module (see the module docstring)
    from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

    if want_vector:
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(k, k))
        return float(w[0]), v[:, 0]
    w = eigvalsh_tridiagonal(diag, off, select="i", select_range=(k, k))
    return float(w[0]), None


def solve_radial_fd(problem: RadialProblem, k: int, return_vector: bool = False):
    """(k+1)-th eigenvalue of the radial problem, Richardson extrapolated.

    Returns the extrapolated eigenvalue, or (eigenvalue, q_grid, u_values)
    from the fine grid when return_vector is set.

    Raises DomainTooSmall when the fine-grid eigenvector still has relative
    amplitude above 1e-6 at the outer boundary, and NotConverged when the
    two grids disagree beyond 1e-4 relative after extrapolation.
    """
    check_integers(k=k)
    if k < 0:
        raise ValueError("state index k must be non-negative")
    n = problem.n_points
    d1, o1 = problem.tridiagonal(n)
    e_coarse, _ = _kth_eigenpair(d1, o1, k, False)
    d2, o2 = problem.tridiagonal(2 * n)
    e_fine, vec = _kth_eigenpair(d2, o2, k, True)

    # independent verification of the returned index via our own Sturm counts
    width = 1e-8 * max(1.0, abs(e_fine))
    below, above = sturm_count(d2, o2, e_fine - width), sturm_count(d2, o2, e_fine + width)
    if not (below <= k < above):
        raise NotConverged(
            f"Sturm counts ({below}, {above}) around eigenvalue {e_fine:.6g} "
            f"do not bracket index {k}"
        )

    tail = abs(vec[-1]) / np.max(np.abs(vec))
    if tail > TAIL_LIMIT:
        raise DomainTooSmall(
            f"eigenvector amplitude {tail:.2e} at q = {problem.L:.3g} exceeds {TAIL_LIMIT:.0e}"
        )
    extrapolated = (4.0 * e_fine - e_coarse) / 3.0
    if abs(extrapolated - e_fine) > RICHARDSON_TOL * max(abs(extrapolated), 1e-12):
        raise NotConverged(
            f"grid halving moved the eigenvalue by {abs(extrapolated - e_fine):.2e} "
            f"(relative tolerance {RICHARDSON_TOL:.0e})"
        )
    if return_vector:
        q, _ = problem.grid(2 * n)
        return extrapolated, q, vec
    return extrapolated

