"""Compile the correction series F_n(k, omega) into a Chebyshev table.

Scaled to q0 = 1, the correction hierarchy depends only on the node count
k and the oscillator frequency omega: at a converged origin B_1 = 0,
B_2 = omega^2/2, B_n = (-1)^n ((n + 1)/2 + (omega^2 - 4)/3) for n >= 3, and
the shift is beta = -(1/2 + (k + 1/2) omega).  So q0^2 E^(n) = F_n(k, omega)
for every potential of the engine's family.  This tool runs the engine's
hierarchy (engine._hierarchy_core) in 45-digit decimal arithmetic on those
inputs at the Chebyshev points of the first kind of u = 2/omega on [1/4, 1]
(omega in [2, 8]), turns u^2 F_n at the nodes into Chebyshev coefficients
with 40-digit mpmath arithmetic, and writes them as double-double (hi, lo)
pairs to src/pslet/data/series.npz, for n = 0..DEFAULT_ORDER and
k = 0..K_TAB, with the order, K_TAB, the omega domain and the node count.
The engine reads the table when a state escalates to double-double
(engine._table_corrections); it is the engine's only source of dd
corrections.  Running the nodes in dd instead would carry dd rounding into
the table: a dd run of the hierarchy reached 1e-19 of max|F_n| at k = 0,
and the interpolant spreads it, enough to move the last bit of E^(19) of
the ion 1s state at Gamma = 0.2.

    PYTHONPATH=src python tools/series_table.py            # rebuild the table
    PYTHONPATH=src python tools/series_table.py --check 0  # rebuild k = 0, compare

--check K rebuilds the slice of one k and exits 1 unless it equals the
shipped slice bit for bit.  A full rebuild takes about 30 s on one core;
one k takes 3-7 s.
"""

from __future__ import annotations

import argparse
import decimal
import sys
from decimal import Decimal
from pathlib import Path

import mpmath
import numpy as np

from pslet import engine

# Chebyshev nodes per k; the order-19 coefficients fall below 1e-30 of
# their largest by degree 60 for k >= 1, and to 7e-31 by degree 71 at k = 0.
NODES = 72

# mpmath working precision of the transform, in decimal digits
DIGITS = 40

# decimal digits of the hierarchy run at each node
PRECISION = 45

OUT = Path(__file__).resolve().parents[1] / "src" / "pslet" / "data" / "series.npz"


class _DecimalBackend:
    """_hierarchy_core's scalar backend in decimal.Decimal, for offline use.

    Polynomials are lists of Decimals, and every kernel is the plain loop
    the engine's batched kernels stand for.  At PRECISION digits it gives
    F_n to about 1e-34 relative, where a dd run of the hierarchy reached
    1e-19 of max|F_n| at k = 0 (its sums cancel there).  decimal
    rounds every operation correctly, so the table rebuilds bit for bit.
    """

    residual_tol = 1e-30

    scalar = staticmethod(Decimal)

    @staticmethod
    def to_float(z) -> float:
        return float(z)

    @staticmethod
    def poly_zeros(n: int) -> list:
        return [_ZERO] * n

    @staticmethod
    def poly_add(a: list, b: list, sign=1.0) -> list:
        n = max(len(a), len(b))
        a, b = a + [_ZERO] * (n - len(a)), b + [_ZERO] * (n - len(b))
        return [x + y if sign == 1.0 else x - y for x, y in zip(a, b)]

    @staticmethod
    def poly_mul(a: list, b: list, cap: int) -> list:
        out = [_ZERO] * min(cap + 1, len(a) + len(b) - 1)
        b_live = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a[: len(out)]):
            if x:
                for j, y in b_live:
                    if i + j >= len(out):
                        break
                    out[i + j] += x * y
        return out

    @classmethod
    def product_sum(cls, terms: list, cap: int, index) -> list:
        prods = [cls.poly_mul(a, b, cap) for a, b, _ in terms]
        acc = [_ZERO]
        for t in index:
            acc = cls.poly_add(acc, prods[t], terms[t][2])
        return acc

    @staticmethod
    def poly_scale(a: list, z) -> list:
        return [x * z for x in a]

    @staticmethod
    def poly_diff(a: list) -> list:
        return [x * i for i, x in enumerate(a) if i] or [_ZERO]

    @staticmethod
    def get(a: list, j: int):
        return a[j] if j < len(a) else _ZERO

    @staticmethod
    def set_(a: list, j: int, z) -> None:
        a[j] = z

    @staticmethod
    def max_abs(a: list) -> float:
        return float(max(abs(x) for x in a)) if a else 0.0

    @staticmethod
    def sparse(a: list) -> list:
        return [(i, x) for i, x in enumerate(a) if x]

    @classmethod
    def influences(cls, f0: list, f0p: list, omega, n: int) -> list:
        out = []
        for t in range(n):
            shifted = cls.poly_zeros(t + 2)
            shifted[t + 1] = omega
            if t >= 1:
                shifted[t - 1] = Decimal(-t) / 2
            x_t = cls.poly_zeros(t) + [Decimal(1)]
            c = cls.poly_add(cls.poly_mul(f0, shifted, len(f0) + t + 1),
                             cls.poly_mul(f0p, x_t, len(f0) + t + 1), -1.0)
            out.append((cls.sparse(c), cls.max_abs(c)))
        return out

    @staticmethod
    def work(a: list) -> list:
        return list(a)

    @staticmethod
    def axpy(r: list, infl: list, z, sign=1.0) -> list:
        for i, v in infl:
            r[i] = r[i] + v * z if sign == 1.0 else r[i] - v * z
        return r

    @classmethod
    def eliminate(cls, r: list, w: list, powers, influence: list, k: int, omega, scale: float):
        for t in powers:
            infl, infl_max = influence[t]
            z = -r[k + t + 1] / omega
            scale = max(scale, abs(float(z)) * infl_max)
            cls.axpy(r, infl, z)
            w[t] = z
        return scale

    @staticmethod
    def unwork(r: list) -> list:
        return r


_ZERO = Decimal(0)


def _decimal(x) -> Decimal:
    return Decimal(mpmath.nstr(x, DIGITS + 20, strip_zeros=False))


def _u_nodes() -> list:
    """u at the Chebyshev points of the first kind, x_j = cos(pi (j + 1/2) / NODES)."""
    w_lo, w_hi = engine.TABLE_OMEGA
    u_lo, u_hi = mpmath.mpf(2) / w_hi, mpmath.mpf(2) / w_lo
    half, mid = (u_hi - u_lo) / 2, (u_hi + u_lo) / 2
    return [mid + half * mpmath.cos(mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES)
            for j in range(NODES)]


def node_series(k: int, u) -> list:
    """F_0..F_DEFAULT_ORDER at omega = 2/u, from the hierarchy with q0 = 1, as mpmath numbers."""
    J = 2 * engine.DEFAULT_ORDER + 2
    with mpmath.workdps(DIGITS + 20):
        omega = 2 / u
        cq = (omega * omega - 4) / 3
        b = [0, 0, omega * omega / 2]
        b += [(-1) ** n * (mpmath.mpf(n + 1) / 2 + cq) for n in range(3, J + 5)]
        beta = -(mpmath.mpf(1) / 2 + (k + mpmath.mpf(1) / 2) * omega)
        b, beta, omega = [_decimal(x) for x in b], _decimal(beta), _decimal(omega)
    with decimal.localcontext() as ctx:
        ctx.prec = PRECISION
        be = _DecimalBackend()
        corr, _, _ = engine._hierarchy_core(
            engine._v_polys(b, beta, J, be), k, engine.DEFAULT_ORDER, omega, Decimal(1), be
        )
    return [mpmath.mpf(str(c)) for c in corr]


def build_k(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of the Chebyshev coefficients of u^2 F_n, shape (DEFAULT_ORDER + 1, NODES).

    Coefficient 0 is already halved, so u^2 F_n = sum_j c_nj T_j(x) with
    x = (2u - u_lo - u_hi) / (u_hi - u_lo).
    """
    with mpmath.workdps(DIGITS):
        nodes = _u_nodes()
        values = [[u * u * f for f in node_series(k, u)] for u in nodes]
        theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
        cos = [[mpmath.cos(m * t) for t in theta] for m in range(NODES)]
        hi = np.zeros((engine.DEFAULT_ORDER + 1, NODES))
        lo = np.zeros_like(hi)
        for n in range(engine.DEFAULT_ORDER + 1):
            for m in range(NODES):
                c = mpmath.fsum(values[j][n] * cos[m][j] for j in range(NODES)) * 2 / NODES
                if m == 0:
                    c /= 2
                hi[n, m] = float(c)
                lo[n, m] = float(c - mpmath.mpf(hi[n, m]))
    return hi, lo


def build() -> dict:
    slices = [build_k(k) for k in range(engine.K_TAB + 1)]
    return {
        "hi": np.stack([h for h, _ in slices]),
        "lo": np.stack([l for _, l in slices]),
        "order": np.array(engine.DEFAULT_ORDER),
        "k_tab": np.array(engine.K_TAB),
        "domain": np.array(engine.TABLE_OMEGA),
        "nodes": np.array(NODES),
    }


def check(k: int) -> int:
    """Rebuild one k; 0 when it equals the shipped slice bit for bit, else 1."""
    hi, lo = build_k(k)
    with np.load(OUT, allow_pickle=False) as table:
        same = (np.array_equal(hi.view(np.int64), table["hi"][k].view(np.int64))
                and np.array_equal(lo.view(np.int64), table["lo"][k].view(np.int64)))
    print(f"k = {k}: {'identical to' if same else 'differs from'} {OUT.name}")
    return 0 if same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", type=int, metavar="K",
                        help="rebuild node count K alone and compare it with the shipped table")
    args = parser.parse_args(argv)
    if args.check is not None:
        if not 0 <= args.check <= engine.K_TAB:
            parser.error(f"K must be in 0..{engine.K_TAB}")
        return check(args.check)
    np.savez(OUT, **build())
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
