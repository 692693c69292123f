"""Compile the correction series F_n(k, omega) into an exact Chebyshev table.

Scaled to q0 = 1, the correction hierarchy depends only on the node count
k and the oscillator frequency omega: at a converged origin B_1 = 0,
B_2 = omega^2/2, B_n = (-1)^n ((n + 1)/2 + (omega^2 - 4)/3) for n >= 3, and
the shift is beta = -(1/2 + (k + 1/2) omega).  So q0^2 E^(n) = F_n(k, omega)
for every potential of the engine's family.  The hierarchy divides only by
omega and by integers, and F_n = omega^e_n P_n(z) exactly, with P_n a
polynomial of degree <= DEGREE with rational coefficients in
z = 1 - 4/omega^2 (z in [0, 1) for omega >= 2).

This tool runs engine._hierarchy_core in exact rational arithmetic at
DEGREE + 2 integer omega, interpolates F_n / omega^e_n exactly in z through
DEGREE + 1 of them, and exits 1 unless the interpolant also gives the last
one exactly.  It converts each P_n exactly to Chebyshev coefficients in
x = 2z - 1 and writes them, rounded to double-double (hi, lo) pairs, to
src/pslet/data/series.npz for n = 0..DEFAULT_ORDER and k = 0..K_TAB, with
e_n, the order and K_TAB: the engine's only source of dd corrections
(engine._table_corrections).  In the Chebyshev basis the sum is well
conditioned for every omega > 2; a monomial sum in omega loses 20 digits
near omega = 2.

    PYTHONPATH=src python tools/series_table.py            # rebuild the table
    PYTHONPATH=src python tools/series_table.py --check 0  # rebuild k = 0, compare

--check K rebuilds the slice of one k and exits 1 unless it equals the
shipped slice bit for bit.  One k takes 4-11 s on one core.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from pslet import engine

# deg P_n = (5n + 6) // 2 and e_n of F_n = omega^e_n P_n(z), as exact runs
# found them; build_k checks both
DEGREE = (5 * engine.DEFAULT_ORDER + 6) // 2
EXPONENTS = [2 - n % 2 for n in range(engine.DEFAULT_ORDER + 1)]

OUT = Path(__file__).resolve().parents[1] / "src" / "pslet" / "data" / "series.npz"

_ZERO = Fraction(0)


def _over_common_denominator(p: list) -> tuple[int, list]:
    """(d, [x * d for x in p]) with d the least common denominator of p."""
    d = math.lcm(*(x.denominator for x in p))
    return d, [x.numerator * (d // x.denominator) for x in p]


class _RationalBackend:
    """_hierarchy_core's scalar backend in fractions.Fraction, for offline use.

    Polynomials are lists of Fractions, and every kernel is the plain loop
    the engine's batched kernels stand for.  The operand form the two
    product sums read is (d, integers c) with the polynomial equal to c / d,
    d its least common denominator, made once per solved polynomial and
    kept in a dict of tables ("F", "Fp", "T", "W") indexed by half-order,
    None where none is kept.  The sums form their products and add them in
    integers over one denominator, which is exact in any order, and make
    one Fraction, and so one gcd, per output coefficient.  Fractions term
    by term would normalise every partial sum with a gcd.  The arithmetic
    is exact, so every residual closes to zero.
    """

    residual_tol = 0.0

    scalar = staticmethod(Fraction)

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
        return [(x + y if sign == 1.0 else x - y) if y else x for x, y in zip(a, b)]

    @staticmethod
    def poly_mul(a: list, b: list, cap: int) -> list:
        d, out = _integer_product(_over_common_denominator(a), _over_common_denominator(b))
        return [Fraction(c, d) for c in out[: cap + 1]]

    @staticmethod
    def operands(k: int, J: int) -> dict:
        return {name: [None] * (J + 1) for name in ("F", "Fp", "T", "W")}

    @staticmethod
    def operand(ops: dict, name: str, j: int, a: list) -> None:
        ops[name][j] = _over_common_denominator(a)

    @staticmethod
    def mirrored_sum(ops: dict, j: int) -> list:
        """The sum of W_i W_{j-i} over i = 1..j-1, each product formed once for i <= j/2."""
        W = ops["W"]
        rows = [_integer_product(W[j - i], W[i]) for i in range(1, j // 2 + 1)]
        return _fraction_sum([(1, p) for p in rows + rows[: (j - 1) // 2][::-1]])

    @staticmethod
    def f_term_sum(ops: dict, t_known: list, j: int) -> list:
        """F_0 T_known plus F_i T_{j-i} - F_i' W_{j-i} over i = 1..j-1, None entries left out."""
        F, Fp, T, W = ops["F"], ops["Fp"], ops["T"], ops["W"]
        prods = [(1, _integer_product(F[0], _over_common_denominator(t_known)))]
        for i in range(1, j):
            if F[i] is not None:
                prods.append((1, _integer_product(F[i], T[j - i])))
            if Fp[i] is not None:
                prods.append((-1, _integer_product(Fp[i], W[j - i])))
        return _fraction_sum(prods)

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
                shifted[t - 1] = Fraction(-t, 2)
            x_t = cls.poly_zeros(t) + [Fraction(1)]
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


def _integer_product(a: tuple, b: tuple) -> tuple[int, list]:
    """(d, integers c) with c / d the product of two polynomials in operand form."""
    (da, a), (db, b) = a, b
    out = [0] * (len(a) + len(b) - 1)
    b_live = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_live:
                out[i + j] += x * y
    return da * db, out


def _fraction_sum(prods: list) -> list:
    """The sum of sign * c / d over the (sign, (d, c)) of prods, as Fractions; c zero-padded."""
    d = math.lcm(*(dt for _, (dt, c) in prods))
    acc = [0] * max((len(c) for _, (dt, c) in prods), default=1)
    for sign, (dt, p) in prods:
        scale = sign * (d // dt)
        for i, c in enumerate(p):
            if c:
                acc[i] += scale * c
    return [Fraction(c, d) for c in acc]


def exact_series(k: int, omega: Fraction) -> list:
    """F_0..F_DEFAULT_ORDER at a rational omega, from the hierarchy with q0 = 1, as Fractions."""
    J = 2 * engine.DEFAULT_ORDER + 2
    cq = (omega * omega - 4) / 3
    b = [_ZERO, _ZERO, omega * omega / 2]
    b += [(-1) ** n * (Fraction(n + 1, 2) + cq) for n in range(3, J + 5)]
    beta = -(Fraction(1, 2) + (k + Fraction(1, 2)) * omega)
    be = _RationalBackend()
    corr, _, _ = engine._hierarchy_core(
        engine._v_polys(b, beta, J, be), k, engine.DEFAULT_ORDER, omega, Fraction(1), be
    )
    return corr


def _chebyshev(zs: list, values: list) -> list:
    """Exact c_j with sum_j c_j T_j(2z - 1) through (zs, values), from the Newton form.

    The Newton form is turned into Chebyshev coefficients by Horner's rule,
    with z = (1 + x)/2 and x T_j = (T_(j-1) + T_(j+1))/2 (x T_0 = T_1).
    """
    a = list(values)
    for j in range(1, len(a)):
        for i in range(len(a) - 1, j - 1, -1):
            a[i] = (a[i] - a[i - 1]) / (zs[i] - zs[i - j])
    c = [a[-1]]
    for i in range(len(a) - 2, -1, -1):
        xc = [_ZERO] * (len(c) + 1)
        xc[1] = c[0]
        for j, cj in enumerate(c[1:], 1):
            xc[j - 1] += cj / 2
            xc[j + 1] += cj / 2
        c = [(x + y) / 2 - zs[i] * y for x, y in zip(xc, c + [_ZERO])]
        c[0] += a[i]
    return c


def build_k(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of the Chebyshev coefficients of P_n, shape (DEFAULT_ORDER + 1, DEGREE + 1).

    P_n(z) = sum_j c_nj T_j(x) with x = 2z - 1, so coefficient 0 is already
    halved.  Raises ValueError unless every F_n / omega^e_n is a polynomial
    of degree <= DEGREE in z: the interpolant through all DEGREE + 2 sample
    frequencies must have no term of degree DEGREE + 1, that is, the one
    through the first DEGREE + 1 must also give the last exactly.
    """
    omegas = [Fraction(w) for w in range(3, DEGREE + 5)]
    zs = [1 - 4 / (w * w) for w in omegas]
    runs = [exact_series(k, w) for w in omegas]
    hi = np.zeros((engine.DEFAULT_ORDER + 1, DEGREE + 1))
    lo = np.zeros_like(hi)
    for n, e in enumerate(EXPONENTS):
        c = _chebyshev(zs, [f[n] / w**e for f, w in zip(runs, omegas)])
        if c.pop():
            raise ValueError(f"k = {k}: F_{n} / omega^{e} is not a polynomial of degree "
                             f"<= {DEGREE} in z")
        for j, cj in enumerate(c):
            hi[n, j] = float(cj)
            lo[n, j] = float(cj - Fraction(hi[n, j]))
    return hi, lo


def build() -> dict:
    slices = [build_k(k) for k in range(engine.K_TAB + 1)]
    return {
        "hi": np.stack([h for h, _ in slices]),
        "lo": np.stack([l for _, l in slices]),
        "e": np.array(EXPONENTS),
        "order": np.array(engine.DEFAULT_ORDER),
        "k_tab": np.array(engine.K_TAB),
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
