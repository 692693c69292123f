"""The hierarchy's batched kernels against the sequential sums they stand for.

Each kernel of engine._F64Backend that engine._hierarchy_core calls
(mirrored_sum, f_term_sum, eliminate, influences) replaces a loop of
poly_add / poly_mul / get / axpy / set_ calls and must give its bits, the
sign of every zero included.  The references below are those loops, with
the double-precision poly_add in its zero-buffer form.  Inputs are random,
shaped as the hierarchy shapes them, with exact zeros and negative zeros.
The hierarchy forms the sum of its pair products W_i W_{j-i} with
mirrored_sum and its residual R with f_term_sum, both reading the operands
operand() keeps in a solve's store (operands()); f_term_sum follows a plan
made once per (k, J), which takes a term whose F-side operand has one
nonzero coefficient as a scaled shift.  Each sum is checked against the
loop it replaces, the rational backend's too, the plan against the terms
of the loop, and the whole hierarchy against the plain loop and against
the all-correlation kernels it ran before the plan.

The kernels keep the term order of every sum and rest on two facts,
checked here directly: adding an exact zero to a value that holds no
negative zero returns it unchanged (a dd pair too); np.convolve starts its
sums from +0.0, so it never returns a negative zero.  The double kernels
also rest on their numpy spelling, checked here too: np.add.accumulate down
a stack is the row-by-row sum; np.correlate(longer, shorter reversed) is
np.convolve whichever operand comes first, F_i first on a tie; poly_add
without its multiply by 1.0 keeps every -0.0 an operand held; max_abs
passes a NaN or inf on to the residual check.  The double backend and
tools/series_table.py's rational backend offer the same methods, and only
those the hierarchy calls.

The other shortcuts of a solve are pinned the same way to the code they
replace: the hierarchy without its identically-zero F_i' W_{j-i} rows, the
double Pade fit and evaluation against their numpy spelling, and the
top-down Pade ladder against the ladder that fitted every member up front.
"""

import ast
import inspect
import math
import sys
import textwrap
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pslet import engine
from pslet._dd import dd_add, two_sum
from pslet.engine import _F64Backend, _hierarchy_core
from pslet.errors import PoleProximity, PsletError, SingularPadeSystem
from pslet.quantum_dot import radial_potential
from pslet.series import (
    CONDITION_LIMIT,
    POLE_TOLERANCE,
    PadeApproximant,
    _growth_rate,
    _horner,
    pade_eval,
    pade_fit,
    staircase_orders,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from series_table import _RationalBackend  # noqa: E402

_RNG = np.random.default_rng(7)


def _bits(x) -> list[str]:
    return [float(v).hex() for v in np.asarray(x, dtype=float).ravel()]


def _sprinkle(v: np.ndarray) -> np.ndarray:
    """v with about a quarter of its entries set to +0.0 or -0.0."""
    v = v.copy()
    v[_RNG.random(len(v)) < 0.15] = 0.0
    v[_RNG.random(len(v)) < 0.1] = -0.0
    return v


def _random_f64(n: int) -> np.ndarray:
    return _sprinkle(_RNG.normal(size=n) * 10.0 ** _RNG.integers(-8, 8, size=n))


def _zero_buffer_add(a, b, sign=1.0):
    """The sequential double-precision sum step the kernels reproduce."""
    out = np.zeros(max(len(a), len(b)))
    out[: len(a)] += a
    out[: len(b)] += sign * b
    return out


# a cap no product reaches, as in the hierarchy (see _hierarchy_core)
_NO_CAP = 10**6


def _plain_add(be):
    """The plain loop's sum step: the zero-buffer sum in double precision."""
    return _zero_buffer_add if be is _F64Backend else be.poly_add


def _plain_mirrored_sum(be, W, j):
    """The plain loop mirrored_sum stands for: W_i W_{j-i} for i = 1..j-1, from a +0.0 start."""
    add = _plain_add(be)
    acc = be.poly_zeros(1)
    for i in range(1, j):
        acc = add(acc, be.poly_mul(W[i], W[j - i], _NO_CAP))
    return acc


def _plain_f_term_sum(be, f0, t_known, F, T, Fp, W, j, cap=_NO_CAP):
    """The plain loop f_term_sum stands for; a None F[i] or Fp[i] leaves its product out."""
    add = _plain_add(be)
    R = be.poly_mul(f0, t_known, cap)
    for i in range(1, j):
        if F[i] is not None:
            R = add(R, be.poly_mul(F[i], T[j - i], cap))
        if Fp[i] is not None:
            R = add(R, be.poly_mul(Fp[i], W[j - i], cap), -1.0)
    return R


def _store(be, k: int, J: int, tables: dict):
    """be's operand store for one solve of (k, J), with every polynomial of tables kept."""
    ops = be.operands(k, J)
    for name, polys in tables.items():
        for i, a in enumerate(polys):
            if a is not None:
                be.operand(ops, name, i, a)
    return ops


# the hierarchy's last half-order at order 19
_J = 40


def _f_terms(be, k, f0, t_known, F, T, Fp, W, j):
    """f_term_sum at half-order j, with F_0 and the F, T, F' and W lists kept first."""
    ops = _store(be, k, max(_J, j), {"F": [f0] + list(F[1:]), "Fp": Fp, "T": T, "W": W})
    return be.f_term_sum(ops, t_known, j)


def _hierarchy_f(k: int, j: int, values) -> tuple[list, list]:
    """(F, F') for i < j as the hierarchy shapes them, values(n) giving each F_i's unknowns.

    F_i has max(k, 1) coefficients, its unknowns at engine._unknown_powers
    and +0.0 elsewhere, and is None without unknowns; F_i' is poly_diff(F_i),
    None where F_i has no unknown above power 0.
    """
    F, Fp = [None] * j, [None] * j
    for i in range(1, j):
        powers = list(engine._unknown_powers(k, i))
        if powers:
            F[i] = np.zeros(max(k, 1))
            F[i][powers] = values(len(powers))
            if max(powers) > 0:
                Fp[i] = _F64Backend.poly_diff(F[i])
    return F, Fp


def _hierarchy_terms(k: int, j: int):
    """(f0, t_known, F, T, Fp, W) for f_term_sum at half-order j, hierarchy-shaped.

    T_m has 2m + 3 coefficients and W_m 2m + 2, F_0 k + 1 (F_0 = [1.0] at
    k = 0) and T_known 2j + 3 (4 at j = 1), all with exact +-0 sprinkled in,
    F_i's unknowns too; one F_i with a single unknown has it exactly +0.0.
    """
    F, Fp = _hierarchy_f(k, j, _random_f64)
    single = [i for i in range(1, j) if len(engine._unknown_powers(k, i)) == 1]
    if single:
        i = single[int(_RNG.integers(len(single)))]
        F[i][list(engine._unknown_powers(k, i))] = 0.0
        Fp[i] = _F64Backend.poly_diff(F[i]) if Fp[i] is not None else None
    T = [None] + [_random_f64(2 * m + 3) for m in range(1, j)]
    W = [None] + [_random_f64(2 * m + 2) for m in range(1, j)]
    f0 = np.ones(1) if k == 0 else _random_f64(k + 1)
    return f0, _random_f64(2 * j + 3 if j > 1 else 4), F, T, Fp, W


# ----------------------------------------------------------------------
# the two facts
# ----------------------------------------------------------------------

def test_exact_zero_leaves_a_normalized_pair_unchanged():
    hi, lo = two_sum(_RNG.normal(size=500) * 10.0 ** _RNG.integers(-8, 8, size=500),
                     _RNG.normal(size=500) * 1e-25)
    hi = np.where(_RNG.random(500) < 0.2, 0.0, hi)  # +0 pairs too, never -0
    lo = np.where(hi == 0.0, 0.0, lo)
    for zh, zl in [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)]:
        z = np.full(500, zh), np.full(500, zl)
        assert _bits(np.concatenate(dd_add(hi, lo, *z))) == _bits(np.concatenate((hi, lo)))
        assert _bits(np.concatenate(dd_add(*z, hi, lo))) == _bits(np.concatenate((hi, lo)))
    x = _RNG.normal(size=500)
    assert _bits(x + -0.0) == _bits(x) and _bits(np.zeros(500) + x) == _bits(x)


def test_convolve_never_returns_negative_zero():
    for _ in range(200):
        a = _random_f64(int(_RNG.integers(1, 6)))
        b = _random_f64(int(_RNG.integers(1, 50)))
        b[_RNG.random(len(b)) < 0.5] = -0.0
        assert not np.any(np.signbit(np.convolve(a, b)) & (np.convolve(a, b) == 0.0))


# ----------------------------------------------------------------------
# double precision
# ----------------------------------------------------------------------

@pytest.mark.parametrize("max_len", [1, 30])
def test_f64_ordered_sum_is_the_sequential_sum(max_len):
    # f_term_sum adds its stack with np.add.accumulate down axis 0, which is
    # the row-by-row sum by definition; here on one-column stacks, where a
    # reduction (np.add.reduce(axis=0)) pairs rows up and differs, and on
    # stacks of up to 30 columns, one-row stacks among them
    paired_differs = 0
    for _ in range(200):
        n = int(_RNG.integers(1, 40))
        stack = _random_f64(n * int(_RNG.integers(1, max_len + 1))).reshape(n, -1)
        ref = stack[0].copy()
        for row in stack[1:]:
            ref = ref + row
        assert _bits(np.add.accumulate(stack, axis=0)[-1]) == _bits(ref)
        paired_differs += _bits(np.add.reduce(stack, axis=0)) != _bits(ref)
    assert paired_differs > 0 if max_len == 1 else True


def test_f64_f_term_sum_is_the_sequential_sum():
    # R = poly_mul(F_0, T_known), then each F_i T_{j-i} added and each
    # F_i' W_{j-i} taken away, in the order i = 1..j-1, on the hierarchy's
    # shapes for k 0-6 up to half-order J: every term a scaled shift at
    # k <= 2, both kinds at k = 3 and 4, none from k = 5, where F_i ties
    # with T_1 and F_i' with W_1; k = 3 ties F_0 with T_known at j = 1
    for k in range(7):
        for j in [1, 2, 3, _J] + [int(x) for x in _RNG.integers(4, _J, size=6)]:
            f0, t_known, F, T, Fp, W = _hierarchy_terms(k, j)
            if k == 0:  # R is T_known + 0.0, its -0.0 turned to +0.0
                t_known[[0, -1]] = -0.0
            got = _f_terms(_F64Backend, k, f0, t_known, F, T, Fp, W, j)
            assert _bits(got) == _bits(_plain_f_term_sum(_F64Backend, f0, t_known, F, T, Fp, W, j))
            assert not np.any(np.signbit(got) & (got == 0.0))
            if k == 0:
                assert _bits(got) == _bits(t_known + 0.0)


@pytest.mark.parametrize("k", range(9))
def test_plan_takes_a_scaled_shift_only_for_one_nonzero_coefficient(k):
    # the plan's terms are the plain loop's, in its order; a term is a
    # scaled shift exactly where its F-side operand, the shorter or equal
    # one, has one nonzero coefficient, and the shift gathers that
    # coefficient (negated for F_i') and the other operand moved up to its
    # power: the signed np.convolve, one product per output, up to the sign
    # of a zero
    def positive(n):
        return _RNG.uniform(1.0, 2.0, n)

    F, Fp = _hierarchy_f(k, _J + 1, positive)
    T = [None] + [positive(2 * m + 3) for m in range(1, _J)]
    W = [None] + [positive(2 * m + 2) for m in range(1, _J)]
    ops = _store(_F64Backend, k, _J, {"F": [positive(k + 1)] + F[1:], "Fp": Fp, "T": T, "W": W})
    (_, _, steps), shifts = engine._f_side_plan(k, _J), 0
    for j in range(2, _J + 1):
        terms = []
        for i in range(1, j):
            terms += [(F[i], T[j - i], 1.0)] if F[i] is not None else []
            terms += [(Fp[i], W[j - i], -1.0)] if Fp[i] is not None else []
        if steps[j] is None:  # k = 0: R is F_0 T_known alone
            assert not terms
            continue
        n, width, shift_rows, starts, coef, correlations = steps[j]
        assert n == len(terms) + 1 and width == k + 2 * j + 3
        rows = np.arange(n)[shift_rows].tolist() if starts is not None else []
        assert sorted(rows + [c[0] for c in correlations]) == list(range(1, n))
        if rows:
            gathered = ops.flat[starts[:, None] + np.arange(width)] * ops.flat[coef]
        for r, (f, t, sign) in enumerate(terms, start=1):
            if r in rows:
                assert np.count_nonzero(f) == 1 and len(f) <= len(t)
                ref = np.zeros(width)
                ref[: len(f) + len(t) - 1] = sign * np.convolve(f, t)
                assert np.array_equal(gathered[rows.index(r)], ref)
            else:
                assert np.count_nonzero(f) > 1
        for r, put, length, *_, f_first in correlations:
            f, t, sign = terms[r - 1]
            assert put is (np.positive if sign == 1.0 else np.negative)
            assert length == len(f) + len(t) - 1 and f_first == (len(f) >= len(t))
        shifts += len(rows)
    assert (shifts > 0) == (1 <= k <= 4)


def test_f64_pair_products():
    # the mirrored sum, and each pair product on its own: np.correlate(W_{j-i},
    # W_i reversed) is np.convolve in either operand order
    W = [_random_f64(2 * i + 2) for i in range(12)]
    ops = _store(_F64Backend, 0, 12, {"W": W})
    for j in range(1, 12):
        ref = _plain_mirrored_sum(_F64Backend, W, j)
        assert _bits(_F64Backend.mirrored_sum(ops, j)) == _bits(ref)
        for i in range(1, j // 2 + 1):
            row = _bits(np.correlate(W[j - i], W[i][::-1], "full"))
            assert row == _bits(np.convolve(W[i], W[j - i])) == _bits(np.convolve(W[j - i], W[i]))


def test_f64_poly_add_without_zero_buffer():
    # equal bits wherever an operand holds no -0.0 the buffer would turn to
    # +0.0; the hierarchy passes such sums only to np.convolve (see above)
    for _ in range(300):
        a = _random_f64(int(_RNG.integers(1, 30)))
        b = _random_f64(int(_RNG.integers(1, 30)))
        sign = float(_RNG.choice([1.0, -1.0]))
        got, ref = _F64Backend.poly_add(a, b, sign), _zero_buffer_add(a, b, sign)
        assert np.array_equal(got, ref)
        a, b = np.abs(a), np.abs(b)
        assert _bits(_F64Backend.poly_add(a, b)) == _bits(_zero_buffer_add(a, b))


@pytest.mark.parametrize("first", ["shorter", "equal"])
def test_product_is_convolve_whichever_operand_comes_first(first):
    # np.convolve correlates the longer operand with the reversed shorter
    # one, the first operand counting as the longer on a tie; f_term_sum
    # must pick the same two, the F side first on a tie, since the other
    # pairing rounds differently.  F_0 T_known (j = 1) of any lengths; and
    # with "equal", the ties of k = 5, F_1 T_1 and F_1' W_1 (j = 2)
    swapped_differs = 0
    for _ in range(200):
        n = int(_RNG.integers(2, 40))
        a = _random_f64(n if first == "equal" else int(_RNG.integers(1, n)))
        b = _random_f64(n)
        ref = np.convolve(a, b)
        assert _bits(_f_terms(_F64Backend, len(a) - 1, a, b, [None], [None], [None], [None], 1)) \
            == _bits(ref)
        longer, shorter = (b, a) if first == "equal" else (a, b)  # the pairing not taken
        swapped_differs += _bits(np.correlate(longer, shorter[::-1], "full")) != _bits(ref)
    assert swapped_differs > 0
    if first == "equal":
        swapped_differs = 0
        for _ in range(200):
            f0, t_known, F, T, Fp, W = _hierarchy_terms(5, 2)
            f0, t_known = np.zeros(6), np.zeros(7)  # a zero F_0 T_known row
            got = _f_terms(_F64Backend, 5, f0, t_known, F, T, Fp, W, 2)
            assert _bits(got) == _bits(_plain_f_term_sum(_F64Backend, f0, t_known, F, T, Fp, W, 2))
            other = np.correlate(T[1], F[1][::-1], "full")
            other[:7] -= np.correlate(W[1], Fp[1][::-1], "full")
            swapped_differs += _bits(other) != _bits(got[:9])
        assert swapped_differs > 0


def _signed_poly_add(a, b, sign=1.0):
    """poly_add as spelled before, with b always multiplied by its sign."""
    if len(a) >= len(b):
        out = a.copy()
        out[: len(b)] += sign * b
    else:
        out = sign * b
        out[: len(a)] += a
    return out


def test_poly_add_keeps_negative_zeros_where_the_signed_spelling_did():
    # with a sign of 1.0 the multiply is left out; 1.0 * -0.0 is -0.0, so
    # every -0.0 of either operand that the old spelling kept stays
    kept = {"a": 0, "b": 0}
    for _ in range(300):
        a = _random_f64(int(_RNG.integers(1, 30)))
        b = _random_f64(int(_RNG.integers(1, 30)))
        for sign in (-1.0, 1.0):
            got = _F64Backend.poly_add(a, b, sign)
            assert _bits(got) == _bits(_signed_poly_add(a, b, sign))
        negative_zero = np.signbit(got) & (got == 0.0)
        for name, v in (("a", a), ("b", b)):
            held = np.zeros(len(got), dtype=bool)
            held[: len(v)] = np.signbit(v) & (v == 0.0)
            kept[name] += int(np.any(negative_zero & held))
    assert kept["a"] > 0 and kept["b"] > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_max_abs_passes_nan_and_inf_to_the_residual_check(bad):
    # _hierarchy_core raises unless resid <= tol * scale and resid is finite
    for n in (1, 2, 7, 40):
        for at in {0, n // 2, n - 1}:
            a = _RNG.normal(size=n)
            a[at] = bad
            resid = _F64Backend.max_abs(a)
            assert math.isnan(resid) if math.isnan(bad) else resid == math.inf
            assert not (resid <= _F64Backend.residual_tol * max(resid, 1.0)
                        and math.isfinite(resid))
    a = _RNG.normal(size=9)
    a[[2, 6]] = math.inf, math.nan
    assert math.isnan(_F64Backend.max_abs(a))


# ----------------------------------------------------------------------
# the two product sums
# ----------------------------------------------------------------------

def _products_case(case: str, k: int):
    """(k, j, f_term_sum inputs, cap) for one edge of the kernel, hierarchy-shaped."""
    if case == "equal_lengths":  # k = 5: F_i ties with T_1, F_i' with W_1
        j = int(_RNG.integers(2, _J + 1))
        return 5, j, _hierarchy_terms(5, j), _NO_CAP
    if case == "longer_first":  # both kinds of term (k = 3, 4), the F side longer (k = 6)
        k, j = [3, 4, 6][k % 3], int(_RNG.integers(2, _J + 1))
        return k, j, _hierarchy_terms(k, j), _NO_CAP
    if case == "row_at_the_cap":  # j = J: F_0 T_known ends at the last index kept
        return k, _J, _hierarchy_terms(k, _J), k + 2 * _J + 2
    if case == "one_term":  # F_0 T_known alone
        return k, 1, _hierarchy_terms(k, 1), _NO_CAP
    if case == "negative_sign_zeros":  # -F_i' W_{j-i} rows hold -0.0 in columns 0-2
        k, j = [2, 3, 4][k % 3], int(_RNG.integers(2, 12))
        f0, t_known, F, T, Fp, W = terms = _hierarchy_terms(k, j)
        f0[0:3], t_known[0:3] = 0.0, 0.0
        for t in T[1:] + W[1:]:
            t[0:3] = 0.0
        return k, j, terms, _NO_CAP
    raise ValueError(case)


@pytest.mark.parametrize("be", [_F64Backend])
@pytest.mark.parametrize(
    "case", ["equal_lengths", "longer_first", "row_at_the_cap", "one_term", "negative_sign_zeros"]
)
def test_products_are_the_signed_poly_mul(be, case):
    for trial in range(15):
        k, j, terms, cap = _products_case(case, trial % 7)
        got = _f_terms(be, k, *terms, j)
        assert _bits(got) == _bits(_plain_f_term_sum(be, *terms, j, cap))
    if case == "negative_sign_zeros":
        # the negated rows hold -0.0 there; the +0.0 of F_0 T_known turns them to +0.0
        f0, t_known, F, T, Fp, W = terms
        rows = [-be.poly_mul(fp, w, cap) for fp, w in zip(Fp[1:], W[j - 1 : 0 : -1])
                if fp is not None]
        assert rows and all(_bits(r)[:3] == ["-0x0.0p+0"] * 3 for r in rows)
        assert _bits(got)[:3] == ["0x0.0p+0"] * 3


@pytest.mark.parametrize("be", [_F64Backend])
def test_pair_products_with_zero_parity_rows(be):
    # W_i as the hierarchy shapes it, with half its parity's coefficients
    # exact +-0 (all of W_1's)
    for _ in range(5):
        W = []
        for i in range(16):
            w = _random_f64(2 * i + 2)
            w[i % 2 :: 2] = 0.0
            zero = np.flatnonzero(_RNG.random(i + 1) < (1.0 if i == 1 else 0.5))
            w[2 * zero + (i + 1) % 2] = np.where(_RNG.random(len(zero)) < 0.5, -0.0, 0.0)
            W.append(w)
        ops = _store(be, 0, 16, {"W": W})
        for j in range(1, 16):
            assert _bits(be.mirrored_sum(ops, j)) == _bits(_plain_mirrored_sum(be, W, j))


@pytest.mark.parametrize("be", [_F64Backend])
def test_no_products(be):
    # half-order 1 has no pairs: the mirrored sum is the zero start; at
    # j = 1, and at every j for k = 0, R is F_0 T_known alone
    assert _bits(be.mirrored_sum(be.operands(0, 1), 1)) == _bits(be.poly_zeros(1))
    for k in range(7):
        for j in ((1, 2, 7) if k == 0 else (1,)):
            f0, t_known, F, T, Fp, W = _hierarchy_terms(k, j)
            got = _f_terms(be, k, f0, t_known, F, T, Fp, W, j)
            assert _bits(got) == _bits(_zero_buffer_add(np.zeros(1), np.convolve(f0, t_known)))


def _random_fractions(n: int) -> list:
    return [Fraction(int(_RNG.integers(-50, 51)), int(_RNG.integers(1, 30)))
            if _RNG.random() < 0.8 else Fraction(0) for _ in range(n)]


def test_rational_kernels_are_the_plain_loop():
    # the rational backend sums in integers over one common denominator;
    # the plain loop of poly_add / poly_mul must give the same Fractions
    be = _RationalBackend
    for _ in range(40):
        j = int(_RNG.integers(1, 9))
        W = [None] + [_random_fractions(2 * i + 2) for i in range(1, j)]
        assert be.mirrored_sum(_store(be, 0, j, {"W": W}), j) == _plain_mirrored_sum(be, W, j)
        lf = int(_RNG.integers(1, 6))
        F = [None] + [None if _RNG.random() < 0.3 else _random_fractions(lf) for _ in range(1, j)]
        Fp = [None] + [None if _RNG.random() < 0.3 else _random_fractions(max(lf - 1, 1))
                       for _ in range(1, j)]
        T = [None] + [_random_fractions(2 * i + 3) for i in range(1, j)]
        f0, t_known = _random_fractions(lf + 1), _random_fractions(2 * j + 3)
        got = _f_terms(be, lf, f0, t_known, F, T, Fp, W, j)
        assert got == _plain_f_term_sum(be, f0, t_known, F, T, Fp, W, j)


def _backend_calls(fn) -> set:
    """The attributes fn reads from its backend, spelled be.name or backend.name."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("be", "backend")
    }


def test_backends_offer_what_the_hierarchy_calls():
    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    callers = (_hierarchy_core, engine._v_polys)
    called = set().union(*(_backend_calls(fn) for fn in callers))
    assert {"operands", "operand", "mirrored_sum", "f_term_sum"} <= called
    assert public(_F64Backend) == public(_RationalBackend)
    assert public(_F64Backend) == called, (
        f"not called: {sorted(public(_F64Backend) - called)}, "
        f"missing: {sorted(called - public(_F64Backend))}"
    )


# ----------------------------------------------------------------------
# influence polynomials
# ----------------------------------------------------------------------

def _prefactor(be, k: int, omega):
    """F_0 and F_0' as _hierarchy_core builds them."""
    f0 = be.poly_zeros(k + 1)
    be.set_(f0, k, be.scalar(1.0))
    for p in range(k - 2, -1, -2):
        val = be.scalar((p + 1) * (p + 2) / 2.0) * be.get(f0, p + 2) / (omega * be.scalar(p - k))
        be.set_(f0, p, val)
    return f0, be.poly_diff(f0)


def _plain_influences(be, f0, f0p, omega, n: int, cap: int) -> list:
    """The product-and-sum loop that built each influence polynomial."""
    out = []
    for t in range(n):
        tmp = be.poly_zeros(t + 2)
        be.set_(tmp, t + 1, omega)
        if t >= 1:
            be.set_(tmp, t - 1, be.scalar(-t / 2.0))
        infl = be.poly_mul(f0, tmp, cap)
        xt = be.poly_zeros(t + 1)
        be.set_(xt, t, be.scalar(1.0))
        infl = be.poly_add(infl, be.poly_mul(f0p, xt, cap), -1.0)
        out.append((be.sparse(infl), be.max_abs(infl)))
    return out


def _influence_bits(infl: list) -> list:
    return [([(e[0], *_bits(e[1:])) for e in sparse], float(m).hex()) for sparse, m in infl]


@pytest.mark.parametrize("be", [_F64Backend])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_influences_are_the_plain_loop(be, k):
    J = 40  # order 19
    for _ in range(20):
        omega = float(_RNG.uniform(1.5, 5.0))
        f0, f0p = _prefactor(be, k, omega)
        got = be.influences(f0, f0p, omega, 2 * J + 2)
        ref = _plain_influences(be, f0, f0p, omega, 2 * J + 2, k + 2 * J + 4)
        assert _influence_bits(got) == _influence_bits(ref)


# ----------------------------------------------------------------------
# eliminate
# ----------------------------------------------------------------------

def _plain_eliminate(be, r, w, powers, influence, k: int, omega, scale: float) -> float:
    """The per-power get / axpy / set_ loop that eliminate stands for."""
    for t in powers:
        infl, infl_max = influence[t]
        z = -be.get(r, k + t + 1) / omega
        scale = max(scale, abs(be.to_float(z)) * infl_max)
        r = be.axpy(r, infl, z)
        be.set_(w, t, z)
    return scale


@pytest.mark.parametrize("be", [_F64Backend])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_eliminate_is_the_per_power_loop(be, k):
    # R as the hierarchy builds it, from sums that start at +0.0, at a
    # random half-order j of both parities; the influences of a real F_0
    J = 40  # order 19
    n = k + 2 * J + 5
    for _ in range(20):
        omega = float(_RNG.uniform(1.5, 5.0))
        f0, f0p = _prefactor(be, k, omega)
        influence = be.influences(f0, f0p, omega, 2 * J + 2)
        j = int(_RNG.integers(1, J + 1))
        powers = range(2 * j + 1, -1, -2) if j % 2 == 0 else range(2 * j, -1, -2)
        R = _zero_buffer_add(be.poly_zeros(n), _random_f64(n))
        scale = float(_RNG.choice([1.0, be.max_abs(R)]))
        got_r, got_w = be.work(R), be.poly_zeros(2 * j + 2)
        got = be.eliminate(got_r, got_w, powers, influence, k, omega, scale)
        ref_r, ref_w = be.work(R), be.poly_zeros(2 * j + 2)
        ref = _plain_eliminate(be, ref_r, ref_w, powers, influence, k, omega, scale)
        assert _bits(be.unwork(got_r)) == _bits(be.unwork(ref_r))
        assert _bits(got_w) == _bits(ref_w)
        assert got.hex() == ref.hex()


# ----------------------------------------------------------------------
# the F' skip of the hierarchy, and the hierarchy against its generic sum
# ----------------------------------------------------------------------

class _PlainSums(_F64Backend):
    """_F64Backend with both product sums the plain loop, F_i' W_{j-i} rows given back.

    The store keeps plain arrays.  _hierarchy_core keeps no F_i' where F_i's
    only unknown sits at power 0; here every F_i with unknowns brings its
    row F_i' W_{j-i} back, with the F_i' that poly_diff gives: its powers
    above 0 are all zero.
    """

    @staticmethod
    def operands(k, J):
        return {name: [None] * (J + 1) for name in engine._TABLES}

    @staticmethod
    def operand(ops, name, j, a):
        ops[name][j] = a

    @staticmethod
    def mirrored_sum(ops, j):
        return _plain_mirrored_sum(_F64Backend, ops["W"], j)

    @staticmethod
    def f_term_sum(ops, t_known, j):
        F = ops["F"]
        Fp = [None if f is None else _F64Backend.poly_diff(f) for f in F]
        return _plain_f_term_sum(_F64Backend, F[0], t_known, F, ops["T"], Fp, ops["W"], j)


def _hierarchy_inputs(k: int, gamma: float, m: int, order: int, system: str = "ion"):
    """(vpolys, omega, q0) of one state, as solve_state hands them to the core."""
    pot = radial_potential(system, gamma)
    s = engine.StateIndex.from_azimuthal(k, m)
    sp = engine.shift_params(pot, engine.locate_q0(pot, s), s)
    J = 2 * order + 2
    b = engine.b_coefficients(pot, sp, J + 2)
    return engine.v_series(b, sp.beta, J), sp.omega, sp.q0


def _core_bits(out) -> list:
    corr, W, F = out
    return [float(c).hex() for c in corr] + [_bits(p) for p in W + F]


@pytest.mark.parametrize("be", [_F64Backend])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_hierarchy_skips_only_zero_fp_rows(be, k):
    # the whole hierarchy against the plain loop with the skipped rows back
    order = 19
    for gamma, m in [(0.3, 0), (2.0, 1)]:
        v, omega, q0 = _hierarchy_inputs(k, gamma, m, order)
        got = _hierarchy_core(v, k, order, omega, q0, be)
        ref = _hierarchy_core(v, k, order, omega, q0, _PlainSums)
        assert _core_bits(got) == _core_bits(ref)


class _CorrelatedSums(_F64Backend):
    """_F64Backend with the two product sums as they were before the plan.

    Every product is np.correlate(longer, shorter reversed), the F side
    first on a tie, from lists of operand forms (a, a reversed), and every
    row is added in place to the widest, F_0 T_known, a row of sign -1.0
    subtracted.
    """

    @staticmethod
    def operands(k, J):
        return {name: [None] * (J + 1) for name in engine._TABLES}

    @staticmethod
    def operand(ops, name, j, a):
        ops[name][j] = a, a[::-1].copy()

    @staticmethod
    def mirrored_sum(ops, j):
        W = ops["W"]
        rows = [np.correlate(W[j - i][0], W[i][1], "full") for i in range(1, j // 2 + 1)]
        acc = np.zeros(2 * j + 3 if j > 1 else 1)
        for row in rows + rows[: (j - 1) // 2][::-1]:
            acc += row
        return acc

    @staticmethod
    def f_term_sum(ops, t_known, j):
        F, T, Fp, W = ops["F"], ops["T"], ops["Fp"], ops["W"]
        f0, f0r = F[0]
        if len(f0) == 1:
            acc = t_known * f0[0] + 0.0
        elif len(t_known) > len(f0):
            acc = np.correlate(t_known, f0r, "full")
        else:
            acc = np.correlate(f0, t_known[::-1], "full")
        for f, t, fp, w in zip(F[1:j], T[j - 1 : 0 : -1], Fp[1:j], W[j - 1 : 0 : -1]):
            if f is not None:
                (f, fr), (t, tr) = f, t
                row = np.correlate(t, fr, "full") if len(t) > len(f) else \
                    np.correlate(f, tr, "full")
                acc[: len(row)] += row
            if fp is not None:
                (f, fr), (w, wr) = fp, w
                row = np.correlate(w, fr, "full") if len(w) > len(f) else \
                    np.correlate(f, wr, "full")
                acc[: len(row)] -= row
        return acc


def _core_outcome(v, k, order, omega, q0, be):
    try:
        return _core_bits(_hierarchy_core(v, k, order, omega, q0, be))
    except PsletError as err:
        return type(err).__name__, str(err)


def test_hierarchy_is_the_generic_product_sum():
    # 35 states with k 0-6, among them the operand-order ties: ion k = 5
    # (F_i against T_1, F_i' against W_1) and rm Gamma 0.2, k 3, |m| 1
    # (F_0 against T_known at half-order 1); the reference forms every
    # product as a correlation
    rng = np.random.default_rng(38)
    states = [("ion", 5, m, g) for g, m in [(0.05, 0), (0.7, 1), (3.0, 2)]] + [("rm", 3, 1, 0.2)]
    while len(states) < 35:
        states.append((str(rng.choice(["ion", "rm"])), len(states) % 7, int(rng.integers(0, 3)),
                       float(10.0 ** rng.uniform(math.log10(0.05), math.log10(5.0)))))
    order = 19
    for system, k, m, gamma in states:
        v, omega, q0 = _hierarchy_inputs(k, gamma, m, order, system)
        got = _core_outcome(v, k, order, omega, q0, _F64Backend)
        assert got == _core_outcome(v, k, order, omega, q0, _CorrelatedSums), (system, k, m, gamma)


# ----------------------------------------------------------------------
# the Pade member against its numpy spelling
# ----------------------------------------------------------------------

def _numpy_pade_fit(c, M, N):
    """series.pade_fit as it was written with np.linalg.cond and numpy scalars."""
    c = np.asarray(c, dtype=float)
    if len(c) != M + N + 1:
        raise ValueError(f"need exactly M+N+1 = {M + N + 1} coefficients, got {len(c)}")
    if N == 0:
        return PadeApproximant(c.copy(), np.array([1.0]))

    rho = _growth_rate(c)
    cs = c / rho ** np.arange(len(c))
    rows = np.arange(M + 1, M + N + 1)
    cols = np.arange(1, N + 1)
    idx = rows[:, None] - cols[None, :]
    A = np.where(idx >= 0, cs[np.clip(idx, 0, None)], 0.0)
    rhs = -cs[rows]
    try:
        cond = np.linalg.cond(A)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularPadeSystem(
            f"[{M}/{N}] denominator system condition {cond:.2e} exceeds {CONDITION_LIMIT:.0e}"
        )
    try:
        q = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularPadeSystem(f"[{M}/{N}] denominator system is singular") from err
    den = np.concatenate(([1.0], q * rho ** np.arange(1, N + 1)))
    num = np.array(
        [math.fsum(den[s] * c[i - s] for s in range(0, min(i, N) + 1)) for i in range(M + 1)]
    )
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise SingularPadeSystem(f"[{M}/{N}] fit produced non-finite coefficients")
    return PadeApproximant(num, den)


def _numpy_pade_eval(p, t):
    """series.pade_eval as it was written with np.polynomial.polynomial.polyval."""
    tpow = np.abs(p.den) * np.abs(t) ** np.arange(len(p.den))
    scale = float(np.sum(tpow))
    den_val = float(np.polynomial.polynomial.polyval(t, p.den))
    if abs(den_val) < POLE_TOLERANCE * scale:
        raise PoleProximity(
            f"denominator {den_val:.3e} at t={t:.6g} is below {POLE_TOLERANCE:.0e} of scale {scale:.3e}"
        )
    num_val = float(np.polynomial.polynomial.polyval(t, p.num))
    return num_val / den_val


def _outcome(fn, *args):
    """(exception class and message) or the float.hex of what fn returns."""
    try:
        out = fn(*args)
    except PsletError as err:
        return type(err).__name__, str(err)
    if isinstance(out, float):
        return out.hex()
    return _bits(out.num), _bits(out.den)


def _pade_inputs():
    """(c, M, N, t): every ladder member of real solves, then random series."""
    for gamma, k, m in [(0.2, 0, 0), (0.7, 1, 1), (2.0, 0, 0), (5.0, 3, 0), (0.05, 2, 3)]:
        for system in ("ion", "rm"):
            pot = radial_potential(system, gamma)
            s = engine.StateIndex.from_azimuthal(k, m)
            res = engine._solve_path("double", pot, s, engine.locate_q0(pot, s))
            c, t = res.expansion.corrections, 1.0 / res.expansion.lbar
            for M, N in staircase_orders():
                yield c[: M + N + 1], M, N, t
    rng = np.random.default_rng(16)
    for _ in range(600):
        M, N = int(rng.integers(0, 10)), int(rng.integers(0, 11))
        growth = 10.0 ** rng.uniform(-1.0, 1.5)
        c = rng.normal(size=M + N + 1) * growth ** np.arange(M + N + 1)
        c[rng.random(len(c)) < 0.1] = 0.0
        t = float(rng.uniform(-1.0, 1.0)) / growth
        yield c, M, N, t
        try:
            den = _numpy_pade_fit(c, M, N).den
        except PsletError:
            continue
        poles = np.roots(den[::-1]) if N else []
        real = [float(z.real) for z in poles if z.imag == 0.0]
        if real:  # on a pole: the eval is rejected by POLE_TOLERANCE
            yield c, M, N, real[0]


def test_pade_member_matches_its_numpy_spelling():
    seen = {}
    for c, M, N, t in _pade_inputs():
        fit = _outcome(pade_fit, c, M, N)
        assert fit == _outcome(_numpy_pade_fit, c, M, N)
        if isinstance(fit[0], str) and fit[0].endswith("System"):
            seen["singular"] = seen.get("singular", 0) + 1
            continue
        p = pade_fit(c, M, N)
        val = _outcome(pade_eval, p, t)
        assert val == _outcome(_numpy_pade_eval, p, t)
        key = "pole" if isinstance(val, tuple) else "value"
        seen[key] = seen.get(key, 0) + 1
    # every outcome is exercised: values, CONDITION_LIMIT and POLE_TOLERANCE rejections
    assert min(seen.get(key, 0) for key in ("value", "singular", "pole")) >= 10, seen


@pytest.mark.parametrize("t", [0.0, -0.0, 0.3, -0.3, 1e300, float("inf"), float("nan")])
def test_horner_is_polyval(t):
    for _ in range(50):
        c = _random_f64(int(_RNG.integers(1, 12)))
        c[_RNG.random(len(c)) < 0.3] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            ref = float(np.polynomial.polynomial.polyval(t, c))
        assert float(_horner(c.tolist(), t)).hex() == ref.hex()


# ----------------------------------------------------------------------
# the top-down Pade ladder against the eager one
# ----------------------------------------------------------------------

def _eager_ladder(corrections, lead, fit_eval):
    """engine._ladder as it fitted every member up front: (orders, values, spread, converged)."""
    orders = staircase_orders()
    if engine._series_is_trivial(corrections, lead):
        values = [lead] * len(orders)
        return orders, values, 0.0, True
    values = [
        engine._fit_or_none(fit_eval, M, N) if M + N + 1 <= len(corrections) else None
        for M, N in orders
    ]
    tail = [v for v in values if v is not None][-5:]
    spread = (max(tail) - min(tail)) if tail else math.inf
    return orders, values, spread, spread <= engine.STABILITY_TOL


def _ladder_bits(orders, values, spread, converged) -> tuple:
    return orders, [None if v is None else float(v).hex() for v in values], spread.hex(), converged


class _Counted:
    """fit_eval, recording the (M, N) of every call."""

    def __init__(self, fit_eval):
        self.fit_eval = fit_eval
        self.calls = []

    def __call__(self, M: int, N: int) -> float:
        self.calls.append((M, N))
        return self.fit_eval(M, N)


def _check_ladder(corrections, lead, fit_eval) -> int:
    """Compare engine._ladder with the eager ladder; return the fits the ladder made itself."""
    orders, values, spread, converged = ref = _eager_ladder(corrections, lead, fit_eval)
    fits = _Counted(fit_eval)
    stair = engine._ladder(corrections, lead, fits)
    made = len(fits.calls)
    # the top-down walk fits down to the fifth member that exists, and no further
    need, found = 0, 0
    for (M, N), v in reversed(list(zip(orders, values))):
        if found == 5:
            break
        if M + N + 1 <= len(corrections):  # longer members are None unfitted
            need, found = need + 1, found + (v is not None)
    if engine._series_is_trivial(corrections, lead):
        need = 0
    assert made == need
    assert (stair.spread.hex(), stair.converged) == (spread.hex(), converged)
    assert _ladder_bits(stair.orders, stair.values, stair.spread, stair.converged) == (
        _ladder_bits(*ref)
    )
    assert len(fits.calls) == len(set(fits.calls))
    before = len(fits.calls)
    assert _ladder_bits(stair.orders, stair.values, stair.spread, stair.converged) == (
        _ladder_bits(*ref)
    )
    assert len(fits.calls) == before  # a second read fits nothing
    # member() fits one member on first read, off the ladder none
    fits = _Counted(fit_eval)
    stair = engine._ladder(corrections, lead, fits)
    for (M, N), v in zip(orders, values):
        before = len(fits.calls)
        got = stair.member(M, N)
        assert (None if got is None else got.hex()) == (None if v is None else v.hex())
        assert len(fits.calls) - before <= 1
    for M, N in [(5, 3), (0, 0), (10, 10)]:
        assert stair.member(M, N) is None
    assert len(fits.calls) == len(set(fits.calls))
    return made


def _real_ladders():
    """(corrections, lead, fit_eval) of real solves in both precisions, failing members too."""
    cases = [("ion", 0.5, 0, 0), ("ion", 0.05, 1, 0), ("rm", 2.0, 0, 1), ("rm", 0.0881, 3, 0),
             ("ion", 5.0, 2, 3)]
    for system, gamma, k, m in cases:
        pot = radial_potential(system, gamma)
        s = engine.StateIndex.from_azimuthal(k, m)
        q0 = engine.locate_q0(pot, s)
        e = engine._solve_path("double", pot, s, q0).expansion
        yield e.corrections, e.leading_term, partial(engine.resum, e)
        res = engine._solve_path("extended", pot, s, q0)
        # the dd ladder's own fit: the dd value, or None where the fit fails
        yield res.expansion.corrections, res.expansion.leading_term, res.staircase.fit


def test_top_down_ladder_is_the_eager_ladder_on_real_solves():
    made = [_check_ladder(*case) for case in _real_ladders()]
    assert max(made) > 5  # a top member fails in some of them


def _synthetic_fit(values, failures):
    """A fit_eval that returns values[i] for the i-th ladder member or raises failures[i]."""
    orders = staircase_orders()

    def fit_eval(M: int, N: int) -> float:
        i = orders.index((M, N))
        if failures[i] is not None:
            raise failures[i](f"[{M}/{N}] forced")
        return values[i]

    return fit_eval


def test_top_down_ladder_is_the_eager_ladder_on_random_ladders():
    # random values with inf, -inf and nan among them (max and min depend on
    # the order of the tail then), random failures up to every member, and
    # series of every length up to order 19 (short ones leave members None)
    rng = np.random.default_rng(18)
    seen = {"more_than_five": 0, "all_fail": 0, "non_finite": 0, "short": 0, "trivial": 0}
    for n in range(400):
        values = 1.0 + rng.normal(size=17) * 10.0 ** rng.uniform(-9, 0)
        bad = rng.random(17) < rng.uniform(0.0, 0.3)
        values[bad] = rng.choice([math.inf, -math.inf, math.nan], size=int(bad.sum()))
        p_fail = 1.0 if n % 10 == 0 else rng.uniform(0.0, 0.8)
        failures = [
            (SingularPadeSystem if rng.random() < 0.5 else PoleProximity)
            if rng.random() < p_fail else None
            for _ in range(17)
        ]
        length = int(rng.integers(0, 21)) if n % 4 == 0 else 20
        corrections = rng.normal(size=length) * (0.0 if n % 25 == 0 else 1.0)
        made = _check_ladder(corrections, 1.0, _synthetic_fit(list(values), failures))
        got = [v for v in _eager_ladder(corrections, 1.0, _synthetic_fit(values, failures))[1]
               if v is not None]
        seen["more_than_five"] += made > 5
        seen["all_fail"] += length >= 4 and n % 25 != 0 and not got
        seen["non_finite"] += not all(math.isfinite(v) for v in got[-5:])
        seen["short"] += 0 < length < 20
        seen["trivial"] += n % 25 == 0
    assert min(seen.values()) >= 5, seen
