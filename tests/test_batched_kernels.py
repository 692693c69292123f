"""The hierarchy's batched kernels against the sequential sums they stand for.

Each kernel of engine._F64Backend that engine._hierarchy_core calls
(product_sum, eliminate, influences) replaces a loop of poly_add /
poly_mul / get / axpy / set_ calls and must give its bits, the sign of
every zero included.  The references below
are those loops, with the double-precision poly_add in its zero-buffer
form.  Inputs are random stacks of unequal lengths with exact zeros and
negative zeros.  The hierarchy forms the sum of its pair products
W_i W_{j-i} (each added at i and at j - i) and its residual R with one
product_sum call each, and both are checked against the loop they replace.

The kernels keep the term order of every sum and rest on two facts,
checked here directly: adding an exact zero to a value that holds no
negative zero returns it unchanged (a dd pair too); np.convolve starts its
sums from +0.0, so it never returns a negative zero.  The double kernels
also rest on their numpy spelling, checked here too: product_sum's
np.correlate(longer, shorter[::-1]) is np.convolve whichever operand comes
first; poly_add without its multiply by 1.0 keeps every -0.0 an operand
held; max_abs passes a NaN or inf on to the residual check.  The double
backend and tools/series_table.py's rational backend offer the same
methods, and only those the hierarchy calls.

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
from pslet.potentials import HybridPotential
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


def _mirrored(j: int) -> list:
    """The hierarchy's index into its pair products: W_i W_{j-i} for i = 1..j-1."""
    return [min(i, j - i) - 1 for i in range(1, j)]


def _random_index(n_terms: int, max_len: int) -> list:
    """A random index list over n_terms terms, with repeats."""
    return [int(t) for t in _RNG.integers(0, n_terms, size=int(_RNG.integers(0, max_len + 1)))]


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
    # product_sum's sum, over every term in order and over an index with
    # repeats; one-coefficient rows: a reduction over a stack of them
    # (np.sum(axis=0)) would pair rows up
    for _ in range(300):
        terms = [(_random_f64(1), _random_f64(int(_RNG.integers(1, max_len + 1))),
                  float(_RNG.choice([1.0, -1.0])))
                 for _ in range(int(_RNG.integers(1, 25)))]
        for index in (range(len(terms)), _random_index(len(terms), 40)):
            acc = np.zeros(1)
            for t in index:
                a, b, sign = terms[t]
                acc = _zero_buffer_add(acc, _F64Backend.poly_mul(a, b, 60), sign)
            assert _bits(_F64Backend.product_sum(terms, 60, index)) == _bits(acc)


def test_f64_product_sum_is_the_sequential_sum():
    # R = poly_mul(F_0, T_known), then R = poly_add(R, poly_mul(a, b), sign)
    # for each term; with no terms (k = 0) R is the lone product
    for _ in range(200):
        cap = int(_RNG.integers(3, 60))
        f0, t_known = _random_f64(int(_RNG.integers(1, 6))), _random_f64(int(_RNG.integers(1, 20)))
        terms = [
            (_random_f64(int(_RNG.integers(1, 6))), _random_f64(int(_RNG.integers(1, 40))),
             float(_RNG.choice([1.0, -1.0])))
            for _ in range(int(_RNG.integers(0, 12)))
        ]
        ref = _F64Backend.poly_mul(f0, t_known, cap)
        for a, b, sign in terms:
            ref = _zero_buffer_add(ref, _F64Backend.poly_mul(a, b, cap), sign)
        terms = [(f0, t_known, 1.0)] + terms
        got = _F64Backend.product_sum(terms, cap, range(len(terms)))
        assert _bits(got) == _bits(ref)


def test_f64_pair_products():
    # the sum over the mirrored index, and each pair product on its own
    W = [_random_f64(2 * i + 2) for i in range(12)]
    for j in range(1, 12):
        pairs = [(W[i], W[j - i], 1.0) for i in range(1, j // 2 + 1)]
        ref = np.zeros(1)
        for i in range(1, j):
            ref = _zero_buffer_add(ref, _F64Backend.poly_mul(W[i], W[j - i], 40))
        assert _bits(_F64Backend.product_sum(pairs, 40, _mirrored(j))) == _bits(ref)
        for t, (a, b, _) in enumerate(pairs):
            one = _zero_buffer_add(np.zeros(1), _F64Backend.poly_mul(a, b, 40))
            assert _bits(_F64Backend.product_sum(pairs, 40, [t])) == _bits(one)


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
    # one, the first operand counting as the longer on a tie; product_sum
    # must pick the same two, since the other pairing rounds differently
    swapped_differs = 0
    for _ in range(200):
        n = int(_RNG.integers(2, 40))
        a = _random_f64(n if first == "equal" else int(_RNG.integers(1, n)))
        b = _random_f64(n)
        cap = int(_RNG.integers(0, 2 * n))
        ref = np.convolve(a, b)[: cap + 1]
        assert _bits(_F64Backend.product_sum([(a, b, 1.0)], cap, [0])) == _bits(ref)
        longer, shorter = (b, a) if first == "equal" else (a, b)  # the pairing not taken
        other = np.correlate(longer, shorter[::-1], "full")[: cap + 1]
        swapped_differs += _bits(other) != _bits(ref)
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
# product_sum
# ----------------------------------------------------------------------

def _products_case(case: str):
    """(terms, cap) for one edge of the kernel; the operands hold exact +-0 coefficients."""
    def term(la: int, lb: int):
        return _random_f64(la), _random_f64(lb), float(_RNG.choice([1.0, -1.0]))

    if case == "equal_lengths":
        return [term(12, 12) for _ in range(6)], 40
    if case == "longer_first":
        return [term(int(_RNG.integers(8, 30)), int(_RNG.integers(1, 8))) for _ in range(6)], 60
    if case == "cap_below_a_row":  # rows m > cap are live and are cut
        a, b, sign = term(8, 10)
        a[4:8] = _RNG.normal(size=4)
        return [(a, b, sign)], 3
    if case == "one_term":
        return [term(int(_RNG.integers(1, 10)), int(_RNG.integers(1, 30)))], 50
    if case == "negative_sign_zeros":  # the product's +0.0 columns 0-2 turn to -0.0
        a, b, _ = term(5, 9)
        a[0:3] = 0.0
        return [(a, b, -1.0), (b, a, -1.0)], 50
    raise ValueError(case)


def _plain_sum(be, terms, cap, index):
    """The plain loop product_sum stands for, from a +0.0 start."""
    acc = be.poly_zeros(1)
    for t in index:
        a, b, sign = terms[t]
        acc = _zero_buffer_add(acc, be.poly_mul(a, b, cap), sign)
    return acc


@pytest.mark.parametrize("be", [_F64Backend])
@pytest.mark.parametrize(
    "case", ["equal_lengths", "longer_first", "cap_below_a_row", "one_term", "negative_sign_zeros"]
)
def test_products_are_the_signed_poly_mul(be, case):
    # each term on its own, every term in order, and an index with repeats
    for _ in range(30):
        terms, cap = _products_case(case)
        n = len(terms)
        for index in [[t] for t in range(n)] + [range(n), _random_index(n, 12)]:
            got = be.product_sum(terms, cap, index)
            assert _bits(got) == _bits(_plain_sum(be, terms, cap, index))
    if case == "negative_sign_zeros":
        # the rows hold -0.0 there; the sum's +0.0 start turns them to +0.0
        rows = [sign * be.poly_mul(a, b, cap) for a, b, sign in terms]
        assert all(_bits(r)[:3] == ["-0x0.0p+0"] * 3 for r in rows)
        assert _bits(be.product_sum(terms, cap, range(n)))[:3] == ["0x0.0p+0"] * 3


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
        for j in range(1, 16):
            pairs = [(W[i], W[j - i], 1.0) for i in range(1, j // 2 + 1)]
            got = be.product_sum(pairs, 50, _mirrored(j))
            assert _bits(got) == _bits(_plain_sum(be, pairs, 50, _mirrored(j)))


@pytest.mark.parametrize("be", [_F64Backend])
def test_no_products(be):
    # half-order 1 has no pairs; an empty index adds nothing to the zero start
    zero = _bits(be.poly_zeros(1))
    assert _bits(be.product_sum([], 10, [])) == zero
    assert _bits(be.product_sum([], 10, range(0))) == zero
    terms = [(_random_f64(3), _random_f64(5), 1.0)]
    assert _bits(be.product_sum(terms, 10, [])) == zero


def test_rational_product_sum_is_the_plain_loop():
    # the rational backend sums in integers over one common denominator;
    # the plain loop of poly_add / poly_mul must give the same Fractions
    def poly(n):
        return [Fraction(int(_RNG.integers(-50, 51)), int(_RNG.integers(1, 30)))
                if _RNG.random() < 0.8 else Fraction(0) for _ in range(n)]

    be = _RationalBackend
    for _ in range(40):
        terms = [(poly(int(_RNG.integers(1, 8))), poly(int(_RNG.integers(1, 12))),
                  float(_RNG.choice([1.0, -1.0]))) for _ in range(int(_RNG.integers(1, 6)))]
        cap = int(_RNG.integers(0, 20))
        for index in (range(len(terms)), _random_index(len(terms), 10), []):
            acc = be.poly_zeros(1)
            for t in index:
                a, b, sign = terms[t]
                acc = be.poly_add(acc, be.poly_mul(a, b, cap), sign)
            assert be.product_sum(terms, cap, index) == acc


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
# the F' skip of the hierarchy
# ----------------------------------------------------------------------

def _with_zero_fp_rows(base, k: int):
    """base, with product_sum given back the rows F_i' W_{j-i} whose F_i' is zero.

    _hierarchy_core leaves those rows out when F_i's only unknown sits at
    power 0.  Here they go back in their old places, each with the F_i' that
    poly_diff gives for such an F_i: its powers above 0 are all zero.  Each
    half-order calls product_sum twice: first for the pairs W_i W_{j-i},
    from which W_1..W_{j-1} and j are read (W_i has 2i + 2 coefficients),
    then for the rows of R, F_0 T_known first, each added once in order.
    """

    class Backend(base):
        W = None

        @staticmethod
        def product_sum(terms, cap, index):
            if Backend.W is None:
                Backend.W = {len(w) // 2 - 1: w for a, b, _ in terms for w in (a, b)}
                return base.product_sum(terms, cap, index)
            assert index == range(len(terms))
            W, Backend.W = Backend.W, None
            j = max(W, default=0) + 1
            full, given = [terms[0]], iter(terms[1:])
            for i in range(1, j):
                powers = [p for p in range(k) if p % 2 == (k + i) % 2]
                if powers:
                    full.append(next(given))  # F_i T_{j-i}
                    if max(powers) > 0:
                        full.append(next(given))  # F_i' W_{j-i}
                    else:
                        zero_fp = base.poly_diff(base.poly_zeros(max(k, 1)))
                        full.append((zero_fp, W[j - i], -1.0))
            assert next(given, None) is None
            return base.product_sum(full, cap, range(len(full)))

    return Backend


def _hierarchy_inputs(k: int, gamma: float, m: int, order: int):
    """(vpolys, omega, q0) of one ion state, as solve_state hands them to the core."""
    pot = HybridPotential(a_osc=gamma * gamma / 8.0, c_coul=1.0)
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
    order = 19
    for gamma, m in [(0.3, 0), (2.0, 1)]:
        v, omega, q0 = _hierarchy_inputs(k, gamma, m, order)
        got = _hierarchy_core(v, k, order, omega, q0, be)
        ref = _hierarchy_core(v, k, order, omega, q0, _with_zero_fp_rows(be, k))
        assert _core_bits(got) == _core_bits(ref)


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
        for c_coul, divisor in [(1.0, 8.0), (0.5, 32.0)]:
            pot = HybridPotential(a_osc=gamma * gamma / divisor, c_coul=c_coul)
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
    cases = [(1.0, 8.0, 0.5, 0, 0), (1.0, 8.0, 0.05, 1, 0), (0.5, 32.0, 2.0, 0, 1),
             (0.5, 32.0, 0.0881, 3, 0), (1.0, 8.0, 5.0, 2, 3)]
    for c_coul, divisor, gamma, k, m in cases:
        pot = HybridPotential(a_osc=gamma * gamma / divisor, c_coul=c_coul)
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
