"""The hierarchy's batched kernels against the sequential sums they stand for.

Each backend kernel of engine._hierarchy_core (pair_products, ordered_sum,
product_sum, influences, and the dd elimination update _dd.dd_axpy) replaces a loop of
poly_add / poly_mul / DDPoly.add / DDPoly.mul calls and must give its bits,
the sign of every zero included.  The references below are those loops,
with the double-precision poly_add in its zero-buffer form.  Inputs are
random stacks of unequal lengths with exact zeros and negative zeros.

The kernels rest on three facts, checked here directly: every sum keeps its
term order; adding an exact zero (double or dd) to a value that holds no
negative zero returns it unchanged; np.convolve starts its sums from +0.0,
so it never returns a negative zero.
"""

import numpy as np
import pytest

from pslet._dd import DD, DDPoly, dd_add, dd_axpy, two_sum
from pslet.engine import _DDBackend, _F64Backend

_RNG = np.random.default_rng(7)


def _bits(x) -> list[str]:
    return [float(v).hex() for v in np.asarray(x, dtype=float).ravel()]


def _dd_bits(p: DDPoly) -> list[str]:
    return _bits(p.hi) + _bits(p.lo)


def _sprinkle(v: np.ndarray) -> np.ndarray:
    """v with about a quarter of its entries set to +0.0 or -0.0."""
    v = v.copy()
    v[_RNG.random(len(v)) < 0.15] = 0.0
    v[_RNG.random(len(v)) < 0.1] = -0.0
    return v


def _random_f64(n: int) -> np.ndarray:
    return _sprinkle(_RNG.normal(size=n) * 10.0 ** _RNG.integers(-8, 8, size=n))


def _random_dd(n: int, zeros: bool = True) -> DDPoly:
    """A normalized dd polynomial; with zeros, some coefficients are exact +-0 pairs."""
    hi, lo = two_sum(_RNG.normal(size=n) * 10.0 ** _RNG.integers(-8, 8, size=n),
                     _RNG.normal(size=n) * 1e-25)
    if zeros:
        hi = _sprinkle(hi)
        lo = np.where(hi == 0.0, np.copysign(0.0, hi), lo)
    return DDPoly(hi, lo)


def _zero_buffer_add(a, b, sign=1.0):
    """The sequential double-precision sum step the kernels reproduce."""
    out = np.zeros(max(len(a), len(b)))
    out[: len(a)] += a
    out[: len(b)] += sign * b
    return out


# ----------------------------------------------------------------------
# the three facts
# ----------------------------------------------------------------------

def test_cumsum_adds_rows_in_order():
    # np.sum and np.add.reduce over axis 0 may pair rows up (here: one column)
    for _ in range(200):
        stack = np.zeros((int(_RNG.integers(9, 40)), 1))
        stack[1:, 0] = _RNG.normal(size=len(stack) - 1) * 10.0 ** _RNG.integers(-8, 8, len(stack) - 1)
        acc = 0.0
        for v in stack[:, 0]:
            acc += v
        assert _bits(np.cumsum(stack, axis=0)[-1]) == _bits([acc])


def test_exact_zero_leaves_a_normalized_pair_unchanged():
    p = _random_dd(500, zeros=False)
    hi = np.where(_RNG.random(500) < 0.2, 0.0, p.hi)  # +0 pairs too, never -0
    lo = np.where(hi == 0.0, 0.0, p.lo)
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
    # one-coefficient rows make a one-column stack, which np.sum(axis=0) pairs up
    for _ in range(300):
        rows = [_random_f64(int(_RNG.integers(1, max_len + 1)))
                for _ in range(int(_RNG.integers(0, 25)))]
        acc = np.zeros(1)
        for r in rows:
            acc = _zero_buffer_add(acc, r)
        assert _bits(_F64Backend.ordered_sum(rows)) == _bits(acc)


def test_f64_product_sum_is_the_sequential_sum():
    for _ in range(200):
        cap = int(_RNG.integers(3, 60))
        R = _random_f64(int(_RNG.integers(1, 20)))
        terms = [
            (_random_f64(int(_RNG.integers(1, 6))), _random_f64(int(_RNG.integers(1, 40))),
             float(_RNG.choice([1.0, -1.0])))
            for _ in range(int(_RNG.integers(0, 12)))
        ]
        ref = R
        for a, b, sign in terms:
            ref = _zero_buffer_add(ref, _F64Backend.poly_mul(a, b, cap), sign)
        assert _bits(_F64Backend.product_sum(R, terms, cap)) == _bits(ref)


def test_f64_pair_products():
    W = [_random_f64(2 * i + 2) for i in range(12)]
    for j in range(1, 12):
        got = _F64Backend.pair_products(W, j, 40)
        ref = [_F64Backend.poly_mul(W[i], W[j - i], 40) for i in range(1, j // 2 + 1)]
        assert [_bits(g) for g in got] == [_bits(r) for r in ref]


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


# ----------------------------------------------------------------------
# double-double
# ----------------------------------------------------------------------

def _hierarchy_w(n: int) -> list:
    """W_0..W_{n-1} shaped like the hierarchy's: 2i + 2 coefficients of parity i + 1."""
    W = []
    for i in range(n):
        w = DDPoly.zeros(2 * i + 2)
        p = _random_dd(i + 1)
        w.hi[(i + 1) % 2 :: 2], w.lo[(i + 1) % 2 :: 2] = p.hi, p.lo
        W.append(w)
    return W


def test_dd_pair_products_are_ddpoly_mul():
    for _ in range(5):
        W = _hierarchy_w(22)
        for j in range(1, 22):
            got = _DDBackend.pair_products(W, j, 100)
            ref = [W[i].mul(W[j - i], 100) for i in range(1, j // 2 + 1)]
            assert [_dd_bits(g) for g in got] == [_dd_bits(r) for r in ref]


def test_dd_ordered_sum_is_the_sequential_sum():
    for _ in range(100):
        rows = [_random_dd(int(_RNG.integers(1, 30))) for _ in range(int(_RNG.integers(0, 20)))]
        acc = DDPoly.zeros(1)
        for r in rows:
            acc = acc.add(r)
        assert _dd_bits(_DDBackend.ordered_sum(rows)) == _dd_bits(acc)


@pytest.mark.parametrize("max_nonzero", [1, 2, 3])
def test_dd_product_sum_is_the_sequential_sum(max_nonzero):
    for _ in range(60):
        cap = int(_RNG.integers(3, 60))
        R = _random_dd(int(_RNG.integers(1, 20)))
        terms = []
        for _ in range(int(_RNG.integers(0, 10))):
            a = _random_dd(int(_RNG.integers(1, 7)))
            live = np.flatnonzero(a.hi)
            drop = live[max_nonzero:] if len(live) > max_nonzero else []
            a.hi[drop], a.lo[drop] = 0.0, 0.0
            b = _random_dd(int(_RNG.integers(1, 40)))
            pair = (a, b) if _RNG.random() < 0.8 else (b, a)
            terms.append((*pair, float(_RNG.choice([1.0, -1.0]))))
        ref = R
        for a, b, sign in terms:
            ref = ref.add(a.mul(b, cap), sign)
        assert _dd_bits(_DDBackend.product_sum(R, terms, cap)) == _dd_bits(ref)


def test_dd_axpy_is_ddpoly_add_of_the_scaled_influence():
    # R as the hierarchy builds it, from sums that start at +0.0: no -0.0
    for _ in range(200):
        n = int(_RNG.integers(1, 40))
        R = DDPoly.zeros(n).add(_random_dd(n))
        infl = _random_dd(int(_RNG.integers(1, n + 1)))
        z = DD(*two_sum(float(_RNG.normal()) * 10.0 ** int(_RNG.integers(-6, 6)),
                        float(_RNG.normal()) * 1e-25))
        sign = float(_RNG.choice([1.0, -1.0]))
        ref = R.add(infl.scale(z), sign)
        work = _DDBackend.work(R)
        _DDBackend.axpy(work, _DDBackend.sparse(infl), z, sign)
        assert _dd_bits(_DDBackend.unwork(work)) == _dd_bits(ref)
        hi, lo = R.hi.tolist(), R.lo.tolist()
        dd_axpy(hi, lo, _DDBackend.sparse(infl), z.hi, z.lo, sign)
        assert _bits(hi + lo) == _dd_bits(ref)


# ----------------------------------------------------------------------
# influence polynomials, both backends
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


@pytest.mark.parametrize("be", [_F64Backend, _DDBackend])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_influences_are_the_plain_loop(be, k):
    J = 40  # order 19
    for _ in range(20):
        w = float(_RNG.uniform(1.5, 5.0))
        omega = w if be is _F64Backend else DD(*two_sum(w, float(_RNG.normal()) * 1e-17 * w))
        f0, f0p = _prefactor(be, k, omega)
        got = be.influences(f0, f0p, omega, 2 * J + 2)
        ref = _plain_influences(be, f0, f0p, omega, 2 * J + 2, k + 2 * J + 4)
        assert _influence_bits(got) == _influence_bits(ref)
