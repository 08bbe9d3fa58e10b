"""Tests for the special-function primitives.

Frozen oracle values and their provenance:

* reg_upper_gamma(5, 15) = 8.566412107825924e-4, adaptive quadrature of
  the normalized upper gamma integrand (scipy.integrate.quad, abs err
  ~2e-9), computed ahead of the implementation.
* marcum_q(2, 1, 2) = 0.5303148 +/- 1.58e-4, empirical tail of 1e7 draws
  of a noncentral chi-square with 4 dof and noncentrality 1 (seed 12345),
  cross-checked against direct Poisson-series summation (0.530146908084).

* FROZEN_GAMMA_PAIRS: (order, x, P, Q) from mpmath 1.3 ``gammainc`` at 40
  significant digits, rounded to double. They cover orders >= 200 with
  |x - order| > 0.4 order, where scipy's cephes ``igam`` forms
  x^a e^-x / Gamma(a) directly and loses up to ~2e-11 relative itself
  (scipy's Q at (9083.604651023614, 12851.202835207432) is 1.6e-11 off).

Temme's coefficients d_{k,n} are regenerated here in exact rational
arithmetic (stdlib ``fractions`` only) and compared with the committed
float literals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from coopsense import specfun
from coopsense.specfun import (
    MAX_ITERATIONS,
    TERM_TOLERANCE,
    log_gamma,
    marcum_q,
    reg_lower_gamma,
    reg_upper_gamma,
)

QUAD_REG_UPPER_5_15 = 8.566412107825924e-4
MC_MARCUM_2_1_2 = 0.53031480
MC_MARCUM_2_1_2_SE = 1.58e-4
FROZEN_GAMMA_PAIRS = [
    (250.0, 24.999999999999993, 1.4574644085759868e-154, 1.0),
    (250.0, 100.0, 1.9094894161622827e-36, 1.0),
    (250.0, 145.00000000000003, 1.7020729065294366e-15, 0.9999999999999983),
    (250.0, 352.5, 0.9999999963273399, 3.672660029350661e-09),
    (250.0, 400.0, 0.9999999999999997, 3.1770076592385687e-16),
    (250.0, 625.0, 1.0, 7.052796002233178e-66),
    (600.0, 240.0, 1.034743687961854e-84, 1.0),
    (600.0, 348.00000000000006, 1.2167215905054015e-34, 1.0),
    (600.0, 846.0, 1.0, 1.9414257819934194e-19),
    (600.0, 960.0, 1.0, 3.6010660361763844e-36),
    (600.0, 1500.0, 1.0, 8.587226417795201e-155),
    (2000.0, 800.0, 2.7883412344149973e-277, 1.0),
    (2000.0, 1160.0000000000002, 9.767184194466526e-111, 1.0),
    (2000.0, 2820.0, 1.0, 4.4930208529052666e-60),
    (2000.0, 3200.0, 1.0, 1.8107236156224164e-115),
    (2100.0, 1218.0000000000002, 3.6507058214748324e-116, 1.0),
    (2100.0, 2961.0, 1.0, 5.726211168169319e-63),
    (2100.0, 3360.0, 1.0, 3.996071667544033e-121),
    (5000.0, 2900.0000000000005, 1.933140231260345e-273, 1.0),
    (5000.0, 7050.0, 1.0, 8.507137719812044e-147),
    (5000.0, 8000.0, 1.0, 4.890450098507124e-285),
    (9083.5, 12807.734999999999, 1.0, 1.0609511511155177e-264),
    (9083.604651023614, 12851.202835207432, 1.0, 3.3456334402022607e-270),
]


def quad_reg_upper(order, x):
    """Independent quadrature oracle for the regularized upper gamma.

    The integral is split at the integrand's mode so the adaptive rule
    cannot overlook a peak far from the lower limit.
    """
    if x == 0.0:
        return 1.0
    lg = math.lgamma(order)
    integrand = lambda t: math.exp((order - 1.0) * math.log(t) - t - lg)
    mode = max(x, order - 1.0)
    head, _ = integrate.quad(integrand, x, mode, limit=400)
    tail, _ = integrate.quad(integrand, mode, np.inf, limit=400)
    return head + tail


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_five_is_log_24(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_gamma_half_is_half_log_pi(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    def test_relative_error_across_range(self):
        rng = np.random.default_rng(3)
        for x in np.concatenate([[0.5, 1.0, 2.0], rng.uniform(0.5, 1e4, 200)]):
            ref = special.gammaln(x)
            if ref == 0.0:
                assert abs(log_gamma(float(x))) < 1e-12
            else:
                assert abs(log_gamma(float(x)) - ref) / abs(ref) < 1e-12


class TestRegUpperGamma:
    def test_full_mass_at_zero(self):
        assert reg_upper_gamma(1.0, 0.0) == 1.0

    def test_order_one_is_exp(self):
        assert reg_upper_gamma(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_frozen_quadrature_oracle(self):
        assert reg_upper_gamma(5.0, 15.0) == pytest.approx(
            QUAD_REG_UPPER_5_15, abs=1e-10
        )

    def test_quadrature_grid(self):
        for order in [0.5, 1.0, 2.5, 5.0, 20.0, 200.0]:
            for x in [0.0, 0.5, 1.0, 5.0, 15.0, 50.0, 400.0]:
                assert reg_upper_gamma(order, x) == pytest.approx(
                    quad_reg_upper(order, x), abs=1e-8
                )

    def test_recurrence_identity(self):
        # Q(u+1, x) - Q(u, x) = x^u e^-x / Gamma(u+1)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            u = rng.uniform(0.5, 50.0)
            x = rng.uniform(0.0, 100.0)
            lhs = reg_upper_gamma(u + 1.0, x) - reg_upper_gamma(u, x)
            rhs = 0.0
            if x > 0.0:
                rhs = math.exp(u * math.log(x) - x - math.lgamma(u + 1.0))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_complement(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            u = rng.uniform(0.2, 150.0)
            x = rng.uniform(0.0, 300.0)
            assert reg_lower_gamma(u, x) + reg_upper_gamma(u, x) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            v = reg_upper_gamma(rng.uniform(0.1, 200), rng.uniform(0, 400))
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize(
        "order,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)]
    )
    def test_domain(self, order, x):
        with pytest.raises(ValueError):
            reg_upper_gamma(order, x)


def envelope_points(rng, count):
    """Seeded (order, x) pairs over the pinned envelope: order log-uniform
    on [0.5, 1e4] plus the bundled specs' order 2000 and the Marcum mode
    orders 2000 + j; x within 50% of the order for half the points,
    x / order log-uniform on [e^-6, e^2.5] for the rest."""
    orders = np.concatenate([
        np.exp(rng.uniform(math.log(0.5), math.log(1e4), count - 40)),
        np.full(20, 2000.0),
        2000.0 + rng.integers(0, 400, 20),
    ])
    near = orders * (1.0 + rng.uniform(-0.5, 0.5, orders.size))
    wide = orders * np.exp(rng.uniform(-6.0, 2.5, orders.size))
    return np.concatenate([orders, orders]), np.concatenate([near, wide])


def assert_pair_matches_scipy(orders, xs, rel):
    """P and Q both within ``rel`` of scipy wherever the reference is at
    least 1e-290 (below that, only the absolute error is meaningful)."""
    ref_p = special.gammainc(orders, xs)
    ref_q = special.gammaincc(orders, xs)
    for order, x, want_p, want_q in zip(orders, xs, ref_p, ref_q):
        got_p = reg_lower_gamma(float(order), float(x))
        got_q = reg_upper_gamma(float(order), float(x))
        for got, want in ((got_p, want_p), (got_q, want_q)):
            assert abs(got - want) <= rel * want or want < 1e-290, (order, x)
            assert abs(got - want) <= 1e-300 or want >= 1e-290, (order, x)


class TestGammaEnvelope:
    """The gamma pair pinned over the orders and arguments the specs reach,
    across all three regimes."""

    def test_pair_matches_scipy_over_envelope(self):
        orders, xs = envelope_points(np.random.default_rng(41), 1500)
        # scipy's own error exceeds 1e-11 where it forms the prefactor
        # directly; those points are pinned by test_frozen_high_precision
        direct = (orders >= 200.0) & (np.abs(xs - orders) > 0.4 * orders)
        assert_pair_matches_scipy(orders[~direct], xs[~direct], 1e-11)
        assert_pair_matches_scipy(orders[direct], xs[direct], 1e-10)

    def test_frozen_high_precision(self):
        for order, x, want_p, want_q in FROZEN_GAMMA_PAIRS:
            assert reg_lower_gamma(order, x) == pytest.approx(want_p, rel=1e-11)
            assert reg_upper_gamma(order, x) == pytest.approx(want_q, rel=1e-11)

    @pytest.mark.parametrize("order", [100.0, 150.0, 2000.0, 2057.0, 5000.0, 1e4])
    @pytest.mark.parametrize("edge", [-0.3, 0.3])
    def test_regimes_agree_at_window_edges(self, order, edge):
        assert specfun._TEMME_MAX_SIGMA == 0.3
        offsets = np.array([-1e-6, -1e-12, 0.0, 1e-12, 1e-6])
        xs = order * (1.0 + edge) * (1.0 + offsets)
        inside = np.abs(xs - order) < 0.3 * order
        assert inside.any() and not inside.all()
        for x in xs:
            temme = specfun._temme_pair(order, float(x))
            classic = specfun._classic_pair(order, float(x))
            for a, b in zip(temme, classic):
                assert abs(a - b) <= 1e-12 * b or b < 1e-290, (order, x)
        assert_pair_matches_scipy(np.full(xs.size, order), xs, 1e-11)

    def test_regimes_agree_at_least_order(self):
        assert specfun._TEMME_MIN_ORDER == 100.0
        for order in (100.0 * (1.0 - 1e-12), 100.0, 100.0 * (1.0 + 1e-9)):
            for sigma in np.linspace(-0.29, 0.29, 13):
                x = order * (1.0 + sigma)
                temme = specfun._temme_pair(order, x)
                classic = specfun._classic_pair(order, x)
                for a, b in zip(temme, classic):
                    assert abs(a - b) <= 1e-12 * b, (order, x)


def _stirling_coefficients(count):
    """gamma_0..gamma_{count-1} of Gamma*(z) ~ sum_k gamma_k z^-k, the
    exponential of log Gamma*(z) = sum_m B_2m / (2m (2m - 1) z^(2m-1))."""
    bernoulli = [Fraction(1)]
    for n in range(1, count + 1):
        bernoulli.append(
            -sum(math.comb(n + 1, j) * bernoulli[j] for j in range(n)) / (n + 1))
    log_series = [Fraction(0)] * count
    for j in range(1, count, 2):
        m = (j + 1) // 2
        log_series[j] = bernoulli[2 * m] / (2 * m * (2 * m - 1))
    gamma = [Fraction(1)]
    for n in range(1, count):
        gamma.append(sum(j * log_series[j] * gamma[n - j] for j in range(1, n + 1)) / n)
    return gamma


def _temme_d0(count):
    """d_{0,n} for n < count: c_0 = 1/sigma - 1/eta as a series in eta.

    sigma(eta) = sum a_n eta^n reverts eta^2 / 2 = sigma - log(1 + sigma);
    differentiating gives sigma sigma' = eta (1 + sigma), whose eta^n
    coefficient fixes a_n. Then c_0 = (eta / sigma - 1) / eta.
    """
    a = [Fraction(0), Fraction(1)]
    for n in range(2, count + 3):
        cross = sum((n + 1 - i) * a[i] * a[n + 1 - i] for i in range(2, n))
        a.append((a[n - 1] - cross) / (n + 1))
    ratio = a[1:]  # sigma / eta
    inverse = [Fraction(1)]  # eta / sigma
    for n in range(1, len(ratio)):
        inverse.append(-sum(ratio[j] * inverse[n - j] for j in range(1, n + 1)))
    return inverse[1 : count + 1]


def temme_coefficients(rows, columns):
    """Exact d_{k,n} by DLMF 8.12.12:
    d_{k,n} = (n + 2) d_{k-1,n+2} + (-1)^k gamma_k d_{0,n}."""
    gamma = _stirling_coefficients(rows + 1)
    d0 = _temme_d0(columns + 2 * rows)
    table = [d0]
    for k in range(1, rows):
        prev = table[-1]
        # c_k is analytic at eta = 0 exactly when this pole cancels
        assert prev[1] + (-1) ** k * gamma[k] == 0
        table.append([(n + 2) * prev[n + 2] + (-1) ** k * gamma[k] * d0[n]
                      for n in range(len(prev) - 2)])
    return [row[:columns] for row in table]


class TestTemmeCoefficients:
    def test_first_row_matches_dlmf(self):
        exact = temme_coefficients(1, 4)[0]
        assert exact == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135),
                         Fraction(1, 864)]

    def test_committed_literals_regenerate(self):
        table = specfun._TEMME_D
        exact = temme_coefficients(len(table), len(table[0]))
        for k, (row, exact_row) in enumerate(zip(table, exact)):
            assert len(row) == len(exact_row)
            for n, (value, want) in enumerate(zip(row, exact_row)):
                # correctly rounded: within half an ulp
                assert abs(Fraction(value) - want) <= Fraction(math.ulp(value)) / 2, (k, n)

    def test_table_covers_the_window(self):
        # the entries just past the committed table are below the
        # tolerance everywhere in the window
        table = specfun._TEMME_D
        rows, columns = len(table), len(table[0])
        exact = temme_coefficients(rows + 1, columns + 4)
        eta_max = math.sqrt(-0.6 - 2.0 * math.log1p(-0.3))
        for k, row in enumerate(exact):
            scale = specfun._TEMME_MIN_ORDER ** -k
            for n, d in enumerate(row):
                if k == rows or n >= columns:
                    assert abs(float(d)) * eta_max**n * scale < specfun._TEMME_TOLERANCE

    def test_row_reach_descends(self):
        # the evaluation stops at the first row out of reach
        reach = [r for r, _ in specfun._TEMME_ROWS]
        assert reach == sorted(reach, reverse=True)
        assert reach[-1] >= specfun._TEMME_MIN_ORDER


def _order_and_boundary(data):
    """An order and one x where the gamma pair switches regime or method."""
    order = data.draw(st.floats(0.5, 1e4), label="order")
    if order >= 100.0:
        sigma = data.draw(st.sampled_from([-0.5, -0.3, 0.3]), label="sigma")
        return order, order * (1.0 + sigma)
    return order, order + 1.0


class TestGammaProperties:
    @settings(max_examples=150, deadline=None)
    @given(order=st.floats(0.5, 1e4), log_ratio=st.floats(-6.0, 2.5))
    def test_lower_plus_upper_is_one(self, order, log_ratio):
        x = order * math.exp(log_ratio)
        assert abs(reg_lower_gamma(order, x) + reg_upper_gamma(order, x) - 1.0) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), step=st.floats(1e-10, 1e-3))
    def test_monotone_across_regime_boundaries(self, data, step):
        order, boundary = _order_and_boundary(data)
        xs = [boundary * (1.0 + i * step) for i in range(-3, 4)]
        lower = [reg_lower_gamma(order, x) for x in xs]
        upper = [reg_upper_gamma(order, x) for x in xs]
        for a, b in zip(upper, upper[1:]):
            assert b <= a * (1.0 + 1e-15)
        for a, b in zip(lower, lower[1:]):
            assert a <= b * (1.0 + 1e-15)

    @settings(max_examples=150, deadline=None)
    @given(order=st.floats(0.5, 1e4), b=st.floats(0.0, 200.0))
    def test_marcum_at_zero_noncentrality_is_gamma_tail(self, order, b):
        assert marcum_q(order, 0.0, b) == reg_upper_gamma(order, b * b / 2.0)


class TestMarcumQ:
    def test_zero_noncentrality_reduces_to_gamma_tail(self):
        assert marcum_q(1.0, 0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_zero_threshold(self):
        assert marcum_q(3.0, 1.5, 0.0) == 1.0

    def test_frozen_monte_carlo_oracle(self):
        assert abs(marcum_q(2.0, 1.0, 2.0) - MC_MARCUM_2_1_2) <= 4 * MC_MARCUM_2_1_2_SE

    def test_reduction_identity_grid(self):
        for u in [0.5, 1.0, 2.0, 7.5, 50.0]:
            for b in [0.0, 0.5, 2.0, 10.0, 30.0]:
                assert marcum_q(u, 0.0, b) == pytest.approx(
                    reg_upper_gamma(u, b * b / 2.0), abs=1e-9
                )

    def test_monotone_in_a(self):
        grid_a = np.linspace(0.0, 20.0, 41)
        for u in [0.5, 1.0, 5.0, 20.0]:
            for b in [0.5, 3.0, 10.0]:
                values = [marcum_q(u, float(a), b) for a in grid_a]
                assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    def test_monotone_in_b(self):
        grid_b = np.linspace(0.0, 20.0, 41)
        for u in [0.5, 1.0, 5.0, 20.0]:
            for a in [0.0, 1.0, 8.0]:
                values = [marcum_q(u, a, float(b)) for b in grid_b]
                assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_against_noncentral_chisquare_tail(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            u = rng.uniform(0.3, 50.0)
            a = rng.uniform(0.01, 30.0)
            b = rng.uniform(0.0, 30.0)
            ref = stats.ncx2.sf(b * b, 2.0 * u, a * a)
            assert marcum_q(u, a, b) == pytest.approx(ref, abs=1e-8)

    def test_against_noncentral_chisquare_tail_to_order_5000(self):
        """The pinned envelope: order log-uniform on [0.5, 5000] (and the
        bundled specs' 2000), a^2 uniform on [0, order + 50], b^2 within
        8 standard deviations of the mean 2 order + a^2."""
        rng = np.random.default_rng(23)
        orders = np.concatenate(
            [np.exp(rng.uniform(math.log(0.5), math.log(5000.0), 300)),
             np.full(20, 2000.0)])
        lam = rng.uniform(0.0, orders + 50.0)
        mean = 2.0 * orders + lam
        sd = np.sqrt(4.0 * orders + 4.0 * lam)
        b2 = np.maximum(mean + rng.uniform(-8.0, 8.0, orders.size) * sd, 0.0)
        ref = stats.ncx2.sf(b2, 2.0 * orders, lam)
        for u, l, t, want in zip(orders, lam, b2, ref):
            got = marcum_q(float(u), math.sqrt(l), math.sqrt(t))
            assert abs(got - want) <= 1e-10, (u, l, t)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            v = marcum_q(rng.uniform(0.3, 50), rng.uniform(0, 30), rng.uniform(0, 30))
            assert 0.0 <= v <= 1.0

    def test_half_integer_orders(self):
        for u in [0.5, 1.5, 2.5, 10.5]:
            ref = stats.ncx2.sf(9.0, 2.0 * u, 4.0)
            assert marcum_q(u, 2.0, 3.0) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize(
        "order,a,b",
        [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, -0.1, 1.0), (1.0, 1.0, -0.1),
         (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0)],
    )
    def test_domain(self, order, a, b):
        with pytest.raises(ValueError):
            marcum_q(order, a, b)


def test_budget_constants_documented():
    assert MAX_ITERATIONS == 10_000
    assert TERM_TOLERANCE == 1e-14
