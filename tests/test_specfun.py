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
  (scipy's Q at (9084, 12807.734999999999) is 5.8e-12 off).

* FROZEN_MARCUM_*: Q_order(a, b) from mpmath 1.3 at 40 significant digits,
  rounded to double, at the exact doubles a and b listed: the Poisson
  mixture sum_j e^-x x^j / j! Q(order + j, y), x = a^2/2, y = b^2/2, with
  Q(order, y) from ``gammainc`` and each next term by the upward
  recurrence, summed until the terms fall below 1e-50 of the sum past the
  summands' peak (cross-checked at several points against mpmath
  quadrature of the noncentral chi density, to 1e-38). The sets:

  - FIG3: the bundled fig3's nominal p_d, order 5, b = sqrt(30) and
    a = sqrt(2 * 10 ** (dB / 10)) for dB = -20..0;
  - GRID: 16 points of the closed-form benchmark's order-2000 grid law,
    numpy ``default_rng(2000)``: whole-window SNR S = 2 * 100 ** U,
    a = sqrt(2 S), b^2 uniform over [2u - 3 sqrt(4u), 2 (u + 200) +
    3 sqrt(4u + 1600)];
  - TAILS: both sides of the decisive bounds, P near 2^-54 at 8, 9 and 11
    standard deviations below the mean and Q with Chernoff exponent near
    -600, -660, -700 and -750 above it, at orders 1, 5, 2000 and 5000;
  - FAR: orders 1, 5, 2000 and 5000 at x = 1e3 and 3e4 with y at -7,
    -0.5, 0, 0.5, 6 and 30 standard deviations from the mean, and both
    sides of the series/contour switch (x s = 400) at orders 5 and 2000;
  - REACH: the two P-side series calls, found by random search, whose
    terms beyond the first start still counted, so the start moved out
    once.

* FROZEN_NOMINAL_Q: (x, Q(2000, x)) from mpmath 1.3 ``gammainc`` at 40
  significant digits (checked against 60), rounded to double, at every
  distinct nominal point of the bundled exponential-family specs:
  x = 2000 * 1.062 for p_f and x = 2000 * 1.062 / (1 + 10 ** (dB / 10)),
  dB = -20..0, for fig2's p_d. fig4's p_f and its p_d at -10 dB are the
  same two points.

Temme's coefficients d_{k,n} are regenerated here in exact rational
arithmetic (stdlib ``fractions`` only) and compared with the committed
float literals.
"""

import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from coopsense import specfun
from coopsense.specfun import (
    MAX_ITERATIONS,
    TERM_TOLERANCE,
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
    (9084.0, 12807.734999999999, 1.0, 1.2599958778080323e-264),
    (9084.0, 12851.202835207432, 1.0, 3.837982083109876e-270),
]

FROZEN_MARCUM_FIG3 = [
    0.0008761447143417464, 0.0008812423152634403, 0.0008876878164769695,
    0.0008958467340734416, 0.0009061890144630451, 0.0009193219314610849,
    0.000936035059334626, 0.000957362662309409, 0.0009846716523579423,
    0.0010197877775338072, 0.0010651800594508446, 0.0011242357013622804,
    0.0012016782894541168, 0.0013042175286048234, 0.001441580800018471,
    0.0016281876069617538, 0.001885929519377354, 0.0022488915298167576,
    0.00277155326240317, 0.0035433470351988686, 0.004715016427349336,
]
FROZEN_MARCUM_GRID = [
    (2000.0, 7.519107856355656, 66.05548829521967, 0.00046937222495882134),
    (2000.0, 2.128470814874679, 64.95471584223804, 0.009080378205944258),
    (2000.0, 8.87561532660676, 63.17096105147077, 0.8332044170404862),
    (2000.0, 18.301560775296977, 64.23637132061977, 0.985623966599265),
    (2000.0, 6.85953987924664, 61.574015119833845, 0.9980116393442411),
    (2000.0, 2.549255683665527, 65.22552510140513, 0.0032728220064289167),
    (2000.0, 3.504743651290599, 66.67815980997406, 1.4522568594066992e-06),
    (2000.0, 2.010405691586326, 63.914486461989284, 0.18238212937622833),
    (2000.0, 4.655931474034429, 61.58707106511629, 0.9951409343045665),
    (2000.0, 2.6218601530473067, 66.93387051032008, 1.7446264921425287e-07),
    (2000.0, 6.219366065815108, 63.15556189314718, 0.7085485021563838),
    (2000.0, 14.758777208283528, 66.33852319658351, 0.027254949095062486),
    (2000.0, 7.44788904522314, 64.57722714641619, 0.1036224452355662),
    (2000.0, 3.9999608123784935, 64.85651109649419, 0.018097295254699906),
    (2000.0, 2.832859423363319, 65.43049869029048, 0.0014024904039220553),
    (2000.0, 8.04751771640175, 63.64736030252212, 0.5573701650523214),
]
FROZEN_MARCUM_TAILS = [
    (5.0, 141.4213562373095, 5.477225575051661, 1.0),
    (1.0, 4.47213595499958, 0.044721359549995794, 0.9999999543955359),
    (1.0, 4.47213595499958, 39.14442984956518, 3.0525188196470487e-263),
    (1.0, 4.47213595499958, 40.83434557442991, 2.5486782501776845e-289),
    (1.0, 4.47213595499958, 41.91858477949424, 1.051406750510796e-306),
    (1.0, 4.47213595499958, 43.23123042247186, 0.0),
    (5.0, 14.142135623730951, 0.044721359549995794, 1.0),
    (5.0, 14.142135623730951, 48.961421007511994, 1.645961111661871e-263),
    (5.0, 14.142135623730951, 50.64860941246484, 1.351108262874261e-289),
    (5.0, 14.142135623730951, 51.73116120866818, 5.514869313035408e-307),
    (5.0, 14.142135623730951, 53.04182576614184, 0.0),
    (2000.0, 20.0, 57.63874142601833, 1.0),
    (2000.0, 20.0, 59.314278994168475, 1.0),
    (2000.0, 20.0, 60.13454317037241, 1.0),
    (2000.0, 20.0, 93.312788115791, 2.4078188065771292e-263),
    (2000.0, 20.0, 94.69131824702707, 1.989374249109556e-289),
    (2000.0, 20.0, 95.578330068825, 8.151997861886694e-307),
    (2000.0, 20.0, 96.65483076769166, 0.0),
    (5000.0, 77.45966692414834, 117.01547134471436, 1.0),
    (5000.0, 77.45966692414834, 118.79454563781002, 1.0),
    (5000.0, 77.45966692414834, 119.6741653111805, 0.9999999999999999),
    (5000.0, 77.45966692414834, 155.89525902239512, 2.6785205698359344e-263),
    (5000.0, 77.45966692414834, 157.3613411577673, 2.2234832179965496e-289),
    (5000.0, 77.45966692414834, 158.3032793363433, 9.138687025031604e-307),
    (5000.0, 77.45966692414834, 159.4449998897768, 0.0),
]
FROZEN_MARCUM_FAR = [
    (1.0, 44.721359549995796, 37.07860176451687, 0.9999999999999903),
    (1.0, 44.721359549995796, 44.22977561133905, 0.69245709103497),
    (1.0, 44.721359549995796, 44.73253849269008, 0.5000003716646821),
    (1.0, 44.721359549995796, 45.22971312500885, 0.3095115349343276),
    (1.0, 44.721359549995796, 50.3758215064248, 8.310428608845278e-09),
    (1.0, 44.721359549995796, 68.44426171883116, 1.2949746500661392e-124),
    (1.0, 244.94897427831782, 237.84806089485605, 0.9999999999993896),
    (1.0, 244.94897427831782, 244.45050624840826, 0.6916424692600873),
    (1.0, 244.94897427831782, 244.95101551126504, 0.5000000022620417),
    (1.0, 244.94897427831782, 245.4505041650901, 0.30871685907922525),
    (1.0, 244.94897427831782, 250.8792537033762, 1.5307840843735237e-09),
    (1.0, 244.94897427831782, 273.30934798102874, 3.293120862618192e-177),
    (5.0, 44.721359549995796, 37.19030560559207, 0.9999999999999892),
    (5.0, 44.721359549995796, 44.33083321623364, 0.6884988824632103),
    (5.0, 44.721359549995796, 44.83302354291979, 0.4955486803089086),
    (5.0, 44.721359549995796, 45.32965063128632, 0.3056081158682964),
    (5.0, 44.721359549995796, 50.47104829755089, 7.791309084222762e-09),
    (5.0, 44.721359549995796, 68.53198947403011, 8.848653759921169e-125),
    (5.0, 244.94897427831782, 237.86670947439993, 0.9999999999993803),
    (5.0, 244.94897427831782, 244.4688954033356, 0.6909229351197798),
    (5.0, 244.94897427831782, 244.9693858423946, 0.4991857173301846),
    (5.0, 244.94897427831782, 245.46885582548543, 0.30799915836621866),
    (5.0, 244.94897427831782, 250.89740963843272, 1.512058954799997e-09),
    (5.0, 244.94897427831782, 273.32682052147305, 3.1094351639423063e-177),
    (2000.0, 44.721359549995796, 71.51616778849979, 0.9999999999998983),
    (2000.0, 44.721359549995796, 77.05033709722906, 0.6897202365972015),
    (2000.0, 44.721359549995796, 77.45966692414834, 0.49737169306102336),
    (2000.0, 44.721359549995796, 77.86684501893836, 0.3068005286532699),
    (2000.0, 44.721359549995796, 82.21281310380039, 3.6221950076558194e-09),
    (2000.0, 44.721359549995796, 98.96834439456919, 9.669200904841966e-145),
    (2000.0, 244.94897427831782, 245.99599206605615, 0.9999999999993676),
    (2000.0, 244.94897427831782, 252.48960772285307, 0.6909374146935959),
    (2000.0, 244.94897427831782, 252.98221281347034, 0.49920751697081767),
    (2000.0, 244.94897427831782, 253.47386056940817, 0.3080135364408694),
    (2000.0, 244.94897427831782, 258.82035450002246, 1.4954335582210118e-09),
    (2000.0, 244.94897427831782, 280.9624165570664, 1.0374885109580223e-177),
    (5000.0, 44.721359549995796, 104.06092428405724, 0.9999999999997623),
    (5000.0, 44.721359549995796, 109.16196222744712, 0.690259479544214),
    (5000.0, 44.721359549995796, 109.54451150103323, 0.49818350708850206),
    (5000.0, 44.721359549995796, 109.92572948429047, 0.30733594685543797),
    (5000.0, 44.721359549995796, 114.03504738386744, 2.4853584836703005e-09),
    (5000.0, 44.721359549995796, 130.46056936563036, 3.586365285731295e-157),
    (5000.0, 244.94897427831782, 257.7415107049795, 0.9999999999993497),
    (5000.0, 244.94897427831782, 264.0928795411197, 0.6909574375071039),
    (5000.0, 244.94897427831782, 264.5751311064591, 0.49923766968373556),
    (5000.0, 244.94897427831782, 265.0565052506345, 0.30803342872076306),
    (5000.0, 244.94897427831782, 270.2950456596563, 1.4726845980495478e-09),
    (5000.0, 244.94897427831782, 292.0566016045149, 2.2372229103297476e-178),
    (5.0, 28.24889378365107, 25.258196139398848, 0.9992087661361788),
    (5.0, 28.24889378365107, 31.27336770774227, 0.002032233701904906),
    (5.0, 28.319604517012593, 25.3289069535955, 0.9992075565046116),
    (5.0, 28.319604517012593, 31.344002178026045, 0.0020304136391817887),
    (2000.0, 28.24889378365107, 66.9374577667055, 0.9988939270062374),
    (2000.0, 28.24889378365107, 71.52186202644977, 0.0016161683034204568),
    (2000.0, 28.319604517012593, 66.9656365128505, 0.9988938657020517),
    (2000.0, 28.319604517012593, 71.55140478305638, 0.0016160931787681959),
]
FROZEN_MARCUM_REACH = [
    (2333.0, 1.3792703654027885, 67.86675964314921, 0.7381181612127115),
    (919.0, 1.3476030127337015, 39.99626499871488, 0.9999820066497803),
]
FROZEN_NOMINAL_Q = [
    (2124.0, 0.00321678547095747),
    (2102.970297029703, 0.01155717649722986),
    (2097.592870319564, 0.015575096295941063),
    (2090.862069398354, 0.02225870706496644),
    (2082.4496665746415, 0.03390127721408293),
    (2071.9548473230866, 0.055078202852923495),
    (2058.892114612636, 0.09482836058984942),
    (2042.679465754091, 0.16976934093187582),
    (2022.628444523351, 0.30448710224121556),
    (1997.9385968497215, 0.5154176457644962),
    (1967.7000308062738, 0.7638404014729613),
    (1930.9090909090908, 0.9400985799831615),
    (1886.5033049912795, 0.9950604839459007),
    (1833.4221686067817, 0.9999348875888231),
    (1770.6990845456226, 0.9999999508927198),
    (1697.585741068572, 0.9999999999994948),
    (1613.7024722002625, 1.0),
    (1519.196843228498, 1.0),
    (1414.8801378145513, 1.0),
    (1302.3026060052757, 1.0),
    (1183.7299101111098, 1.0),
    (1062.0, 1.0),
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


class TestRegUpperGamma:
    def test_full_mass_at_zero(self):
        assert reg_upper_gamma(1.0, 0.0) == 1.0

    def test_underflowing_ratio_is_exact(self):
        # x / order underflows to 0.0: the log prefactor is -inf, so the
        # pair is exactly (0, 1)
        assert reg_upper_gamma(1e10, 5e-324) == 1.0
        assert reg_lower_gamma(1e10, 5e-324) == 0.0

    def test_order_one_is_exp(self):
        assert reg_upper_gamma(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_frozen_quadrature_oracle(self):
        assert reg_upper_gamma(5.0, 15.0) == pytest.approx(
            QUAD_REG_UPPER_5_15, abs=1e-10
        )

    def test_quadrature_grid(self):
        for order in [1.0, 2.0, 3.0, 5.0, 20.0, 200.0]:
            for x in [0.0, 0.5, 1.0, 5.0, 15.0, 50.0, 400.0]:
                assert reg_upper_gamma(order, x) == pytest.approx(
                    quad_reg_upper(order, x), abs=1e-8
                )

    def test_recurrence_identity(self):
        # Q(u+1, x) - Q(u, x) = x^u e^-x / Gamma(u+1)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            u = float(rng.integers(1, 51))
            x = rng.uniform(0.0, 100.0)
            lhs = reg_upper_gamma(u + 1.0, x) - reg_upper_gamma(u, x)
            rhs = 0.0
            if x > 0.0:
                rhs = math.exp(u * math.log(x) - x - math.lgamma(u + 1.0))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_complement(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            u = float(rng.integers(1, 151))
            x = rng.uniform(0.0, 300.0)
            assert reg_lower_gamma(u, x) + reg_upper_gamma(u, x) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            v = reg_upper_gamma(rng.integers(1, 201), rng.uniform(0, 400))
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize(
        "order,x", [(0.0, 1.0), (-2.0, 1.0), (0.5, 1.0), (2**53 + 2, 1.0), (1.0, -0.5),
                    (math.nan, 1.0), (1.0, math.inf)]
    )
    def test_domain(self, order, x):
        with pytest.raises(ValueError):
            reg_upper_gamma(order, x)


def envelope_points(rng, count):
    """Seeded (order, x) pairs over the pinned envelope: integer orders,
    log-uniform on [1, 1e4] and rounded, plus the bundled specs' order 2000
    and the Marcum mode orders 2000 + j; x within 50% of the order for half
    the points, x / order log-uniform on [e^-6, e^2.5] for the rest."""
    orders = np.concatenate([
        np.rint(np.exp(rng.uniform(0.0, math.log(1e4), count - 40))),
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


def temme_pair(order, x):
    """(P, Q) from Temme's expansion, each side formed on its own."""
    return specfun._temme_side(order, x, False), specfun._temme_side(order, x, True)


def classic_pair(order, x):
    """(P, Q) from the series or the continued fraction."""
    return specfun._classic_side(order, x, False), specfun._classic_side(order, x, True)


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
            for a, b in zip(temme_pair(order, float(x)), classic_pair(order, float(x))):
                assert abs(a - b) <= 1e-12 * b or b < 1e-290, (order, x)
        assert_pair_matches_scipy(np.full(xs.size, order), xs, 1e-11)

    def test_regimes_agree_at_least_order(self):
        assert specfun._TEMME_LEAST_ORDER == 100.0
        for order in (99.0, 100.0, 101.0):
            for sigma in np.linspace(-0.29, 0.29, 13):
                x = order * (1.0 + sigma)
                for a, b in zip(temme_pair(order, x), classic_pair(order, x)):
                    assert abs(a - b) <= 1e-12 * b, (order, x)


# The classic split returns Q = 1 without the lower series once this bound
# on log P falls below half of 2^-54.
DECIDED_CUTOFF = specfun._LOG_ROUNDS_TO_ONE - math.log(2.0)


def decided_bound(order, x):
    """log of P(order, x) <= exp(log prefactor) / order / (1 - x / (order + 1)),
    the bound that decides Q = 1 for x < order + 1."""
    return (specfun._log_prefactor(order, x) - math.log(order)
            - math.log1p(-x / (order + 1.0)))


def x_at_bound(order, target):
    """The largest double x with decided_bound(order, x) below ``target``
    (the bound rises with x on (0, order + 1)), or None where even the
    least positive double lies above it."""
    lo, hi = 5e-324, order + 1.0
    if decided_bound(order, lo) >= target:
        return None
    while math.nextafter(lo, hi) < hi:
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        mid = min(max(mid, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if decided_bound(order, mid) < target:
            lo = mid
        else:
            hi = mid
    return lo


# fig2's nominal p_d at -2 dB, outside Temme's window (x / order = 0.65)
FIG2_PD_MINUS_2_DB = 2000 * 1.062 / (1 + 10 ** (-2 / 10))


class TestDecidedUpperTail:
    """Where the lower series would give a P that 1 - P rounds away, the
    classic split returns Q = 1 from a bound, with the series' own bits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        order=st.integers(1, 10**4).map(float),
        share=st.floats(0.0, 1.0, exclude_max=True),
        offset=st.one_of(st.none(), st.floats(-3.0, 3.0)),
        steps=st.integers(-3, 3),
    )
    def test_shortcut_keeps_the_series_bits(self, order, share, offset, steps):
        # x uniform below the series' bound order + 1, or where the bound
        # lies `offset` from the cutoff, moved by `steps` doubles
        x = share * (order + 1.0)
        edge = None if offset is None else x_at_bound(order, DECIDED_CUTOFF + offset)
        if edge is not None:
            x = edge
            for _ in range(abs(steps)):
                x = math.nextafter(x, math.inf if steps > 0 else 0.0)
        assert x < order + 1.0
        decided = [specfun._classic_side(order, x, True), reg_upper_gamma(order, x)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specfun, "_LOG_ROUNDS_TO_ONE", -math.inf)  # never decided
            summed = [specfun._classic_side(order, x, True), reg_upper_gamma(order, x)]
        assert [v.hex() for v in decided] == [v.hex() for v in summed], (order, x)

    @pytest.mark.parametrize("x", [1399.0, FIG2_PD_MINUS_2_DB])
    def test_decided_points_skip_the_series(self, monkeypatch, x):
        calls = []
        real = specfun._lower_series

        def spy(order, x):
            calls.append((order, x))
            return real(order, x)

        monkeypatch.setattr(specfun, "_lower_series", spy)
        assert decided_bound(2000.0, x) < DECIDED_CUTOFF
        assert reg_upper_gamma(2000, x) == 1.0
        assert calls == []
        # the small side itself is never decided: P still sums the series
        p = reg_lower_gamma(2000, x)
        assert calls == [(2000.0, x)]
        with mpmath.workdps(40):
            want = float(mpmath.gammainc(2000, 0, x, regularized=True))
        assert abs(p - want) <= 1e-12 * want, (x, p, want)


def mpmath_upper(order, x):
    """Q(order, x) at 40 significant digits, rounded to double."""
    with mpmath.workdps(40):
        return float(mpmath.gammainc(order, x, mpmath.inf, regularized=True))


class TestIntegerOrder:
    """Below order 100 the continued fraction terminates and is summed as a
    finite sum; an order that is not an integer is refused."""

    def test_finite_sum_matches_mpmath(self):
        # x from order + 1 (the fraction's least x) to 40 (order + 1), past
        # where Q underflows for the larger orders
        for order in range(1, 100):
            for x in (order + 1.0) * 40.0 ** np.linspace(0.0, 1.0, 15):
                want = mpmath_upper(order, float(x))
                got = reg_upper_gamma(order, float(x))
                if want >= 1e-290:
                    assert abs(got - want) <= 1e-11 * want, (order, x, got, want)
                else:
                    assert abs(got - want) <= 1e-290, (order, x, got, want)
                assert reg_lower_gamma(order, float(x)) == 1.0 - got

    @pytest.mark.parametrize("order", [0.5, 4.5, 5.0 - 1e-9, 5.0 + 1e-9, 98.5, 1e4 + 0.5])
    @pytest.mark.parametrize("function, args", [
        (reg_upper_gamma, (10.0,)), (reg_lower_gamma, (10.0,)), (marcum_q, (2.0, 3.0))])
    def test_real_order_rejected(self, order, function, args):
        # a finite sum of int(order) terms would be off by ~1e-9 relative
        # or more at these orders
        message = f"order must be an integer in [1, 2**53], got {order!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            function(order, *args)

    def test_marcum_series_at_integer_orders(self):
        rng = np.random.default_rng(50)
        for order in range(1, 51):
            for z in (-3.0, -1.0, 0.0, 1.0, 3.0):
                x = rng.uniform(0.1, 50.0)
                y = max(order + x + z * math.sqrt(order + 2.0 * x), 0.5)
                a, b = math.sqrt(2.0 * x), math.sqrt(2.0 * y)
                # the series region: the summands peak at x s below 400,
                # s the saddle of the mixture, and within 3 standard
                # deviations of the mean no Chernoff bound decides
                peak = 0.5 * (math.sqrt(order * order + 4.0 * x * y) - order)
                assert peak < specfun._FAR_FIELD_MODE
                want = mpmath_marcum(order, a, b)
                got = marcum_q(order, a, b)
                assert abs(got - want) <= 1e-12 * want, (order, a, b, got, want)


def mpmath_marcum(order, a, b):
    """Q_order(a, b) at 40 significant digits for integer order: the Poisson
    mixture sum_j e^-x x^j / j! Q(order + j, y), with Q(order + j + 1, y) =
    Q(order + j, y) + y^(order + j) e^-y / (order + j)!, summed until the
    terms past their peak, at j = x s for the mixture's saddle s, fall
    below 1e-50 of the sum (the terms are log-concave in j)."""
    with mpmath.workdps(40):
        x, y = mpmath.mpf(a) ** 2 / 2, mpmath.mpf(b) ** 2 / 2
        peak = (mpmath.sqrt(order**2 + 4 * x * y) - order) / 2
        q = mpmath.gammainc(order, y, mpmath.inf, regularized=True)
        step = y ** order * mpmath.exp(-y) / mpmath.factorial(order)
        weight = mpmath.exp(-x)
        total = weight * q
        j = 0
        while True:
            j += 1
            q += step
            step *= y / (order + j)
            weight *= x / j
            term = weight * q
            total += term
            if j > peak and term < total * mpmath.mpf(10) ** -50:
                return float(total)


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
            scale = specfun._TEMME_LEAST_ORDER ** -k
            for n, d in enumerate(row):
                if k == rows or n >= columns:
                    assert abs(float(d)) * eta_max**n * scale < specfun._TEMME_TOLERANCE

    def test_row_reach_descends(self):
        # the evaluation stops at the first row out of reach
        reach = [r for r, _ in specfun._TEMME_ROWS]
        assert reach == sorted(reach, reverse=True)
        assert reach[-1] >= specfun._TEMME_LEAST_ORDER

    def test_row_reach_pinned_on_every_python(self):
        # the reaches are plain left-to-right sums: the same bits whether or
        # not sum() compensates (it does from Python 3.12 on)
        assert [repr(r) for r, _ in specfun._TEMME_ROWS] == [
            "inf", "336119367190436.9", "22639563.408396248", "42927.99763543213",
            "3282.4205265631044", "525.3602289492326", "205.93407890611016",
        ]


def row_by_row_pair(order, x):
    """Temme's (P, Q) with sum_k c_k(eta) order^-k taken row by row: each
    c_k by Horner, then scaled and added."""
    sigma = (x - order) / order
    half_eta_sq = max(sigma - math.log1p(sigma), 0.0)
    eta = math.copysign(math.sqrt(2.0 * half_eta_sq), sigma)
    total, scale = 0.0, 1.0
    for reach, row in specfun._TEMME_ROWS:
        if order > reach:
            break
        c_k = 0.0
        for d in row:
            c_k = c_k * eta + d
        total += c_k * scale
        scale /= order
    r = math.exp(-order * half_eta_sq) * total / math.sqrt(2.0 * math.pi * order)
    y = eta * math.sqrt(0.5 * order)
    return 0.5 * math.erfc(-y) - r, 0.5 * math.erfc(y) + r


# both sides of every row reach below 1e6 (205/206, 525/526, 3282/3283,
# 42927/42928), the least order and the bundled specs' order
REACH_ORDERS = sorted(
    {100.0, 2000.0}
    | {float(math.floor(reach) + side)
       for reach, _ in specfun._TEMME_ROWS if reach < 1e6 for side in (0, 1)}
)


class TestTemmePolynomial:
    """The expansion's sum over rows as one polynomial per order."""

    @pytest.mark.parametrize("order", REACH_ORDERS)
    def test_matches_row_by_row_sum(self, order):
        for sigma in np.linspace(-0.3, 0.3, 121)[1:-1]:
            x = order * (1.0 + sigma)
            for a, b in zip(temme_pair(order, x), row_by_row_pair(order, x)):
                assert abs(a - b) <= 1e-15 * b or b < 1e-290, (order, x)

    def test_bundled_nominal_points(self):
        for x, want in FROZEN_NOMINAL_Q:
            assert abs(reg_upper_gamma(2000.0, x) - want) <= 1e-14 * want, x

    def test_cache_bounded_over_marcum_grid(self):
        # the grid's series start at many orders 2000 + j, one build each
        cache = specfun._temme_constants
        cache.cache_clear()
        rng = np.random.default_rng(2000)
        for signal in 2.0 * 100.0 ** rng.random(24):
            for b2 in rng.uniform(2 * 2000 - 3 * math.sqrt(8000),
                                  2 * 2200 + 3 * math.sqrt(9600), 24):
                marcum_q(2000.0, math.sqrt(2.0 * signal), math.sqrt(b2))
        info = cache.cache_info()
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize


def _order_and_boundary(data):
    """An order and one x where the gamma pair switches regime or method."""
    order = float(data.draw(st.integers(1, 10**4), label="order"))
    if order >= 100.0:
        sigma = data.draw(st.sampled_from([-0.5, -0.3, 0.3]), label="sigma")
        return order, order * (1.0 + sigma)
    return order, order + 1.0


class TestGammaProperties:
    @settings(max_examples=150, deadline=None)
    @given(order=st.integers(1, 10**4), log_ratio=st.floats(-6.0, 2.5))
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
    @given(order=st.integers(1, 10**4), b=st.floats(0.0, 200.0))
    def test_marcum_at_zero_noncentrality_is_gamma_tail(self, order, b):
        assert marcum_q(order, 0.0, b) == reg_upper_gamma(order, b * b / 2.0)


class TestMarcumQ:
    def test_zero_noncentrality_reduces_to_gamma_tail(self):
        assert marcum_q(1.0, 0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_zero_threshold(self):
        assert marcum_q(3.0, 1.5, 0.0) == 1.0

    # b = 0 has no branch of its own: a = 0 and a tiny a take the central
    # term Q(order, 0), and a larger a, up to the largest admitted, the P
    # side 1 - e^-x P(order, 0)
    @pytest.mark.parametrize("a", [0.0, 1e-150, 0.5, 1e150])
    @pytest.mark.parametrize("order", [1.0, 5.0, 2000.0, 2.0**53])
    def test_zero_threshold_through_every_branch(self, order, a):
        assert marcum_q(order, a, 0.0) == 1.0

    def test_frozen_monte_carlo_oracle(self):
        assert abs(marcum_q(2.0, 1.0, 2.0) - MC_MARCUM_2_1_2) <= 4 * MC_MARCUM_2_1_2_SE

    def test_reduction_identity_grid(self):
        for u in [1.0, 2.0, 3.0, 8.0, 50.0]:
            for b in [0.0, 0.5, 2.0, 10.0, 30.0]:
                assert marcum_q(u, 0.0, b) == pytest.approx(
                    reg_upper_gamma(u, b * b / 2.0), abs=1e-9
                )

    def test_monotone_in_a(self):
        grid_a = np.linspace(0.0, 20.0, 41)
        for u in [1.0, 2.0, 5.0, 20.0]:
            for b in [0.5, 3.0, 10.0]:
                values = [marcum_q(u, float(a), b) for a in grid_a]
                assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    def test_monotone_in_b(self):
        grid_b = np.linspace(0.0, 20.0, 41)
        for u in [1.0, 2.0, 5.0, 20.0]:
            for a in [0.0, 1.0, 8.0]:
                values = [marcum_q(u, a, float(b)) for b in grid_b]
                assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_against_noncentral_chisquare_tail(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            u = float(rng.integers(1, 51))
            a = rng.uniform(0.01, 30.0)
            b = rng.uniform(0.0, 30.0)
            ref = stats.ncx2.sf(b * b, 2.0 * u, a * a)
            assert marcum_q(u, a, b) == pytest.approx(ref, abs=1e-8)

    def test_against_noncentral_chisquare_tail_to_order_5000(self):
        """The pinned envelope: integer orders, log-uniform on [1, 5000] and
        rounded (and the bundled specs' 2000), a^2 uniform on
        [0, order + 50], b^2 within 8 standard deviations of the mean
        2 order + a^2."""
        rng = np.random.default_rng(23)
        orders = np.concatenate(
            [np.rint(np.exp(rng.uniform(0.0, math.log(5000.0), 300))),
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
            v = marcum_q(rng.integers(1, 51), rng.uniform(0, 30), rng.uniform(0, 30))
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize(
        "order,a,b",
        [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (5.5, 1.0, 1.0), (1.0, -0.1, 1.0),
         (1.0, 1.0, -0.1), (5.0, 1e151, 1.0), (5.0, 1.0, 1e151), (math.nan, 1.0, 1.0),
         (1.0, math.inf, 1.0)],
    )
    def test_domain(self, order, a, b):
        with pytest.raises(ValueError):
            marcum_q(order, a, b)


def assert_marcum_matches(points):
    """Within 1e-12 relative of the 40-digit value wherever that is at
    least 1e-290; below it, within 1e-290 absolute."""
    for order, a, b, want in points:
        got = marcum_q(order, a, b)
        if want >= 1e-290:
            assert abs(got - want) <= 1e-12 * want, (order, a, b, got, want)
        else:
            assert abs(got - want) <= 1e-290, (order, a, b, got, want)


def chernoff_exponent(order, a, b):
    """log of the Chernoff bound on the small side, at 40 digits: the
    minimum over s > 0 of x (s - 1) + y (1/s - 1) + order log s."""
    with mpmath.workdps(40):
        order, x, y = mpmath.mpf(order), mpmath.mpf(a) ** 2 / 2, mpmath.mpf(b) ** 2 / 2
        s = (mpmath.sqrt(order**2 + 4 * x * y) - order) / (2 * x)
        return float(x * (s - 1) + y * (1 / s - 1) + order * mpmath.log(s))


class TestMarcumFrozen:
    """Marcum Q against 40-digit values in every region."""

    def test_fig3_nominal_points(self):
        points = [(5.0, math.sqrt(2.0 * 10.0 ** (db / 10.0)), math.sqrt(30.0), want)
                  for db, want in zip(range(-20, 1), FROZEN_MARCUM_FIG3)]
        assert len(points) == 21
        assert_marcum_matches(points)

    def test_order_2000_grid_sample(self):
        assert_marcum_matches(FROZEN_MARCUM_GRID)

    def test_around_the_decisive_tails(self):
        assert_marcum_matches(FROZEN_MARCUM_TAILS)

    def test_far_field(self):
        assert specfun._FAR_FIELD_MODE == 400.0
        assert_marcum_matches(FROZEN_MARCUM_FAR)

    @pytest.mark.parametrize(
        "order, a, b, want",
        [
            # fig3's nominal p_d at 60, 80 and 400 dB
            (5.0, math.sqrt(2e6), math.sqrt(30.0), 1.0),
            (5.0, math.sqrt(2e8), math.sqrt(30.0), 1.0),
            (5.0, math.sqrt(2e40), math.sqrt(30.0), 1.0),
            (1.0, 3.0, 50.0, 0.0),
            (2000.0, 20.0, 100.0, 0.0),
            (5000.0, 1e4, 9.9e3, 1.0),
        ],
    )
    def test_decisive_answers_are_exact(self, order, a, b, want):
        # the 40-digit Chernoff bound on the small side is below half an
        # ulp of the answer: 2^-54 under 1, 2^-1075 above 0
        limit = -54 if want == 1.0 else -1075
        assert chernoff_exponent(order, a, b) < limit * math.log(2.0)
        assert marcum_q(order, a, b) == want


def spy_scaled_gamma_side(monkeypatch):
    """Record the arguments of every ``_scaled_gamma_side`` call: one per
    start of the Marcum series."""
    calls = []
    real = specfun._scaled_gamma_side

    def spy(order, x, log_pref, upper):
        calls.append((order, x, upper))
        return real(order, x, log_pref, upper)

    monkeypatch.setattr(specfun, "_scaled_gamma_side", spy)
    return calls


class TestMarcumSeries:
    """The branches of ``_marcum_series`` and ``_scaled_gamma_side``."""

    @pytest.mark.parametrize("order, a, b, want", FROZEN_MARCUM_REACH)
    def test_start_moves_out_when_the_terms_beyond_it_count(
        self, monkeypatch, order, a, b, want
    ):
        calls = spy_scaled_gamma_side(monkeypatch)
        assert want == mpmath_marcum(order, a, b)
        assert marcum_q(order, a, b) == want
        # the P side started twice: the second start is the doubled reach
        assert [upper for _, _, upper in calls] == [False, False]
        assert calls[1][0] > calls[0][0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        order=st.integers(1, 10**5),
        x=st.floats(1e-3, 400.0),
        z=st.floats(0.0, 8.0),
    )
    def test_p_side_never_needs_the_fraction(self, order, x, z):
        # the P side (y <= x + order) starts at order + mode + reach with
        # mode = int(x s), s <= 1, and y = x s^2 + order s <= order + x s,
        # so its gamma argument stays below the fraction's order + 1
        # (or inside Temme's window), where _scaled_gamma_side has no P
        y = max(x + order - z * math.sqrt(order + 2.0 * x), 0.0)
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_scaled_gamma_side(patch)
            value = marcum_q(order, math.sqrt(2.0 * x), math.sqrt(2.0 * y))
        assert 0.0 <= value <= 1.0
        for n, y_arg, upper in calls:
            temme = (n >= specfun._TEMME_LEAST_ORDER
                     and abs(y_arg - n) < specfun._TEMME_MAX_SIGMA * n)
            assert upper or temme or y_arg < n + 1.0, (n, y_arg)


class TestIterationBudget:
    """``MAX_ITERATIONS`` bounds every loop; running out raises."""

    def test_lower_series(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_ITERATIONS", 1)
        with pytest.raises(specfun.ConvergenceError, match=re.escape(
                "lower gamma series did not converge for order=5.0, x=5.0")):
            reg_lower_gamma(5.0, 5.0)

    def test_continued_fraction(self, monkeypatch):
        # from order 100 on, outside Temme's window, the fraction runs
        monkeypatch.setattr(specfun, "MAX_ITERATIONS", 1)
        with pytest.raises(specfun.ConvergenceError, match=re.escape(
                "upper gamma continued fraction did not converge for order=250.0, x=400.0")):
            reg_upper_gamma(250, 400.0)

    @pytest.mark.parametrize("budget, starts", [(4, 0), (20, 1)])
    def test_marcum_series(self, monkeypatch, budget, starts):
        # a budget below the first reach never starts the series; one above
        # it starts once, and the Q side's march runs out of steps
        calls = spy_scaled_gamma_side(monkeypatch)
        monkeypatch.setattr(specfun, "MAX_ITERATIONS", budget)
        with pytest.raises(specfun.ConvergenceError, match=re.escape(
                "marcum_q series did not converge for order=5.0, x=2.0, y=12.5")):
            marcum_q(5.0, 2.0, 5.0)
        assert [upper for _, _, upper in calls] == [True] * starts


class TestMarcumCost:
    def test_every_call_under_a_millisecond(self):
        """Orders 1 to 5000, x log-spaced up to 5e299 (a = 1e150, the largest
        admitted), y from 0 to 100 times the mean and at most 5e299: the
        slowest call, best of three, stays under 1 ms."""
        largest = 5e299  # sqrt(2 * 5e299) = 1e150
        slowest = 0.0
        for order in (1.0, 5.0, 2000.0, 5000.0):
            step = (math.log(largest) - math.log(1e-3)) / 47
            for k in range(48):
                lam = largest * math.exp((k - 47) * step)
                mean = order + lam
                sd = math.sqrt(order + 2.0 * lam)
                ys = [mean * f for f in (0.0, 1e-6, 0.5, 0.99, 1.0, 1.01, 2.0, 100.0)]
                ys += [mean + z * sd for z in (-40.0, -9.0, -1.0, 0.0, 1.0, 9.0, 40.0)]
                a = math.sqrt(2.0 * lam)
                for y in ys:
                    b = math.sqrt(2.0 * min(max(y, 0.0), largest))
                    best = math.inf
                    for _ in range(3):
                        start = time.perf_counter()
                        value = marcum_q(order, a, b)
                        best = min(best, time.perf_counter() - start)
                    assert 0.0 <= value <= 1.0
                    slowest = max(slowest, best)
        assert slowest < 1e-3


ORDER_RULE = "order must be an integer in [1, 2**53], got "
GAMMA_REJECTIONS = [
    ((math.nan, 1.0), ORDER_RULE + "nan"),
    ((math.inf, 1.0), ORDER_RULE + "inf"),
    ((-math.inf, 1.0), ORDER_RULE + "-inf"),
    ((0.0, 1.0), ORDER_RULE + "0.0"),
    ((-2.0, 1.0), ORDER_RULE + "-2.0"),
    ((0.5, 1.0), ORDER_RULE + "0.5"),
    ((2**53 + 2, 1.0), ORDER_RULE + "9007199254740994.0"),
    ((1e300, 1.0), ORDER_RULE + "1e+300"),
    ((1.0, math.nan), "x must be finite and >= 0, got nan"),
    ((1.0, math.inf), "x must be finite and >= 0, got inf"),
    ((1.0, -math.inf), "x must be finite and >= 0, got -inf"),
    ((1.0, -0.5), "x must be finite and >= 0, got -0.5"),
    ((0, -1), ORDER_RULE + "0.0"),
]
MARCUM_REJECTIONS = [
    ((math.nan, 1.0, 1.0), ORDER_RULE + "nan"),
    ((math.inf, 1.0, 1.0), ORDER_RULE + "inf"),
    ((-math.inf, 1.0, 1.0), ORDER_RULE + "-inf"),
    ((0.0, 1.0, 1.0), ORDER_RULE + "0.0"),
    ((-1.0, 1.0, 1.0), ORDER_RULE + "-1.0"),
    ((5.5, 1.0, 1.0), ORDER_RULE + "5.5"),
    ((2**53 + 2, 1.0, 1.0), ORDER_RULE + "9007199254740994.0"),
    ((1e300, 1.0, 0.0), ORDER_RULE + "1e+300"),
    ((1.0, math.nan, 1.0), "a must lie in [0, 1e150], got nan"),
    ((1.0, math.inf, 1.0), "a must lie in [0, 1e150], got inf"),
    ((1.0, 1.0, math.nan), "b must lie in [0, 1e150], got nan"),
    ((1.0, 1.0, -math.inf), "b must lie in [0, 1e150], got -inf"),
    ((1.0, -0.1, 1.0), "a must lie in [0, 1e150], got -0.1"),
    ((1.0, 1.0, -0.1), "b must lie in [0, 1e150], got -0.1"),
    ((5.0, 1e200, 0.0), "a must lie in [0, 1e150], got 1e+200"),
    ((5.0, 1e151, 1.0), "a must lie in [0, 1e150], got 1e+151"),
    ((5.0, 1.0, 1e151), "b must lie in [0, 1e150], got 1e+151"),
    ((5.0, math.nextafter(1e150, math.inf), 1e200),
     "a must lie in [0, 1e150], got 1.0000000000000002e+150"),
]


# Calls below the least order that returned a wrong value or raised before
# orders had a floor (true values from 40-digit mpmath); each now names order.
TINY_ORDER_CALLS = [
    (reg_upper_gamma, (1e-16, 5e-7)),  # was 0.0, true 1.39e-15
    (reg_lower_gamma, (1e-16, 5e-7)),
    (marcum_q, (1e-16, 1e-97, 1e-3)),  # was 5.0e-195, true 1.39e-15
    (marcum_q, (1e-160, 1e-50, 1e-30)),  # was 6.3e-15, true 5e-101
    (marcum_q, (1e-150, 1e-50, 1e-30)),  # its second weight underflowed
    (marcum_q, (3.8462885865202914e-299, 7.5057647570367445, 9.969471733838)),  # was 0.0
    (marcum_q, (1e-290, 1e-139, 1e-130)),  # raised ZeroDivisionError
    (marcum_q, (3.3606524944569367e-282, 6.296423525373085, 13.859707111664381)),
    (reg_upper_gamma, (0.01, 1.0)),
    (reg_upper_gamma, (math.nextafter(1.0, 0.0), 1.0)),
]


class TestOrderDomain:
    """Only the integer orders 1 to 2**53 are admitted, both ends included."""

    @pytest.mark.parametrize(
        "function, args", TINY_ORDER_CALLS,
        ids=[f"{f.__name__}{list(args)}" for f, args in TINY_ORDER_CALLS])
    def test_tiny_order_rejected(self, function, args):
        message = ORDER_RULE + repr(args[0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            function(*args)

    @pytest.mark.parametrize("order", [1, 1.0, 2**53, 2.0**53, 2**53 + 1])
    def test_both_ends_admitted(self, order):
        # 2**53 + 1 rounds to the double 2**53
        for value in (reg_upper_gamma(order, 2.0**53), reg_lower_gamma(order, 1.0),
                      marcum_q(order, 1e150, 1e150), marcum_q(order, 0.0, 1e150)):
            assert 0.0 <= value <= 1.0
        assert specfun.MAX_ORDER == 2**53


@pytest.mark.parametrize(
    "function, args, message",
    [pytest.param(f, args, message, id=f"{f.__name__}{list(args)}")
     for f, rejections in ((reg_lower_gamma, GAMMA_REJECTIONS),
                           (reg_upper_gamma, GAMMA_REJECTIONS),
                           (marcum_q, MARCUM_REJECTIONS))
     for args, message in rejections],
)
def test_guard_keeps_each_message(function, args, message):
    # the one comparison that admits a valid call hands every invalid one
    # to the checks that name it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)


def test_budget_constants_documented():
    assert MAX_ITERATIONS == 10_000
    assert TERM_TOLERANCE == 1e-14
