"""Special functions used by the closed-form detection probabilities.

Everything here is scalar, pure and double precision. The orders admitted
are the integers 1 to 2^53 (``MAX_ORDER``), an int or an integral float:
every order the closed forms take is one, the sample count u (a scenario
holds at most 2^53) and u + j in the Marcum series. Two primitives do the
real work:

``reg_upper_gamma``
    Regularized upper incomplete gamma Q(u, x) = Gamma(u, x) / Gamma(u),
    computed in one of three regimes:

    * near the transition at large order (u >= 100 and |x - u| < 0.3 u),
      Temme's uniform asymptotic expansion (DLMF 8.12.8-8.12.12; DiDonato
      and Morris, ACM TOMS 12(4), 1986, the method of cephes ``igam``). It
      forms the side asked for directly (one erfc, no complement), at a
      cost that does not grow with u: its sum over powers of 1/u is one
      polynomial in eta per order, built with sqrt(2 pi u) and sqrt(u/2)
      on that order's first call and kept for the last 16 orders;
    * otherwise the classic split: power series for the lower function
      when x < u + 1, Lentz-style continued fraction for the upper function
      otherwise (its denominators stay at least 2, so no zero guards), each
      O(sqrt(u)) iterations near the transition. Below u + 1 the upper side
      is decided in O(1): where a geometric bound puts P under half of
      2^-54, Q = 1 - P rounds to exactly 1, and 1 is returned without the
      series (P itself is always summed). Below order 100 the continued
      fraction terminates and is summed exactly, u - 1 steps of a nested
      finite sum. Their callers scale both by x^u e^-x / Gamma(u), taken
      in log space so large arguments neither overflow nor lose the
      leading digits; at u >= 100 the Stirling series cancels the large
      terms of that log analytically.

``marcum_q``
    Generalized Marcum Q-function Q_u(a, b), the tail of a noncentral
    chi-square law with 2u degrees of freedom and noncentrality a**2,
    evaluated at b**2. With x = a**2 / 2 and y = b**2 / 2 it is the Poisson
    mixture sum_j e^-x x^j / j! Q(u + j, y). After Gil, Segura and Temme
    (Algorithm 939, ACM TOMS 40(3), 2014) it picks a method by region, all
    keyed to the saddle point s of the mixture's Laplace transform:

    * decisive tail: when the Chernoff bound exp(psi*) on the small side
      (Q above the mean u + x, P = 1 - Q below it) puts the answer within
      rounding of 0 or 1, that answer, in O(1);
    * series, where the summands peak at j = x s <= 400: the small side
      summed in its stable direction only (Q terms upward, P terms
      downward), from a start just past the summands' tail, at a few
      flops per term, stopped relative to the sum itself; the gamma side
      at the start shares its log prefactor with the recurrence step, and
      at a P-side start it never needs the continued fraction;
    * far field, x s > 400: the trapezoidal rule on the contour integral
      through the saddle, a Gaussian of width 1/sqrt(2 x s + u) times a
      slow phase, with a fixed number (about 20) of nodes.

    It admits a and b in [0, 1e150], far above the sqrt(2 snr) <= 1.5e50
    and sqrt(threshold) <= 1e50 a scenario reaches. The series runs only
    while x s <= 400, so no call's cost grows with x, and no call in its
    pinned range reaches a ``ConvergenceError``.

Each public function admits a valid call by one chained comparison, which
NaN fails too; only a call that fails it runs the checks that name the
invalid argument. ``MAX_ITERATIONS`` bounds every iterative loop;
exceeding it raises :class:`ConvergenceError` rather than returning a
silently wrong value.
"""

import functools
import math
import operator

__all__ = [
    "MAX_ORDER",
    "MAX_ITERATIONS",
    "TERM_TOLERANCE",
    "ConvergenceError",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "marcum_q",
]

# Largest order admitted, also the largest sample count (``DetectorConfig``);
# a float, which the hot guards compare fastest.
MAX_ORDER = 2.0**53
# Iteration budget and term tolerance for all series / continued fractions.
MAX_ITERATIONS = 10_000
TERM_TOLERANCE = 1e-14
# 1 - exp(t) rounds to 1 below this (half an ulp under 1, 2^-54): the
# decided side of the classic split and of the Marcum mixture.
_LOG_ROUNDS_TO_ONE = -54.0 * math.log(2.0)


class ConvergenceError(RuntimeError):
    """A series or continued fraction failed to reach tolerance in budget."""


def _lower_series(order: float, x: float) -> float:
    """The sum in P(u, x) = x^u e^-x / Gamma(u) / u * sum_n x^n / ((u+1)...(u+n)),
    valid for x < order + 1; the caller applies the prefactor."""
    term = 1.0
    total = 1.0
    denom = order
    for _ in range(MAX_ITERATIONS):
        denom += 1.0
        term *= x / denom
        total += term
        if term < total * TERM_TOLERANCE:  # every term is positive
            return total
    raise ConvergenceError(
        f"lower gamma series did not converge for order={order}, x={x}"
    )


def _upper_continued_fraction(order: float, x: float) -> float:
    """Modified Lentz continued fraction CF in Q(u, x) = CF x^u e^-x / Gamma(u),
    valid for x >= order + 1; the caller applies the prefactor. Where it
    runs, c and 1/d stay at least 2, so it needs no zero guards.

    Every order is an integer n, so the fraction terminates: a_i = -i (i - n)
    is 0 at i = n. Below ``_TEMME_LEAST_ORDER`` it is summed as the exact
    nested sum CF = h / x, h = 1 + (n-1)/x (1 + (n-2)/x (... (1 + 1/x))),
    in n - 1 steps. From that order on the finite sum would take n steps
    where the fraction takes a few dozen, so those orders keep it.
    """
    if order < _TEMME_LEAST_ORDER:
        # i counts as a float: float * int takes CPython's slow generic path
        h = i = 1.0
        while i < order:
            h = 1.0 + h * i / x
            i += 1.0
        return h / x
    b = x + 1.0 - order
    c = math.inf
    d = 1.0 / b
    h = d
    for i in range(1, MAX_ITERATIONS + 1):
        # c_i, 1/d_i >= x - u + i + 1 >= 2 by induction (|a_i| / c_(i-1) <= i),
        # so neither needs a zero guard; c_0 = inf makes c_1 = b_1
        an = -i * (i - order)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < TERM_TOLERANCE:
            return h
    raise ConvergenceError(
        f"upper gamma continued fraction did not converge for order={order}, x={x}"
    )


# Temme's uniform expansion near the transition (DLMF 8.12.8-8.12.10). With
# sigma = (x - a) / a and eta = sign(sigma) sqrt(2 (sigma - log1p(sigma))),
#   Q(a, x) = erfc(eta sqrt(a/2)) / 2 + R,  P(a, x) = erfc(-eta sqrt(a/2)) / 2 - R,
#   R = exp(-a eta^2 / 2) / sqrt(2 pi a) * sum_k c_k(eta) a^-k,
#   c_k(eta) = sum_n d_{k,n} eta^n.
# It serves orders >= _TEMME_LEAST_ORDER with |sigma| < _TEMME_MAX_SIGMA, where
# the classic series and continued fraction need O(sqrt(a)) iterations.
_TEMME_LEAST_ORDER = 100.0
_TEMME_MAX_SIGMA = 0.3
# Terms of sum_k c_k a^-k (about -1/3 in the window) below this are dropped.
_TEMME_TOLERANCE = 1e-17

# d_{k,n} for k = 0..6, n = 0..14 (DLMF 8.12.12; as in cephes igam.h):
# d_{0,n} from the reversion of eta(sigma), then
# d_{k,n} = (n + 2) d_{k-1,n+2} + (-1)^k gamma_k d_{0,n} with the Stirling
# coefficients gamma_k. Each literal is the double nearest the exact
# rational, which tests/test_specfun.py recomputes in exact arithmetic.
_TEMME_D = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11,
        -1.0091543710600413e-09,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07,
        -2.0477098421990866e-10, -1.409252991086752e-08, 6.228974084922022e-09,
        -1.3670488396617114e-09,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06,
        1.4230900732435883e-06, -2.7861080291528143e-11,
        -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12,
        2.0620131815488797e-09,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08,
        3.4463580499464896e-09,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07,
        -1.8447187191171344e-07, 4.8240967037894184e-08,
        -1.7989466721743514e-14, -6.306194500013523e-09,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
        -1.8329116582843375e-05, -3.0796134506033047e-09,
        3.465155368803609e-06, -2.0291327396058603e-06, 5.788792863149004e-07,
        2.338630673826657e-13, -8.828600746330484e-08, 4.7435958880408125e-08,
        -1.2545415020710383e-08,
    ),
)


def _temme_rows():
    """Rows of ``_TEMME_D`` cut for the window, with the order each reaches.

    Row k keeps its terms up to the last with |d_{k,n}| eta_max^n a^-k
    above the tolerance at the window's least order a, highest power first
    for Horner, and is summed only up to the order
    (sum_n |d_{k,n}| eta_max^n / tolerance)^(1/k).
    """
    eta_max = math.sqrt(
        2.0 * (-_TEMME_MAX_SIGMA - math.log1p(-_TEMME_MAX_SIGMA)))
    rows = []
    for k, row in enumerate(_TEMME_D):
        floor = _TEMME_TOLERANCE * _TEMME_LEAST_ORDER**k
        last = max(n for n, d in enumerate(row) if abs(d) * eta_max**n >= floor)
        # plain left-to-right adds (sum() compensates from 3.12 on), so every
        # reach is the same on every Python version
        bound = functools.reduce(
            operator.add, (abs(d) * eta_max**n for n, d in enumerate(row)), 0.0)
        reach = (bound / _TEMME_TOLERANCE) ** (1.0 / k) if k else math.inf
        rows.append((reach, row[last::-1]))
    return tuple(rows)


_TEMME_ROWS = _temme_rows()


@functools.lru_cache(maxsize=16)
def _temme_constants(order: float) -> tuple[tuple[float, ...], float, float]:
    """The order's share of Temme's expansion: sum_k c_k(eta) order^-k as
    one polynomial in eta, coefficients highest power first (the rows of
    ``_TEMME_ROWS`` that reach ``order``, each scaled by order^-k), then
    sqrt(2 pi order) and sqrt(order / 2). Cached per order (a few hundred
    bytes each)."""
    width = len(_TEMME_ROWS[0][1])
    coefficients = [0.0] * width
    inv_order = 1.0 / order
    scale = 1.0
    for reach, row in _TEMME_ROWS:
        if order > reach:
            break
        # row k is d_{k,last} .. d_{k,0}: its constant term takes the last slot
        for n, d in enumerate(row, width - len(row)):
            coefficients[n] += d * scale
        scale *= inv_order
    return tuple(coefficients), math.sqrt(2.0 * math.pi * order), math.sqrt(0.5 * order)


def _temme_side(order: float, x: float, upper: bool) -> float:
    """Q(order, x) if ``upper`` else P(order, x) from Temme's expansion,
    each side directly, no complement. One Horner loop and one erfc."""
    coefficients, root_2pi_order, root_half_order = _temme_constants(order)
    sigma = (x - order) / order
    # >= 0 already for a log1p within an ulp (the true log1p(sigma) lies
    # below sigma); abs only keeps sqrt's argument non-negative on any libm
    half_eta_sq = abs(sigma - math.log1p(sigma))
    eta = math.copysign(math.sqrt(2.0 * half_eta_sq), sigma)
    total = 0.0
    for c in coefficients:
        total = total * eta + c
    r = math.exp(-order * half_eta_sq) * total / root_2pi_order
    y = eta * root_half_order
    if upper:
        return 0.5 * math.erfc(y) + r
    return 0.5 * math.erfc(-y) - r


def _log_prefactor(order: float, x: float) -> float:
    """log(x^order e^-x / Gamma(order)) for x > 0.

    From _TEMME_LEAST_ORDER on (where the Temme regime starts too),
    Stirling's series replaces lgamma (its tail
    1/(12a) - 1/(360a^3) + 1/(1260a^5) - 1/(1680a^7) is exact to 1e-21
    there) and cancels the terms of size a log a analytically; the direct
    form loses ~2e-11 relative by order 1e4.
    """
    if order < _TEMME_LEAST_ORDER:
        return order * math.log(x) - x - math.lgamma(order)
    sigma = (x - order) / order
    if sigma >= -0.5:
        # -a eta^2 / 2 exactly as the Temme regime forms it, so the two
        # regimes share its rounding at the window edges
        core = -order * (sigma - math.log1p(sigma))
    else:
        # here log1p(sigma) would carry the rounding of x - order,
        # amplified by order / x
        ratio = x / order
        if ratio == 0.0:
            return -math.inf
        core = order * math.log(ratio) + (order - x)
    w = 1.0 / (order * order)
    stirling_tail = (
        1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))
    ) / order
    return core + 0.5 * math.log(order / (2.0 * math.pi)) - stirling_tail


def _classic_side(order: float, x: float, upper: bool) -> float:
    """Q(order, x) if ``upper`` else P(order, x) from the series or the
    continued fraction. The side that is computed directly is the
    numerically favourable one; the other is its complement."""
    if x == 0.0:
        return 1.0 if upper else 0.0
    log_pref = _log_prefactor(order, x)
    if log_pref < -745.0:
        # prefactor underflows: all the mass is on one side
        if upper:
            return 0.0 if x > order else 1.0
        return 1.0 if x > order else 0.0
    if x < order + 1.0:
        # Q = 1 - P is decided without the series when P is far below 2^-54.
        # The series' ratios x / (order + n) are at most r = x / (order + 1)
        # < 1, so P <= exp(log_pref) / order / (1 - r). The p the series
        # would give exceeds that bound by under 1e-8 relative (exp is within
        # an ulp, and the n-th of at most MAX_ITERATIONS terms within about
        # n^2 / 2 ulps, its denominators drifting by one ulp a step), so below
        # half of 2^-54 it leaves p < 2^-54, and 1 - p rounds to exactly 1.
        if upper and (log_pref - math.log(order) - math.log1p(-x / (order + 1.0))
                      < _LOG_ROUNDS_TO_ONE - math.log(2.0)):
            return 1.0
        p = math.exp(log_pref) * _lower_series(order, x) / order
        return 1.0 - p if upper else p
    q = math.exp(log_pref) * _upper_continued_fraction(order, x)
    return q if upper else 1.0 - q


def _reject_order(order: float) -> None:
    """Raise the ValueError that names an order outside the admitted integers."""
    if not (1.0 <= order <= MAX_ORDER and order.is_integer()):
        raise ValueError(f"order must be an integer in [1, 2**53], got {order!r}")


def _reject_gamma_args(order: float, x: float) -> None:
    """Raise the ValueError that names the first invalid argument."""
    _reject_order(order)
    raise ValueError(f"x must be finite and >= 0, got {x!r}")


def _regularized_gamma(order: float, x: float, upper: bool) -> float:
    """Q(order, x) if ``upper`` else P(order, x) in [0, 1]: Temme's expansion
    in its window (order >= 100, |x - order| < 0.3 order), else the classic split."""
    order = float(order)
    x = float(x)
    if not (1.0 <= order <= MAX_ORDER and order.is_integer() and 0.0 <= x < math.inf):
        _reject_gamma_args(order, x)
    if order >= _TEMME_LEAST_ORDER and abs(x - order) < _TEMME_MAX_SIGMA * order:
        g = _temme_side(order, x, upper)
    else:
        g = _classic_side(order, x, upper)
    return g if 0.0 <= g <= 1.0 else min(max(g, 0.0), 1.0)


def reg_lower_gamma(order: float, x: float) -> float:
    """Regularized lower incomplete gamma P(order, x) in [0, 1]."""
    return _regularized_gamma(order, x, False)


def reg_upper_gamma(order: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(order, x) in [0, 1], for an
    integer order in [1, 2**53] and a finite x >= 0.

    Pinned in the test suite for order in [1, 1e4] and x / order in
    [e^-6, e^2.5]: P and Q are each within 1e-11 relative of the reference
    wherever it is at least 1e-290. The reference is scipy.special, except
    at order >= 200 with |x - order| > 0.4 order, where scipy is itself
    only good to ~2e-11 and frozen 40-digit mpmath values stand in. At
    orders 1 to 99 with x from order + 1 to 40 (order + 1), the finite
    sum's region, Q is within 1e-11 relative of 40-digit mpmath too. Also
    within 1e-8 absolute of adaptive quadrature for order <= 200, x <= 400.
    """
    return _regularized_gamma(order, x, True)


# Marcum Q by region (Gil, Segura and Temme, "Algorithm 939: Computation of
# the Marcum Q-function", ACM TOMS 40(3), 2014). With x = a^2/2 and
# y = b^2/2, Q = sum_j e^-x x^j / j! Q(order + j, y). One saddle point
# serves every region: s > 0 with x s^2 + order s = y, which minimizes
# psi(s) = x (s - 1) + y (1/s - 1) + order log s. Its value psi* bounds the
# small side (Q when y > x + order, else P = 1 - Q) by exp(psi*) (Chernoff),
# x s is the index where the mixture's summands peak, and the contour of
# the far field crosses the real axis next to s.

# exp(t) rounds to 0 below this (half the least subnormal, 2^-1075)
_LOG_ROUNDS_TO_ZERO = -1075.0 * math.log(2.0)
# The series stops once its remaining terms are bounded by this share of
# its sum, well below the rounding of the result.
_SERIES_TOLERANCE = 2.0**-56
_SERIES_LOG_TOLERANCE = -math.log(_SERIES_TOLERANCE)
# Summand peak x s beyond which the contour integral replaces the series.
_FAR_FIELD_MODE = 400.0
# Below this x or y the mixture reduces to its central term.
_NEGLIGIBLE = 1e-280
# Largest a and b admitted.
_MAX_MARCUM_ARG = 1e150
# The far-field contour keeps its crossing at least this many saddle
# widths away from the pole at s = 1.
_CONTOUR_MIN_ZETA = 3.0
# log of the share of the result that the contour's truncation and
# aliasing may each leave (e^-45 = 2^-65; a shifted crossing spends up to
# e^4.5 of it).
_CONTOUR_LOG_TOLERANCE = 45.0
# 1/3!, 1/5!, ..., 1/15!: sinh w - w at |w| <= 0.4 to 1e-19 relative.
_SINH_TAIL = tuple(1.0 / math.factorial(n) for n in range(15, 2, -2))


def _scaled_gamma_side(order: float, x: float, log_pref: float, upper: bool) -> float:
    """Q(order, x) if ``upper`` else P(order, x), divided by
    exp(log_pref) = x^order e^-x / Gamma(order), the factor the series and
    the continued fraction leave to their caller."""
    # Temme's window, as in _regularized_gamma
    if order >= _TEMME_LEAST_ORDER and abs(x - order) < _TEMME_MAX_SIGMA * order:
        g = _temme_side(order, x, upper)
    elif x < order + 1.0:
        p = _lower_series(order, x) / order
        if not upper:
            return p
        g = 1.0 - p * math.exp(log_pref)
    else:
        # only Q: the P side starts at order = u + int(x' s) + reach, and its
        # x = x' s^2 + u s <= u + x' s < order + 1 (mixture's x', saddle s <= 1)
        return _upper_continued_fraction(order, x)
    return math.exp(math.log(g) - log_pref) if g > 0.0 else 0.0


def _marcum_series(order: float, x: float, y: float, mode: int, upper: bool,
                   log_bound: float) -> float:
    """sum_j e^-x x^j / j! G(order + j, y), G = Q if ``upper`` else P.

    The summands are log-concave in j and peak near ``mode``. Each side is
    marched in its stable direction only, where the recurrence
    G(n + 1) = G(n) +- y^n e^-y / Gamma(n + 1) adds positive terms: Q
    upward from a start below the peak, P downward from a start above it.
    (Marching Q down from the peak subtracts nearly equal numbers and loses
    a factor y / n per step.) The start lies where a tail bound on the
    Poisson weights falls below the tolerance. The march stops once a term
    t falls below ``_SERIES_TOLERANCE`` of the sum and so does the rest,
    at most t r / (1 - r) with r the ratio of the next term to t
    (log-concavity); the same bound checks the terms beyond the start,
    which moves twice as far out if they could still matter.
    """
    tolerance = _SERIES_TOLERANCE
    # Poisson(mode) tails: sub-Gaussian below the mode, Bernstein above it;
    # and the summands fall at least geometrically away from the peak, by
    # (j / x) (order + j - 1) / y per step down (Q) and by
    # x / (j + 1) y / (order + j + 1) per step up (P), which keeps a start
    # from sitting so far out that it underflows
    reach = int(math.sqrt(2.0 * _SERIES_LOG_TOLERANCE * mode)) + 4
    if upper:
        ratio = mode * (order + mode - 1.0) / (x * y)
    else:
        reach += int(_SERIES_LOG_TOLERANCE / 3.0)
        ratio = x * y / ((mode + 1.0) * (order + mode + 1.0))
    if ratio < 1.0:
        fall = -math.log(ratio) if ratio > 0.0 else math.inf
        within = int(_SERIES_LOG_TOLERANCE / fall)
        if within < reach:
            reach = within
    while reach <= MAX_ITERATIONS:
        start = (mode - reach if mode > reach else 0) if upper else mode + reach
        # G(n, y) and D(n) are carried divided by y^n e^-y / Gamma(n), the
        # weights times it over exp(log_bound), so no start can underflow
        n = order + start
        log_pref = _log_prefactor(n, y)
        g = _scaled_gamma_side(n, y, log_pref, upper)
        e = 1.0 / n
        j = float(start)
        log_weight = -x if start == 0 else _log_prefactor(j, x) - math.log(j)
        w = math.exp(log_weight + log_pref - log_bound)

        if upper:
            first = total = w * g
            # below the start: t_(m-1) / t_m = (m / x) (Q(n) - D(n - 1)) / Q(n)
            r_beyond = j * (g - e * n / y) / (x * g) if start and g > 0.0 else 0.0
            for _ in range(MAX_ITERATIONS):
                g += e
                j += 1.0
                e *= y / (order + j)
                w *= x / j
                t = w * g
                total += t
                if t <= tolerance * total:
                    r = x * (g + e) / ((j + 1.0) * g)
                    if r < 1.0 and t * r <= tolerance * total * (1.0 - r):
                        break
            else:
                break
        else:
            first = total = w * g
            # above the start: t_(m+1) / t_m = x / (m + 1) (P(n) - D(n)) / P(n)
            r_beyond = x * (g - e) / ((j + 1.0) * g) if g > 0.0 else 0.0
            for _ in range(start):
                e *= (order + j) / y
                g += e
                w *= j / x
                j -= 1.0
                t = w * g
                total += t
                if 0.0 < t <= tolerance * total:
                    r = j * (g + e * (order + j) / y) / (x * g)
                    if r < 1.0 and t * r <= tolerance * total * (1.0 - r):
                        break

        if r_beyond < 1.0 and first * r_beyond <= tolerance * total * (1.0 - r_beyond):
            return total * math.exp(log_bound)
        reach = 2 * reach + 1
    raise ConvergenceError(
        f"marcum_q series did not converge for order={order}, x={x}, y={y}"
    )


def _sinh_minus_identity(w: complex) -> complex:
    """sinh(w) - w without cancellation, for |w| <= 0.4."""
    c = w * w
    acc = 0.0
    for coefficient in _SINH_TAIL:
        acc = acc * c + coefficient
    return acc * c * w


def _marcum_contour(order: float, x: float, delta: float, log_bound: float,
                    upper: bool) -> float:
    """The small side (Q if ``upper`` else P) by the trapezoidal rule on a
    contour integral, at a cost that does not grow with x.

    For s on a circle about the origin, Q = I when the circle encloses the
    pole s = 1 and Q = 1 + I when it does not, where
    I = (1/2 pi i) oint s^order exp(psi(s)) ds / (s (s - 1)) up to the
    contribution of the cut along the negative axis, which is below
    exp(psi* - 2 kappa) and negligible here (kappa > 2 x s > 800).
    Write s = s* e^w, w = shift + i theta. Then
    psi - psi* = 2 kappa sinh^2(w/2) - order (sinh w - w), kappa = 2 x s* + order,
    so the integrand is a Gaussian of width 1/sqrt(kappa) in theta times a
    slow phase. The crossing is the saddle, moved to at least
    ``_CONTOUR_MIN_ZETA`` widths from the pole. The step resolves that
    Gaussian and the nodes stop where it does, so every call takes the
    same ~20 of them (with the symmetry theta -> -theta).
    """
    saddle = 1.0 + delta
    kappa = 2.0 * x * saddle + order
    root = math.sqrt(kappa)
    zeta = math.sqrt(max(-2.0 * log_bound, 0.0))
    shift = max(_CONTOUR_MIN_ZETA - zeta, 0.0) / root
    if not upper:
        shift = -shift
    # the trapezoidal rule aliases the Gaussian, with the phase
    # exp(i kappa shift theta) of a shifted crossing, by
    # exp(-(2 pi / h - sqrt(kappa) zeta_min)^2 / (2 kappa)); this step
    # keeps that at the tolerance
    h = 2.0 * math.pi / (
        root * (_CONTOUR_MIN_ZETA + math.sqrt(2.0 * _CONTOUR_LOG_TOLERANCE)))
    half_width = min(1.0, math.sqrt(_CONTOUR_LOG_TOLERANCE / (2.0 * kappa)))
    nodes = int(2.0 * math.asin(half_width) / h) + 1

    # w / 2 = (shift + i theta) / 2: sinh and exp of it from real parts
    sinh_p = math.sinh(0.5 * shift)
    cosh_p = math.cosh(0.5 * shift)
    exp_p = math.exp(0.5 * shift)

    def term(theta):
        c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
        half = complex(0.5 * shift, 0.5 * theta)
        sh = complex(sinh_p * c, cosh_p * s)
        exponent = 2.0 * kappa * sh * sh - order * _sinh_minus_identity(2.0 * half) - half
        size = math.exp(exponent.real)
        numerator = complex(size * math.cos(exponent.imag), size * math.sin(exponent.imag))
        return (numerator / (delta * complex(exp_p * c, exp_p * s) + 2.0 * sh)).real

    total = 0.5 * term(0.0)
    for k in range(1, nodes + 1):
        total += term(k * h)
    value = math.exp(log_bound) * h / math.pi * total
    return value if upper else -value


def _reject_marcum_args(order: float, a: float, b: float) -> None:
    """Raise the ValueError that names the first invalid argument."""
    _reject_order(order)
    name, value = ("a", a) if not 0.0 <= a <= _MAX_MARCUM_ARG else ("b", b)
    raise ValueError(f"{name} must lie in [0, 1e150], got {value!r}")


def marcum_q(order: float, a: float, b: float) -> float:
    """Generalized Marcum Q-function Q_order(a, b) in [0, 1].

    Equals the probability that the square root of a noncentral chi-square
    variate with 2*order degrees of freedom and noncentrality a**2 exceeds
    b. Admits an integer order in [1, 2**53] and a, b in [0, 1e150]; the
    module docstring gives the regions (decisive tail, series, far field).

    Pinned in the test suite: 40-digit mpmath values in every region
    (fig3's 21 nominal points, a sample of the order-2000 grid, both sides
    of the decisive bounds, the far field at orders 1 to 5000 and
    x = 1e3, 3e4) within 1e-12 relative wherever they are at least 1e-290
    (within 1e-290 absolute below); exactly 0 or 1 where a 40-digit
    Chernoff bound puts the answer within rounding of it; absolute error
    against scipy.stats.ncx2.sf below 1e-8 for order <= 50, a, b <= 30,
    and below 1e-10 for order in [1, 5000] with a**2 <= order + 50 and
    b**2 within 8 standard deviations of the mean 2 * order + a**2; and
    under 1 ms per call for orders 1 to 5000 with a and b from 0 to 1e150
    (x and y up to 5e299, y up to 100 times the mean).
    """
    order = float(order)
    a = float(a)
    b = float(b)
    if not (1.0 <= order <= MAX_ORDER and order.is_integer()
            and 0.0 <= a <= _MAX_MARCUM_ARG and 0.0 <= b <= _MAX_MARCUM_ARG):
        _reject_marcum_args(order, a, b)
    x = 0.5 * a * a
    y = 0.5 * b * b
    if x < _NEGLIGIBLE:
        # the mixture's central term; the others add x y / order relatively
        return reg_upper_gamma(order, y)
    if y < _NEGLIGIBLE:
        # P(order + j, y) <= y^j P(order, y): only the central term counts
        return 1.0 - math.exp(-x) * reg_lower_gamma(order, y)
    excess = 0.5 * (b - a) * (b + a) - order  # y - x - order, sign of the small side
    half_root = math.hypot(0.5 * order, 0.5 * a * b)  # sqrt(order^2 + 4 x y) / 2
    # s - 1 = excess / (sqrt(order^2 + 4 x y) / 2 + order / 2 + x), all
    # digits kept near the mean
    delta = excess / (half_root + 0.5 * order + x)
    if delta > -0.5:
        log_saddle = math.log1p(delta)
    else:
        saddle = y / (0.5 * order + half_root)
        log_saddle = math.log(saddle) if saddle > 0.0 else -math.inf
    log_bound = -0.5 * (a * delta) ** 2 - order * (delta - log_saddle)
    upper = excess > 0.0
    if upper:
        if log_bound < _LOG_ROUNDS_TO_ZERO:
            return 0.0
    elif log_bound < _LOG_ROUNDS_TO_ONE:
        return 1.0

    mode = x * (1.0 + delta)
    if mode > _FAR_FIELD_MODE:
        small = _marcum_contour(order, x, delta, log_bound, upper)
    else:
        small = _marcum_series(order, x, y, int(mode), upper, log_bound)
    result = small if upper else 1.0 - small
    return result if 0.0 <= result <= 1.0 else min(max(result, 0.0), 1.0)
