"""Special functions used by the closed-form detection probabilities.

Everything here is scalar, pure and double precision. Two primitives do the
real work:

``reg_upper_gamma``
    Regularized upper incomplete gamma Q(u, x) = Gamma(u, x) / Gamma(u),
    computed in one of three regimes:

    * near the transition at large order (u >= 100 and |x - u| < 0.3 u),
      Temme's uniform asymptotic expansion (DLMF 8.12.8-8.12.12; DiDonato
      and Morris, ACM TOMS 12(4), 1986, the method of cephes ``igam``). It
      returns P and Q both directly, at a cost that does not grow with u;
    * otherwise the classic split: power series for the lower function
      when x < u + 1, Lentz-style continued fraction for the upper function
      otherwise, each O(sqrt(u)) iterations near the transition. Both are
      scaled by x^u e^-x / Gamma(u), taken in log space so large arguments
      neither overflow nor lose the leading digits; at u >= 100 the
      Stirling series cancels the large terms of that log analytically.

``marcum_q``
    Generalized Marcum Q-function Q_u(a, b), the tail of a noncentral
    chi-square law with 2u degrees of freedom and noncentrality a**2,
    evaluated at b**2. It is summed as a Poisson mixture of central
    chi-square tails: the summation starts at the Poisson mode and expands
    outward in both directions with forward recurrences for the mixture
    weights and the regularized gamma terms. When b**2 / 2 exceeds the
    noncentrality-shifted mean u + a**2 / 2 the sum runs over the upper
    (tail) gamma terms directly; otherwise it accumulates the lower terms
    and returns the complement. Truncation error is bounded by the Poisson
    mass left outside the summed window, so the loop stops once that mass
    drops below ``TERM_TOLERANCE``.

``MAX_ITERATIONS`` bounds every iterative loop; exceeding it raises
:class:`ConvergenceError` rather than returning a silently wrong value.
"""

import math

__all__ = [
    "MAX_ITERATIONS",
    "TERM_TOLERANCE",
    "ConvergenceError",
    "log_gamma",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "marcum_q",
]

# Iteration budget and term tolerance for all series / continued fractions.
MAX_ITERATIONS = 10_000
TERM_TOLERANCE = 1e-14


class ConvergenceError(RuntimeError):
    """A series or continued fraction failed to reach tolerance in budget."""


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for positive real x.

    Relative error is at the level of the platform ``lgamma`` (a few ulp,
    well inside 1e-12 on [0.5, 1e4]).
    """
    x = float(x)
    _require_finite("x", x)
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _lower_series(order: float, x: float, log_prefactor: float) -> float:
    """Series for the regularized lower gamma, valid for x < order + 1.

    P(u, x) = x^u e^-x / Gamma(u+1) * sum_n x^n / ((u+1)(u+2)...(u+n)).
    """
    term = 1.0
    total = 1.0
    denom = order
    for _ in range(MAX_ITERATIONS):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * TERM_TOLERANCE:
            # prefactor uses Gamma(u+1) = u * Gamma(u)
            return math.exp(log_prefactor) * total / order
    raise ConvergenceError(
        f"lower gamma series did not converge for order={order}, x={x}"
    )


def _upper_continued_fraction(order: float, x: float, log_prefactor: float) -> float:
    """Modified Lentz continued fraction for the regularized upper gamma.

    Q(u, x) = x^u e^-x / Gamma(u) * CF,  valid for x >= order + 1.
    """
    tiny = 1e-300
    b = x + 1.0 - order
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, MAX_ITERATIONS + 1):
        an = -i * (i - order)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < TERM_TOLERANCE:
            return math.exp(log_prefactor) * h
    raise ConvergenceError(
        f"upper gamma continued fraction did not converge for order={order}, x={x}"
    )


# Temme's uniform expansion near the transition (DLMF 8.12.8-8.12.10). With
# sigma = (x - a) / a and eta = sign(sigma) sqrt(2 (sigma - log1p(sigma))),
#   Q(a, x) = erfc(eta sqrt(a/2)) / 2 + R,  P(a, x) = erfc(-eta sqrt(a/2)) / 2 - R,
#   R = exp(-a eta^2 / 2) / sqrt(2 pi a) * sum_k c_k(eta) a^-k,
#   c_k(eta) = sum_n d_{k,n} eta^n.
# It serves orders >= _TEMME_MIN_ORDER with |sigma| < _TEMME_MAX_SIGMA, where
# the classic series and continued fraction need O(sqrt(a)) iterations.
_TEMME_MIN_ORDER = 100.0
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
        floor = _TEMME_TOLERANCE * _TEMME_MIN_ORDER**k
        last = max(n for n, d in enumerate(row) if abs(d) * eta_max**n >= floor)
        bound = sum(abs(d) * eta_max**n for n, d in enumerate(row))
        reach = (bound / _TEMME_TOLERANCE) ** (1.0 / k) if k else math.inf
        rows.append((reach, row[last::-1]))
    return tuple(rows)


_TEMME_ROWS = _temme_rows()


def _temme_pair(order: float, x: float) -> tuple[float, float]:
    """(P, Q) from Temme's expansion; both sides directly, no complement."""
    sigma = (x - order) / order
    half_eta_sq = max(sigma - math.log1p(sigma), 0.0)
    eta = math.copysign(math.sqrt(2.0 * half_eta_sq), sigma)
    inv_order = 1.0 / order
    total, scale = 0.0, 1.0
    for reach, row in _TEMME_ROWS:
        if order > reach:
            break
        c_k = 0.0
        for d in row:
            c_k = c_k * eta + d
        total += c_k * scale
        scale *= inv_order
    r = math.exp(-order * half_eta_sq) * total / math.sqrt(2.0 * math.pi * order)
    y = eta * math.sqrt(0.5 * order)
    return 0.5 * math.erfc(-y) - r, 0.5 * math.erfc(y) + r


def _log_prefactor(order: float, x: float) -> float:
    """log(x^order e^-x / Gamma(order)) for x > 0.

    From _TEMME_MIN_ORDER on (where the Temme regime starts too),
    Stirling's series replaces lgamma (its tail
    1/(12a) - 1/(360a^3) + 1/(1260a^5) - 1/(1680a^7) is exact to 1e-21
    there) and cancels the terms of size a log a analytically; the direct
    form loses ~2e-11 relative by order 1e4.
    """
    if order < _TEMME_MIN_ORDER:
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


def _reg_gamma_pair(order: float, x: float) -> tuple[float, float]:
    """Return (P, Q) = (regularized lower, regularized upper) at (order, x)."""
    if x == 0.0:
        return 0.0, 1.0
    if order >= _TEMME_MIN_ORDER and abs(x - order) < _TEMME_MAX_SIGMA * order:
        return _temme_pair(order, x)
    return _classic_pair(order, x)


def _classic_pair(order: float, x: float) -> tuple[float, float]:
    """(P, Q) from the series or the continued fraction, for x > 0.

    The side that is computed directly is the numerically favourable one;
    the other is obtained by complementation.
    """
    log_pref = _log_prefactor(order, x)
    if log_pref < -745.0:
        # prefactor underflows: all the mass is on one side
        return (1.0, 0.0) if x > order else (0.0, 1.0)
    if x < order + 1.0:
        p = _lower_series(order, x, log_pref)
        return p, 1.0 - p
    q = _upper_continued_fraction(order, x, log_pref)
    return 1.0 - q, q


def _validate_gamma_args(order: float, x: float) -> tuple[float, float]:
    order = float(order)
    x = float(x)
    _require_finite("order", order)
    _require_finite("x", x)
    if order <= 0.0:
        raise ValueError(f"order must be > 0, got {order!r}")
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x!r}")
    return order, x


def reg_lower_gamma(order: float, x: float) -> float:
    """Regularized lower incomplete gamma P(order, x) in [0, 1]."""
    order, x = _validate_gamma_args(order, x)
    p, _ = _reg_gamma_pair(order, x)
    return min(max(p, 0.0), 1.0)


def reg_upper_gamma(order: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(order, x) in [0, 1].

    Pinned in the test suite for order in [0.5, 1e4] and x / order in
    [e^-6, e^2.5]: P and Q are each within 1e-11 relative of the reference
    wherever it is at least 1e-290. The reference is scipy.special, except
    at order >= 200 with |x - order| > 0.4 order, where scipy is itself
    only good to ~2e-11 and frozen 40-digit mpmath values stand in. Also
    within 1e-8 absolute of adaptive quadrature for order <= 200, x <= 400.
    """
    order, x = _validate_gamma_args(order, x)
    _, q = _reg_gamma_pair(order, x)
    return min(max(q, 0.0), 1.0)


def marcum_q(order: float, a: float, b: float) -> float:
    """Generalized Marcum Q-function Q_order(a, b) in [0, 1].

    Equals the probability that the square root of a noncentral chi-square
    variate with 2*order degrees of freedom and noncentrality a**2 exceeds
    b. Supports any real order > 0. Pinned against scipy.stats.ncx2.sf in
    the test suite: absolute error below 1e-8 for order <= 50, a, b <= 30,
    and below 1e-10 for order in [0.5, 5000] with a**2 <= order + 50 and
    b**2 within 8 standard deviations of the mean 2 * order + a**2.
    """
    order = float(order)
    a = float(a)
    b = float(b)
    _require_finite("order", order)
    _require_finite("a", a)
    _require_finite("b", b)
    if order <= 0.0:
        raise ValueError(f"order must be > 0, got {order!r}")
    if a < 0.0 or b < 0.0:
        raise ValueError(f"a and b must be >= 0, got a={a!r}, b={b!r}")

    if b == 0.0:
        return 1.0
    y = 0.5 * b * b
    if a == 0.0:
        # zero noncentrality: the mixture collapses to its central term
        return reg_upper_gamma(order, y)

    rate = 0.5 * a * a  # Poisson mixing rate
    mode = int(rate)
    log_weight = -rate - math.lgamma(mode + 1)
    if mode > 0:
        log_weight += mode * math.log(rate)
    weight_mode = math.exp(log_weight)

    tail_side = y > order + rate  # sum the small (upper) side directly
    p_mode, q_mode = _reg_gamma_pair(order + mode, y)
    g_mode = q_mode if tail_side else p_mode
    # D_j = y^(order+j) e^-y / Gamma(order+j+1), the recurrence increment
    log_d = _log_prefactor(order + mode, y) - math.log(order + mode)
    d_mode = math.exp(log_d) if log_d > -745.0 else 0.0

    total = weight_mode * g_mode
    mass = weight_mode

    # Expand outward from the mode, one step up and one step down per
    # iteration. The Poisson mass outside the summed window bounds the
    # truncation error; the mixture weights decay monotonically away from
    # the mode, so a march is also finished once its weight underflows the
    # term tolerance (floating drift can leave the accumulated mass a few
    # ulp short of 1, which must not count as non-convergence).
    w_up, g_up, d_up, j_up = weight_mode, g_mode, d_mode, mode
    w_dn, g_dn, d_dn, j_dn = weight_mode, g_mode, d_mode, mode
    up_active = True
    dn_active = mode > 0
    for _ in range(MAX_ITERATIONS):
        if 1.0 - mass < TERM_TOLERANCE or not (up_active or dn_active):
            break
        if up_active:
            g_up = g_up + d_up if tail_side else g_up - d_up
            g_up = min(max(g_up, 0.0), 1.0)
            d_up *= y / (order + j_up + 1.0)
            w_up *= rate / (j_up + 1.0)
            j_up += 1
            total += w_up * g_up
            mass += w_up
            if w_up < TERM_TOLERANCE:
                up_active = False
        if dn_active:
            d_dn *= (order + j_dn) / y
            g_dn = g_dn - d_dn if tail_side else g_dn + d_dn
            g_dn = min(max(g_dn, 0.0), 1.0)
            w_dn *= j_dn / rate
            j_dn -= 1
            total += w_dn * g_dn
            mass += w_dn
            if w_dn < TERM_TOLERANCE or j_dn == 0:
                dn_active = False
    else:
        raise ConvergenceError(
            f"marcum_q did not converge for order={order}, a={a}, b={b}"
        )

    result = total if tail_side else 1.0 - total
    return min(max(result, 0.0), 1.0)
