"""Acceptance suite: every release criterion with its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The figure sweeps dominate the runtime (seconds each
at 1e5 trials per point); everything else runs in seconds too.
"""

import itertools
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import integrate

from coopsense.cli_experiments import CSV_COLUMNS, resolve_spec_path, run_experiment
from coopsense.detector import AnalyticFamily, DetectorConfig, analytic_pd, analytic_pf
from coopsense.fusion import FusionConfig, cooperative_rates, optimize_vote_count
from coopsense.montecarlo import Scenario, SchemeKind, SweepDraws, estimate, wilson_interval
from coopsense.noise_model import NoiseUncertaintyModel, VarianceBracket, two_sided_kappa
from coopsense.specfun import marcum_q, reg_upper_gamma


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    return [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def fig2_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig2")
    first = run_experiment(
        resolve_spec_path("fig2"), out_path=base / "run1.csv", workers=2, quiet=True
    )
    second = run_experiment(
        resolve_spec_path("fig2"), out_path=base / "run2.csv", workers=1, quiet=True
    )
    return first, second


@pytest.fixture(scope="module")
def fig4_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig4")
    return run_experiment(
        resolve_spec_path("fig4"), out_path=base / "run.csv", workers=2, quiet=True
    )


def test_criterion_1_special_function_oracles():
    """reg_upper_gamma vs quadrature (1e-8); marcum_q vs 1e7-draw tails (4 SE)."""
    gamma_grid = [
        (order, x)
        for order in (1.0, 2.0, 3.0, 5.0, 20.0, 50.0, 200.0)
        for x in (0.0, 0.5, 5.0, 15.0, 50.0, 200.0, 400.0)
    ]
    worst_gamma = 0.0
    for order, x in gamma_grid:
        if x == 0.0:
            oracle = 1.0
        else:
            lg = math.lgamma(order)
            f = lambda t: math.exp((order - 1.0) * math.log(t) - t - lg)
            mode = max(x, order - 1.0)
            head, _ = integrate.quad(f, x, mode, limit=400)
            tail, _ = integrate.quad(f, mode, np.inf, limit=400)
            oracle = head + tail
        worst_gamma = max(worst_gamma, abs(reg_upper_gamma(order, x) - oracle))

    marcum_grid = [
        (1.0, 1.0, 1.0),
        (2.0, 1.0, 2.0),
        (5.0, math.sqrt(0.2), math.sqrt(30.0)),
        (10.0, 2.0, 6.0),
        (1.0, 0.5, 1.5),
        (20.0, 5.0, 8.0),
    ]
    draws = 10**7
    rng = np.random.default_rng(12345)
    worst_sigma = 0.0
    for order, a, b in marcum_grid:
        sample = rng.noncentral_chisquare(2.0 * order, a * a, size=draws)
        phat = float(np.mean(sample > b * b))
        se = math.sqrt(max(phat * (1.0 - phat), 1e-12) / draws)
        worst_sigma = max(worst_sigma, abs(marcum_q(order, a, b) - phat) / se)

    report(
        1,
        worst_gamma <= 1e-8 and worst_sigma <= 4.0,
        f"gamma worst abs err {worst_gamma:.2e} (<=1e-8), "
        f"marcum worst deviation {worst_sigma:.2f} SE (<=4)",
    )


def test_criterion_2_closed_form_vs_simulation():
    """Fixed scheme at (u=5, threshold=30, SNR=-10 dB): empirical P_f and
    P_d within 4 Wilson half-widths of the closed forms at 1e6 trials."""
    scenario = Scenario(
        detector=DetectorConfig(sample_count=5, threshold=30.0),
        noise=NoiseUncertaintyModel(1.0, VarianceBracket(1.0, 1.0)),
        fusion=FusionConfig(num_sus=1, vote_threshold=1, prior_h0=0.5),
        snr_db=-10.0,
        trials=10**6,
        seed=20250809,
        family=AnalyticFamily.CHI_SQUARE,
    )
    with ProcessPoolExecutor(max_workers=2) as pool:
        draws = SweepDraws([scenario], 2, pool)
        result = estimate(scenario, SchemeKind.FIXED, draws=draws)
    pf_ref = analytic_pf(5.0, 30.0)
    pd_ref = analytic_pd(5.0, 0.1, 30.0)
    lower_f, upper_f = wilson_interval(result.p_f.successes, result.p_f.observations)
    lower_d, upper_d = wilson_interval(result.p_d.successes, result.p_d.observations)
    half_f = (upper_f - lower_f) / 2.0
    half_d = (upper_d - lower_d) / 2.0
    pf_ok = abs(result.p_f.value - pf_ref) <= 4.0 * half_f
    pd_ok = abs(result.p_d.value - pd_ref) <= 4.0 * half_d
    report(
        2,
        pf_ok and pd_ok,
        f"pf {result.p_f.value:.6f} vs {pf_ref:.6f} "
        f"(|d|={abs(result.p_f.value - pf_ref):.2e}, 4hw={4 * half_f:.2e}); "
        f"pd {result.p_d.value:.6f} vs {pd_ref:.6f} "
        f"(|d|={abs(result.p_d.value - pd_ref):.2e}, 4hw={4 * half_d:.2e})",
    )


def test_criterion_3_fusion_enumeration():
    """cooperative_rates' Q_f / Q_m equal exhaustive 2^K enumeration within
    1e-12 for all K <= 10 over a 5x5 probability grid."""
    coarse = [0.02, 0.21, 0.50, 0.79, 0.98]
    offsets = [-0.015, -0.005, 0.0, 0.005, 0.015]
    probabilities = [p + d for p in coarse for d in offsets]
    worst = 0.0
    for num_sus in range(1, 11):
        outcomes = list(itertools.product((0, 1), repeat=num_sus))
        for p in probabilities:
            weights = [
                math.prod(p if b else 1.0 - p for b in bits) for bits in outcomes
            ]
            counts = [sum(bits) for bits in outcomes]
            for n in range(1, num_sus + 1):
                oracle = sum(
                    w for w, c in zip(weights, counts) if c >= n
                )
                rates = cooperative_rates(FusionConfig(num_sus, n), p, p)
                worst = max(worst, abs(rates.q_f - oracle))
                worst = max(worst, abs(rates.q_m - (1.0 - oracle)))
    report(3, worst <= 1e-12, f"worst |difference| {worst:.2e} (<=1e-12)")


def test_criterion_4_reduction_identity(fig2_runs, fig4_run):
    """Every component expects the bracket mean, so the convex scheme is the
    expectation rule exactly: in the bundled fig2 and fig4 sweeps, each
    convex row equals the expectation row at its sweep value in every
    column but the scheme."""
    pairs = mismatched = 0
    for path in (fig2_runs[0], fig4_run):
        rows = read_rows(path)
        by_scheme = {
            scheme: {r["sweep_value"]: r for r in rows if r["scheme"] == scheme}
            for scheme in ("convex", "expectation")
        }
        assert by_scheme["convex"].keys() == by_scheme["expectation"].keys()
        for value, convex in by_scheme["convex"].items():
            expectation = by_scheme["expectation"][value]
            pairs += 1
            mismatched += any(
                convex[c] != expectation[c] for c in CSV_COLUMNS if c != "scheme"
            )
    report(
        4,
        pairs > 0 and mismatched == 0,
        f"{mismatched} of {pairs} fig2/fig4 convex rows differ from the "
        f"expectation row at their sweep value (0)",
    )


def test_criterion_5_confidence_constant():
    """Two-sided normal quantile at confidence 0.99 is 2.58 to 2 decimals."""
    kappa = two_sided_kappa(0.99)
    report(5, round(kappa, 2) == 2.58, f"kappa(0.99) = {kappa:.4f} -> {round(kappa, 2)}")


def test_criterion_6_optimal_vote_count():
    """optimize_vote_count matches an independent exhaustive oracle on 100
    random tuples, exactly."""

    def oracle(num_sus, p_f, p_d, alpha):
        best = None
        for n in range(1, num_sus + 1):
            tail_f = sum(
                math.comb(num_sus, l) * p_f**l * (1 - p_f) ** (num_sus - l)
                for l in range(n, num_sus + 1)
            )
            tail_d = sum(
                math.comb(num_sus, l) * p_d**l * (1 - p_d) ** (num_sus - l)
                for l in range(n, num_sus + 1)
            )
            qe = alpha * tail_f + (1 - alpha) * (1 - tail_d)
            if best is None or qe < best[1]:
                best = (n, qe)
        return best

    rng = np.random.default_rng(606060)
    mismatches = 0
    for _ in range(100):
        num_sus = int(rng.integers(1, 21))
        p_f, p_d, alpha = (float(v) for v in rng.random(3))
        n_star, qe_star = optimize_vote_count(num_sus, p_f, p_d, alpha)
        n_ref, qe_ref = oracle(num_sus, p_f, p_d, alpha)
        if n_star != n_ref or abs(qe_star - qe_ref) > 1e-12:
            mismatches += 1
    report(6, mismatches == 0, f"{mismatches} mismatches out of 100 tuples")


def test_criterion_7a_fig2_missed_detection_monotone(fig2_runs):
    """Bundled fig2 sweep: empirical missed detection is nonincreasing in
    SNR for every scheme."""
    rows = read_rows(fig2_runs[0])
    failures = []
    for scheme in ["fixed", "two_step", "expectation", "convex"]:
        curve = [
            (float(r["sweep_value"]), 1.0 - float(r["pd"]))
            for r in rows
            if r["scheme"] == scheme
        ]
        curve.sort()
        pm = [value for _, value in curve]
        if not all(a >= b - 1e-12 for a, b in zip(pm, pm[1:])):
            failures.append(scheme)
    report(7, not failures, f"fig2 P_m nonincreasing per scheme (violations: {failures})")


def test_criterion_7b_fig4_total_error_shape(fig4_run):
    """Bundled fig4 sweep at -10 dB: every enhanced-scheme Q_e stays below
    the 0.1 benchmark, with an interior minimum followed by growth."""
    rows = read_rows(fig4_run)
    proposed = ["two_step", "expectation", "convex"]
    below = True
    worst = 0.0
    for r in rows:
        if r["scheme"] in proposed:
            qe = float(r["qe"])
            worst = max(worst, qe)
            below = below and qe < 0.1
    curve = sorted(
        (int(r["sweep_value"]), float(r["qe"]))
        for r in rows
        if r["scheme"] == "expectation"
    )
    values = [qe for _, qe in curve]
    argmin = values.index(min(values))
    interior_min = 0 < argmin < len(values) - 1
    grows_after = values[-1] > min(values)
    report(
        7,
        below and interior_min and grows_after,
        f"fig4 proposed max Q_e {worst:.4f} (<0.1), minimum at "
        f"K={curve[argmin][0]} (interior: {interior_min}), "
        f"Q_e(K={curve[-1][0]})={values[-1]:.4f} > min {min(values):.4f}",
    )


def test_criterion_8_byte_identical_reruns(fig2_runs):
    """Re-running a bundled spec with the same seed and a different worker
    count yields a byte-identical CSV."""
    first, second = fig2_runs
    identical = first.read_bytes() == second.read_bytes()
    report(8, identical, f"fig2 with workers=2 vs workers=1 byte-identical: {identical}")
