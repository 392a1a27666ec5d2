"""Tests for the closed-form key-rate engine.

High-precision expectations are computed with mpmath oracles written
directly from the formulas, then frozen as literals next to the oracle
call so a regression in either side is caught.
"""

import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest

from dicka import (
    CLASSICAL_BOUND,
    DomainError,
    EpsilonBudget,
    GHZState,
    ProtocolConfig,
    RateParams,
    TSIRELSON_BOUND,
    asymptotic_rate_cka,
    asymptotic_rate_diqkd,
    binary_entropy,
    completeness_bound,
    depolarize_each,
    finite_key_length,
    leak_ec_bounds,
    min_tradeoff_fhat,
    min_tradeoff_slope,
    pexp_formula,
    qber_to_pdep,
    quantum_win_probability,
    tangent_f,
    v_tilde,
)

mp.mp.dps = 50


def _budget(**overrides):
    values = dict(smooth=1e-8, pa=1e-8, ea=1e-8, ec_prime=1e-8, ec_tilde=1e-8)
    values.update(overrides)
    values.setdefault("ec", values["ec_prime"] + values["ec_tilde"])
    return EpsilonBudget(**values)


def _params(**overrides):
    values = dict(n_parties=3, mu=0.05, delta=0.80, qber=0.0, n_rounds=10**6, eps=_budget())
    values.update(overrides)
    return RateParams(**values)


# --- mpmath oracles --------------------------------------------------------

def _mp_h(x):
    if x == 0 or x == 1:
        return mp.mpf(0)
    return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)


def _mp_fhat(p_w, mu):
    s = 4 * p_w - 2
    x = (1 + mp.sqrt(s * s - 1)) / 2
    return (1 - mu / 2) * (1 - _mp_h(x))


def _mp_vtilde(p_opt, mu, eps, eps_ea, variant):
    s = 4 * p_opt / mu - 2
    g = mp.sqrt(s * s - 1)
    x = (1 + g) / 2
    slope = (1 - mu / 2) * mp.log(x / (1 - x), 2) * (2 / mu) * (s / g)
    term = slope / mu + 1 if variant == "main" else slope + 1
    eta = 1 - mp.sqrt(1 - (eps / 4) ** 2)
    return 2 * (mp.log(13, 2) + term) * mp.sqrt(1 - 2 * mp.log(eps * eps_ea, 2)) + 2 * mp.log(
        7, 2
    ) * mp.sqrt(-mp.log(eps_ea**2 * eta, 2))


# --- search oracle for the tangent point ------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _maximize_scalar(fn, lo: float, hi: float, grid_points: int, tol: float) -> float:
    """Global grid scan over the open interval, then golden-section refinement."""
    best_i, best_v = 0, -math.inf
    step = (hi - lo) / (grid_points + 1)
    for i in range(1, grid_points + 1):
        v = fn(lo + i * step)
        if v > best_v:
            best_i, best_v = i, v
    # the bracket may reach the open ends: golden section never evaluates them
    a = lo + (best_i - 1) * step
    b = lo + (best_i + 1) * step
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def _objective(params, p_opt):
    """Entropy term less second order at tangent point p_opt, as finite_key_length sums them."""
    n, mu, eps = params.n_rounds, params.mu, params.eps
    entropy = n * (tangent_f(mu * params.delta, p_opt, mu) - mu)
    return entropy - v_tilde(p_opt, mu, eps.smooth, eps.ea, params.variant) * math.sqrt(n)


def _oracle_delta(params):
    """delta_opt by a 2000-point grid scan refined by golden section to 1e-10 width."""
    return _maximize_scalar(
        lambda d: _objective(params, params.mu * d), CLASSICAL_BOUND, TSIRELSON_BOUND, 2000, 1e-10
    )


def _random_params(rng, variant):
    n_rounds = 0 if rng.random() < 0.03 else int(10 ** rng.uniform(2, 12))
    eps = _budget(smooth=10 ** rng.uniform(-15, -2), ea=10 ** rng.uniform(-15, -2))
    return RateParams(
        n_parties=int(rng.integers(2, 9)),
        mu=10 ** rng.uniform(-3, 0),
        delta=rng.uniform(0.7501, TSIRELSON_BOUND - 1e-4),
        qber=rng.uniform(0.0, 0.05),
        n_rounds=n_rounds,
        eps=eps,
        variant=variant,
    )


def test_binary_entropy_endpoints_and_half():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15


def test_binary_entropy_high_precision_value():
    oracle = float(_mp_h(mp.mpf("0.11")))
    assert abs(oracle - 0.4999159581645280) < 1e-15
    assert abs(binary_entropy(0.11) - oracle) < 1e-14


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.1)
    with pytest.raises(DomainError):
        binary_entropy(1.1)


def test_min_tradeoff_boundary_values():
    assert min_tradeoff_fhat(0.75, 0.05) == 0.0
    # at the quantum maximum the certified entropy saturates the prefactor
    for mu in (0.05, 0.3, 1.0):
        assert abs(min_tradeoff_fhat(TSIRELSON_BOUND, mu) / (1 - mu / 2) - 1.0) < 1e-12


def test_min_tradeoff_subclassical_clamp_and_domain():
    assert min_tradeoff_fhat(0.6, 0.1) == 0.0
    assert min_tradeoff_fhat(0.0, 0.1) == 0.0
    with pytest.raises(DomainError):
        min_tradeoff_fhat(TSIRELSON_BOUND + 1e-9, 0.1)
    with pytest.raises(DomainError):
        min_tradeoff_fhat(-0.01, 0.1)


def test_min_tradeoff_high_precision_value():
    oracle = float(_mp_fhat(mp.mpf("0.83"), mp.mpf("0.01")))
    assert abs(oracle - 0.6339327563587329) < 1e-15
    got = min_tradeoff_fhat(0.83, 0.01)
    assert 0.0 < got < 1.0
    assert abs(got - oracle) < 1e-13


def test_tangent_touches_curve_at_popt():
    for mu in (0.01, 0.05, 0.5):
        for d_opt in (0.76, 0.8, 0.84):
            p_opt = mu * d_opt
            assert abs(tangent_f(p_opt, p_opt, mu) - min_tradeoff_fhat(d_opt, mu)) < 1e-12


def test_tangent_is_support_line():
    rng = np.random.default_rng(41)
    for mu in (0.02, 0.05, 0.5):
        lo, hi = mu * CLASSICAL_BOUND, mu * TSIRELSON_BOUND
        grid = np.linspace(lo, hi, 1000)
        for _ in range(20):
            d_opt = float(rng.uniform(0.751, TSIRELSON_BOUND - 1e-4))
            p_opt = mu * d_opt
            for q1 in grid:
                q1 = float(min(max(q1, lo + 1e-15), mu))
                assert tangent_f(q1, p_opt, mu) <= min_tradeoff_fhat(q1 / mu, mu) + 1e-10


def test_slope_matches_finite_differences():
    for mu in (0.01, 0.05, 0.3):
        width = mu * (TSIRELSON_BOUND - CLASSICAL_BOUND)
        h = 1e-6 * width
        for d_opt in (0.77, 0.80, 0.84):
            p_opt = mu * d_opt
            analytic = min_tradeoff_slope(p_opt, mu)
            fd = (
                min_tradeoff_fhat((p_opt + h) / mu, mu) - min_tradeoff_fhat((p_opt - h) / mu, mu)
            ) / (2 * h)
            assert abs(analytic - fd) / abs(fd) < 1e-6


def test_tangent_domain_errors():
    with pytest.raises(DomainError):
        tangent_f(0.01, 0.05 * 0.75, 0.05)  # p_opt at the closed boundary
    with pytest.raises(DomainError):
        tangent_f(0.06, 0.04, 0.05)  # q1 above mu


def test_v_tilde_positive_and_monotone_in_ea():
    previous = 0.0
    for eps_ea in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        value = v_tilde(0.04, 0.05, 1e-8, eps_ea)
        assert value > 0
        assert value > previous
        previous = value


def test_v_tilde_rejects_eps_below_floor():
    # the same [1e-150, 1) domain as EpsilonBudget: below it the logarithms fail
    for eps_smooth, eps_ea in ((1e-200, 1e-8), (1e-8, 1e-200), (9.9e-151, 1e-8), (1e-8, 1.0), (0.0, 1e-8)):
        with pytest.raises(DomainError):
            v_tilde(0.04, 0.05, eps_smooth, eps_ea)
    assert math.isfinite(v_tilde(0.04, 0.05, 1e-150, 1e-150))


def test_v_tilde_high_precision_values():
    oracle_main = float(_mp_vtilde(mp.mpf("0.04"), mp.mpf("0.05"), mp.mpf("1e-6"), mp.mpf("1e-6"), "main"))
    oracle_app = float(_mp_vtilde(mp.mpf("0.04"), mp.mpf("0.05"), mp.mpf("1e-6"), mp.mpf("1e-6"), "appendix"))
    assert abs(oracle_main - 58573.469651355426) < 1e-6
    assert abs(oracle_app - 3058.0126434488644) < 1e-9
    assert abs(v_tilde(0.04, 0.05, 1e-6, 1e-6, "main") - oracle_main) / oracle_main < 1e-12
    assert abs(v_tilde(0.04, 0.05, 1e-6, 1e-6, "appendix") - oracle_app) / oracle_app < 1e-12


def test_leak_bounds_limits():
    # Q = 0: Alice's linear term collapses to the test fraction, same as a Bob's
    la, lb = leak_ec_bounds(_params(qber=0.0, mu=0.05))
    assert abs(la - lb) < 1e-6
    # mu = 1: every round is disclosed, linear term is n
    params = _params(mu=1.0, delta=0.8, qber=0.1)
    la1, _ = leak_ec_bounds(params)
    n = params.n_rounds
    et = params.eps.ec_tilde
    corr = 4 * math.log2(2 * math.sqrt(2) + 1) * math.sqrt(2 * (3 - 2 * math.log2(et))) * math.sqrt(n)
    const = math.log2(8 / et**2 + 2 / (2 - et))
    assert abs(la1 - (n + corr + const)) < 1e-6


def test_leak_bounds_high_precision_values():
    params = _params(qber=0.05, mu=0.05, n_rounds=10**6)
    la, lb = leak_ec_bounds(params)
    et = mp.mpf("1e-8")
    n = mp.mpf(10) ** 6
    corr = mp.sqrt(n) * 4 * mp.log(2 * mp.sqrt(2) + 1, 2) * mp.sqrt(2 * mp.log(8 / et**2, 2))
    const = mp.log(8 / et**2 + 2 / (2 - et), 2)
    mu = mp.mpf("0.05")
    oracle_a = float(n * ((1 - mu) * _mp_h(mp.mpf("0.05")) + mu) + corr + const)
    oracle_b = float(n * mu + corr + const)
    assert abs(oracle_a - 404230.2288501161) < 1e-6
    assert abs(oracle_b - 132153.11958995776) < 1e-6
    assert abs(la - oracle_a) / oracle_a < 1e-12
    assert abs(lb - oracle_b) / oracle_b < 1e-12


def test_finite_key_length_zero_at_full_testing():
    bd = finite_key_length(_params(mu=1.0, delta=0.8))
    assert bd.key_length == 0
    assert bd.raw_length < 0


def test_finite_key_breakdown_identity():
    bd = finite_key_length(_params(n_rounds=10**10, mu=0.1, delta=0.82, qber=0.01))
    resummed = (
        bd.entropy_term
        - bd.second_order
        + bd.smoothing_term
        - bd.pa_term
        - bd.leak_alice
        - bd.leak_bobs
    )
    assert abs(resummed - bd.raw_length) < 1e-9
    if bd.raw_length >= 0:
        assert bd.key_length == math.floor(bd.raw_length)
    assert CLASSICAL_BOUND < bd.p_opt_chosen / 0.1 < TSIRELSON_BOUND


def test_key_length_terms_outside_the_float_range_are_a_domain_error():
    # the main variant's second order grows as sqrt(n) / mu**2: inf at mu = 1e-154,
    # and NaN at n = 0 (inf * 0); the mu limit depends on n, so the sum is checked
    for mu, n_rounds in ((1e-155, 0), (1e-155, 1), (1e-155, 10**10), (1e-300, 10**6), (1e-150, 10**300)):
        with pytest.raises(DomainError, match=re.escape(f"mu = {mu!r}, n = {n_rounds}, main variant")):
            finite_key_length(_params(mu=mu, n_rounds=n_rounds))
    assert finite_key_length(_params(mu=1e-150, n_rounds=1)).key_length == 0
    assert finite_key_length(_params(mu=1e-300, n_rounds=10**6, variant="appendix")).key_length == 0


def test_finite_key_optimum_reaches_the_classical_end():
    # here the objective rises toward delta_opt = 3/4, so the tangent point
    # clamps to that open end
    params = _params(n_rounds=10**8, mu=0.02, delta=0.84, qber=0.01)
    bd = finite_key_length(params)
    assert bd.entropy_term - bd.second_order == _objective(params, bd.p_opt_chosen)
    assert _objective(params, bd.p_opt_chosen) >= _objective(params, params.mu * (CLASSICAL_BOUND + 1e-7))


def test_closed_form_tangent_point_matches_search_oracle():
    rng = np.random.default_rng(2024)
    interior = clamped = zero_rounds = near_integer = 0
    for i in range(320):
        params = _random_params(rng, ("main", "appendix")[i % 2])
        mu = params.mu
        bd = finite_key_length(params)
        assert mu * CLASSICAL_BOUND < bd.p_opt_chosen < mu * TSIRELSON_BOUND
        delta_opt = bd.p_opt_chosen / mu
        oracle_delta = _oracle_delta(params)
        value = _objective(params, bd.p_opt_chosen)
        oracle_value = _objective(params, mu * oracle_delta)
        assert value == bd.entropy_term - bd.second_order
        tol = 1e-9 * max(1.0, abs(oracle_value))
        assert value >= oracle_value - tol, (params, delta_opt, oracle_delta)
        if delta_opt > CLASSICAL_BOUND + 1e-10:
            interior += 1
            assert abs(delta_opt - oracle_delta) <= 1e-7, (params, delta_opt, oracle_delta)
        else:
            clamped += 1
        zero_rounds += params.n_rounds == 0
        oracle_raw = bd.raw_length - value + oracle_value
        if bd.key_length != max(0, math.floor(oracle_raw)):
            # only an integer between the two raw lengths can split them
            near_integer += 1
            assert abs(bd.raw_length - round(bd.raw_length)) <= tol, (params, bd.raw_length, oracle_raw)
    assert interior >= 50 and clamped >= 50 and zero_rounds >= 3
    assert near_integer <= 3


def test_objective_slope_changes_sign_at_interior_optimum():
    cases = [
        _params(n_rounds=10**10, mu=0.1, delta=0.82, qber=0.01),
        _params(n_rounds=10**12, mu=0.05, delta=0.84, eps=_budget(smooth=1e-12, ea=1e-4)),
        _params(n_rounds=10**8, mu=0.5, delta=0.8),
    ]
    for base in cases:
        for variant in ("main", "appendix"):
            params = RateParams(**{**vars(base), "variant": variant})
            p_star = finite_key_length(params).p_opt_chosen
            h = 1e-3 * (p_star - params.mu * CLASSICAL_BOUND)
            assert h > 1e-9 * params.mu  # an interior optimum, not the clamped end

            def slope(p, e=h / 4):
                return (_objective(params, p + e) - _objective(params, p - e)) / (2 * e)

            assert slope(p_star - h) > 0 > slope(p_star + h), (params, p_star)


def test_finite_key_convergence_toward_asymptotic_rate():
    # mu = n^(-1/10), delta at the honest expectation; the ratio climbs
    # toward the asymptotic rate from below
    qber = 0.01
    target = asymptotic_rate_cka(3, qber)
    delta = pexp_formula(3, qber)
    previous = -1.0
    for n in (10**6, 10**8, 10**10, 10**12):
        mu = n ** (-0.1)
        bd = finite_key_length(_params(n_rounds=n, mu=mu, delta=delta, qber=qber))
        ratio = bd.key_length / n
        assert ratio >= previous
        assert ratio <= target
        previous = ratio
    assert previous > 0


def test_key_length_monotone_in_qber_and_eps():
    base = dict(n_rounds=10**10, mu=0.1, delta=0.78)
    lengths = [
        finite_key_length(_params(qber=q, **base)).key_length for q in (0.0, 0.01, 0.02, 0.03)
    ]
    assert all(a >= b for a, b in zip(lengths, lengths[1:]))
    for name in ("smooth", "pa", "ea", "ec_tilde"):
        loose = finite_key_length(_params(eps=_budget(**{name: 1e-4}), **base)).key_length
        tight = finite_key_length(_params(eps=_budget(**{name: 1e-12}), **base)).key_length
        assert tight <= loose


def test_completeness_bound_value_and_limits():
    params = _params(n_rounds=10**5, mu=0.05, delta=0.79)
    p_exp = 0.84
    got = completeness_bound(params, p_exp)
    gap = mp.mpf("0.84") - mp.mpf("0.79")
    oracle = float(
        2 * (2 * mp.mpf("2e-8") + mp.mpf("1e-8"))
        + (1 - mp.mpf("0.05") * (1 - mp.exp(-2 * gap**2))) ** (10**5)
    )
    assert abs(oracle - 1.0001473620132920e-07) < 1e-21
    assert abs(got - oracle) / oracle < 1e-12
    # threshold at the expectation: the tail term approaches one
    close = completeness_bound(_params(n_rounds=10**5, mu=0.05, delta=0.79), 0.79 + 1e-9)
    assert close > 0.999
    # huge n: the tail term vanishes
    large = completeness_bound(_params(n_rounds=10**9, mu=0.05, delta=0.79), 0.84)
    assert large < 1e-7 + 1e-12


def test_completeness_bound_precondition():
    with pytest.raises(DomainError):
        completeness_bound(_params(delta=0.8), 0.8)


def test_qber_pdep_round_trip():
    assert qber_to_pdep(0.0) == 0.0
    for q in (0.0, 0.01, 0.1, 0.3, 0.49):
        p = qber_to_pdep(q)
        assert abs((2.0 * p - p**2) / 2.0 - q) < 1e-14
    assert qber_to_pdep(0.499999) > 0.998
    with pytest.raises(DomainError):
        qber_to_pdep(0.5)


def test_pexp_limits():
    for n in (2, 3, 5, 7):
        assert abs(pexp_formula(n, 0.0) - TSIRELSON_BOUND) < 1e-15
        assert abs(pexp_formula(n, 0.4999999) - 0.5) < 1e-3


def test_pexp_matches_exact_simulation():
    for n in (2, 3, 4, 5, 6):
        for qber in (0.0, 0.01, 0.03, 0.05):
            state = depolarize_each(GHZState(n), qber_to_pdep(qber))
            sim = quantum_win_probability(state)
            assert abs(sim - pexp_formula(n, qber)) < 1e-9


def test_asymptotic_rates_at_zero_noise():
    for n in (2, 3, 4, 5, 6, 7):
        assert abs(asymptotic_rate_cka(n, 0.0) - 1.0) < 1e-12
        assert abs(asymptotic_rate_diqkd(n, 0.0) - 1.0 / (n - 1)) < 1e-12


def test_rate_ordering_and_crossover():
    for n in (3, 4, 5, 6, 7):
        assert asymptotic_rate_cka(n, 0.0) > asymptotic_rate_diqkd(n, 0.0)
    # crossover within the plotted noise range for three parties
    diffs = [asymptotic_rate_cka(3, q) - asymptotic_rate_diqkd(3, q) for q in np.arange(0.0, 0.0501, 0.001)]
    assert diffs[0] > 0
    assert min(diffs) < 0


def test_rate_monotone_decreasing():
    grid = np.linspace(0.0, 0.04, 81)
    values = [asymptotic_rate_cka(3, float(q)) for q in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_rate_zero_roots_regression():
    # bisection to 1e-10; the roots are regression constants for this code base
    expected = {
        3: 0.059248088298,
        4: 0.051030296837,
        5: 0.045041084406,
        6: 0.040440131582,
        7: 0.036773011692,
    }
    for n, root in expected.items():
        lo, hi = 1e-6, 0.25
        assert asymptotic_rate_cka(n, lo) > 0 > asymptotic_rate_cka(n, hi)
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2
            if asymptotic_rate_cka(n, mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs((lo + hi) / 2 - root) < 1e-9


def test_rate_clamps_below_classical_violation():
    # far beyond the root the certified violation is sub-classical: rate = -h(Q)
    q = 0.2
    assert abs(asymptotic_rate_cka(3, q) - (-binary_entropy(q))) < 1e-12


def test_asymptotic_rate_uses_its_own_beta_not_p_exp():
    # beta = 1/2 + (3 F^N + F^2) / (8 sqrt 2), F = sqrt(1 - 2Q): below the Born-rule
    # p_exp = 1/2 + (F^N + F^2) / (4 sqrt 2) by (F^2 - F^N) / (8 sqrt 2)
    for n in range(2, 9):
        for q in (0.0, 1e-4, 0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.45):
            f = math.sqrt(1.0 - 2.0 * q)
            beta = 0.5 + (3.0 * f**n + f**2) / (8.0 * math.sqrt(2.0))
            arg = 16.0 * (beta - 0.5) ** 2 - 1.0
            certified = 1.0 if arg <= 0 else binary_entropy(0.5 + 0.5 * math.sqrt(arg))
            assert abs(asymptotic_rate_cka(n, q) - (1.0 - certified - binary_entropy(q))) < 1e-12
            gap = pexp_formula(n, q) - beta
            assert gap > -1e-15
            assert (abs(gap) < 1e-15) == (n == 2 or q == 0.0)


def test_budget_validation():
    with pytest.raises(DomainError):
        EpsilonBudget(smooth=1e-8, pa=1e-8, ea=1e-8, ec=1e-8, ec_prime=1e-8, ec_tilde=1e-8)
    # no epsilon below 1e-150: there (eps/4)^2 and 8/eps^2 leave the float range
    for name in ("smooth", "pa", "ea", "ec_prime", "ec_tilde"):
        with pytest.raises(DomainError):
            _budget(**{name: 9.9e-151})
    _budget(smooth=1e-150, pa=1e-150, ea=1e-150, ec_prime=1e-150, ec_tilde=1e-150)
    with pytest.raises(DomainError):
        _params(delta=0.75)
    with pytest.raises(DomainError):
        _params(delta=TSIRELSON_BOUND)
    with pytest.raises(DomainError):
        _params(qber=0.5)
    with pytest.raises(DomainError):
        _params(variant="footnote")


def test_n_rounds_must_be_an_integer():
    # an integer beyond the largest float would crash math.sqrt(n) and n * (...)
    for bad in (10.5, 1e6, -1, "1000", int(sys.float_info.max) + 1, 10**309):
        with pytest.raises(DomainError):
            _params(n_rounds=bad)
    assert _params(n_rounds=int(sys.float_info.max)).n_rounds == int(sys.float_info.max)
    with pytest.raises(DomainError):
        ProtocolConfig(n_parties=3, n_rounds=10.5, mu=0.1, delta=0.78, qber=0.0, eps=_budget(), rng_seed=1)
    assert _params(n_rounds=np.int64(1000)).n_rounds == 1000


def test_n_parties_must_be_an_integer():
    # a float party count used to pass: 3.5 charged leak_bobs for 2.5 Bobs
    def config(n):
        return ProtocolConfig(n_parties=n, n_rounds=1000, mu=0.1, delta=0.78, qber=0.0, eps=_budget(), rng_seed=1)

    entry_points = (
        lambda n: _params(n_parties=n),
        config,
        lambda n: pexp_formula(n, 0.01),
        lambda n: asymptotic_rate_cka(n, 0.01),
        lambda n: asymptotic_rate_diqkd(n, 0.01),
    )
    for entry_point in entry_points:
        for bad in (3.5, 3.0):
            with pytest.raises(DomainError):
                entry_point(bad)
    assert _params(n_parties=np.int64(3)).n_parties == 3
    assert config(np.int64(3)).n_parties == 3
    assert pexp_formula(np.int64(3), 0.01) == pexp_formula(3, 0.01)
    assert asymptotic_rate_cka(np.int64(3), 0.01) == asymptotic_rate_cka(3, 0.01)
    assert asymptotic_rate_diqkd(np.int64(3), 0.01) == asymptotic_rate_diqkd(3, 0.01)


# one call per entry point that checks the parameter; all share one check each
_OUT_OF_DOMAIN = {
    "n_parties-RateParams": lambda: _params(n_parties=1),
    "n_parties-pexp_formula": lambda: pexp_formula(1, 0.01),
    "n_parties-asymptotic_rate_cka": lambda: asymptotic_rate_cka(1, 0.01),
    "n_parties-asymptotic_rate_diqkd": lambda: asymptotic_rate_diqkd(1, 0.01),
    "qber-RateParams": lambda: _params(qber=0.5),
    "qber-qber_to_pdep": lambda: qber_to_pdep(-0.01),
    "qber-asymptotic_rate_cka": lambda: asymptotic_rate_cka(3, 0.5),
    "qber-asymptotic_rate_diqkd": lambda: asymptotic_rate_diqkd(3, -0.01),
    "mu-RateParams": lambda: _params(mu=0.0),
    "mu-min_tradeoff_fhat": lambda: min_tradeoff_fhat(0.8, 1.5),
    "mu-min_tradeoff_slope": lambda: min_tradeoff_slope(1.0, 1.2),
    "mu-v_tilde": lambda: v_tilde(1.0, 1.2, 1e-8, 1e-8),
    "variant-RateParams": lambda: _params(variant="footnote"),
    "variant-v_tilde": lambda: v_tilde(0.04, 0.05, 1e-8, 1e-8, "footnote"),
}


@pytest.mark.parametrize("name", sorted(_OUT_OF_DOMAIN))
def test_each_domain_check_is_shared(name):
    with pytest.raises(DomainError):
        _OUT_OF_DOMAIN[name]()
