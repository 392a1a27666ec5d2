"""Closed-form key-rate engine.

Contains every analytic ingredient of the security accounting: binary
entropy, the convex min-tradeoff bound on certified one-round entropy as a
function of the winning probability, its affine tangent, the entropy
accumulation second-order coefficient, error-correction leakage bounds, the
finite-size key length with its tangent point (the key length is derived
from the one signed sum ``KeyLengthBreakdown.raw_length``), the completeness
(honest-abort) bound, and the asymptotic rates of the conference-key
protocol and of the (N-1)-pairwise-QKD baseline.  The conference-key rate
takes its own winning probability beta, which is below the simulator's
p_exp for N >= 3 and Q > 0 (``asymptotic_rate_cka``).

All logarithms are base 2 except the exponential inside the Hoeffding-style
completeness bound, which is natural.

Two published variants of the second-order coefficient and the
privacy-amplification penalty circulate; they differ by a 1/mu factor on
the tradeoff slope and by a factor 2 on log(1/eps_PA).  The ``variant``
switch ("main", the default, or "appendix") selects between them and
changes nothing else.

The tangent point.  With f(p) = min_tradeoff_fhat(p / mu, mu) and
q1 = mu delta, the key length depends on the tangent point p only through
O(p) = n (f(p) + f'(p) (q1 - p) - mu) - sqrt(n) v_tilde(p), and v_tilde is
affine in f'(p) with coefficient K = 2 A / d, A = sqrt(1 - 2 log2(eps_smooth
eps_EA)) and d = ``_slope_divisor`` = mu ("main") or 1 ("appendix"); so
O'(p) = f''(p) (n (q1 - p) - K sqrt(n)).
f is strictly convex on (3 mu/4, mu Tsirelson): f'(p) is a positive constant
times s artanh(g) / g, s = 4 p / mu - 2 and g = sqrt(s^2 - 1) all growing in
p.  So O peaks at p* = q1 - K / sqrt(n) < mu Tsirelson.  When p* lies at or
below 3 mu/4 (n = 0 included), O falls on the whole interval and the tangent
point is taken at delta_opt = 3/4 + 4.5e-11, next to that open end.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

from .errors import DomainError

SQRT2 = math.sqrt(2.0)

#: Maximum winning probability attainable by quantum strategies.
TSIRELSON_BOUND = 0.5 + 0.5 / SQRT2

#: Maximum winning probability attainable by classical strategies.
CLASSICAL_BOUND = 0.75

_VARIANTS = ("main", "appendix")

_LOG2_13 = math.log2(13.0)
_LOG2_7 = math.log2(7.0)

# Smallest accepted epsilon.  Below about 6e-154, (eps/4)^2 underflows to 0
# and 8/eps^2 overflows, so the key-length terms stop being finite.
_EPS_FLOOR = 1e-150

# delta_opt - 3/4 when the tangent point clamps to the open classical end.  The
# objective falls away from that end, so this gap scores no lower than the
# 4.50066e-11 at which the grid-plus-golden-section search used to stop.
_END_GAP = 4.5e-11


def _check_parties(n_parties: int) -> None:
    if not isinstance(n_parties, numbers.Integral) or n_parties < 2:
        raise DomainError(f"need at least 2 parties, as an integer, got {n_parties!r}")


def _check_qber(qber: float) -> None:
    if not 0.0 <= qber < 0.5:
        raise DomainError(f"qber must lie in [0, 1/2), got {qber!r}")


def _check_mu(mu: float) -> None:
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"mu must lie in (0, 1], got {mu!r}")


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _check_eps(name: str, value: float) -> None:
    if not _EPS_FLOOR <= value < 1.0:
        raise DomainError(f"{name} must lie in [{_EPS_FLOOR:g}, 1), got {value!r}")


@dataclass(frozen=True)
class EpsilonBudget:
    """Security-parameter budget.

    ``smooth`` is the smoothing parameter, ``pa`` the privacy-amplification
    error, ``ea`` the entropy-accumulation security parameter, ``ec`` /
    ``ec_prime`` / ``ec_tilde`` the error-correction abort, residual-error
    and information-bound parameters.  All lie in [1e-150, 1) and
    ec = ec_tilde + ec_prime.
    """

    smooth: float
    pa: float
    ea: float
    ec: float
    ec_prime: float
    ec_tilde: float

    def __post_init__(self) -> None:
        for field in fields(self):
            _check_eps(f"eps_{field.name}", getattr(self, field.name))
        if abs(self.ec - (self.ec_prime + self.ec_tilde)) > 1e-12 * self.ec:
            raise DomainError(
                f"eps_ec must equal eps_ec_tilde + eps_ec_prime "
                f"({self.ec!r} != {self.ec_tilde!r} + {self.ec_prime!r})"
            )


@dataclass(frozen=True)
class RateParams:
    """Everything the finite-size accounting needs.

    n_parties N >= 2, test probability mu in (0, 1], abort threshold delta
    strictly inside (3/4, Tsirelson), QBER in [0, 1/2), number of rounds
    n >= 0 (an integer), the epsilon budget, and the formula variant.
    """

    n_parties: int
    mu: float
    delta: float
    qber: float
    n_rounds: int
    eps: EpsilonBudget
    variant: str = "main"

    def __post_init__(self) -> None:
        _check_parties(self.n_parties)
        _check_mu(self.mu)
        if not CLASSICAL_BOUND < self.delta < TSIRELSON_BOUND:
            raise DomainError(f"delta must lie strictly in (3/4, Tsirelson), got {self.delta!r}")
        _check_qber(self.qber)
        if not isinstance(self.n_rounds, numbers.Integral) or not 0 <= self.n_rounds <= sys.float_info.max:
            raise DomainError(f"n_rounds must be a nonnegative integer that fits a float, got {self.n_rounds!r}")
        _check_variant(self.variant)


@dataclass(frozen=True)
class KeyLengthBreakdown:
    """Signed additive terms of the finite-size key length.

    raw_length = entropy_term - second_order + smoothing_term - pa_term
               - leak_alice - leak_bobs, and key_length = max(0, floor(raw)).
    """

    entropy_term: float
    second_order: float
    smoothing_term: float
    pa_term: float
    leak_alice: float
    leak_bobs: float
    p_opt_chosen: float

    @property
    def raw_length(self) -> float:
        return (
            self.entropy_term
            - self.second_order
            + self.smoothing_term
            - self.pa_term
            - self.leak_alice
            - self.leak_bobs
        )

    @property
    def key_length(self) -> int:
        return max(0, math.floor(self.raw_length))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with 0 log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary entropy needs x in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def min_tradeoff_fhat(p_w: float, mu: float) -> float:
    """Certified one-round entropy as a function of the winning probability.

    (1 - mu/2) * (1 - h(1/2 + 1/2 sqrt((4 p_w - 2)^2 - 1))) on
    [3/4, Tsirelson].  Below 3/4 the square-root argument is negative and no
    entropy is certified, so the value clamps to 0; above the Tsirelson
    bound the input is unphysical and rejected.
    """
    _check_mu(mu)
    if p_w < 0.0 or p_w > TSIRELSON_BOUND + 1e-12:
        raise DomainError(f"winning probability {p_w!r} outside [0, Tsirelson]")
    if p_w < CLASSICAL_BOUND:
        return 0.0
    s = 4.0 * p_w - 2.0
    return (1.0 - mu / 2.0) * (1.0 - _clamped_entropy(s * s - 1.0))


def _clamped_entropy(arg: float) -> float:
    """h(1/2 + 1/2 sqrt(arg)), clamped to 1 (nothing certified) when arg <= 0."""
    if arg <= 0.0:
        return 1.0
    return binary_entropy(min(0.5 + 0.5 * math.sqrt(arg), 1.0))


def _check_popt(p_opt: float, mu: float) -> None:
    _check_mu(mu)
    if not mu * CLASSICAL_BOUND < p_opt < mu * TSIRELSON_BOUND:
        raise DomainError(f"p_opt must lie strictly in (mu*3/4, mu*Tsirelson), got {p_opt!r} for mu={mu!r}")


def min_tradeoff_slope(p_opt: float, mu: float) -> float:
    """Analytic derivative of the tradeoff bound on the frequency scale.

    The bound as a function of the win frequency q1 = mu * p_w is
    fhat_q(q1) = min_tradeoff_fhat(q1 / mu, mu); this returns
    d fhat_q / d q1 at q1 = p_opt, by the closed-form chain rule.
    """
    _check_popt(p_opt, mu)
    s = 4.0 * p_opt / mu - 2.0
    g = math.sqrt(s * s - 1.0)
    # log2((1+g)/(1-g)) evaluated stably for small g
    log_ratio = (math.log1p(g) - math.log1p(-g)) / math.log(2.0)
    return (1.0 - mu / 2.0) * log_ratio * (2.0 / mu) * (s / g)


def tangent_f(q1: float, p_opt: float, mu: float) -> float:
    """Affine tangent to the tradeoff bound at p_opt, evaluated at q1.

    q1 is a win frequency in [0, mu]; the tangent touches the curve at
    q1 = p_opt and supports it from below elsewhere.
    """
    _check_popt(p_opt, mu)
    if not 0.0 <= q1 <= mu:
        raise DomainError(f"q1 must lie in [0, mu], got {q1!r}")
    slope = min_tradeoff_slope(p_opt, mu)
    return slope * (q1 - p_opt) + min_tradeoff_fhat(p_opt / mu, mu)


def _one_minus_sqrt_term(eps: float) -> float:
    """1 - sqrt(1 - (eps/4)^2), computed without cancellation for tiny eps."""
    t = (eps / 4.0) ** 2
    return -math.expm1(0.5 * math.log1p(-t))


def _ea_root(eps_smooth: float, eps_ea: float) -> float:
    """A = sqrt(1 - 2 log2(eps * eps_EA)), the weight of the slope term in v_tilde."""
    return math.sqrt(1.0 - 2.0 * math.log2(eps_smooth * eps_ea))


def _slope_divisor(variant: str, mu: float) -> float:
    """What the tradeoff slope is divided by in v_tilde: mu ("main") or 1 ("appendix")."""
    return mu if variant == "main" else 1.0


def v_tilde(p_opt: float, mu: float, eps_smooth: float, eps_ea: float, variant: str = "main") -> float:
    """Second-order (sqrt-n) coefficient of the entropy accumulation bound.

    2 (log2 13 + slope_term) sqrt(1 - 2 log2(eps * eps_EA))
    + 2 log2 7 sqrt(-log2(eps_EA^2 (1 - sqrt(1 - (eps/4)^2)))),
    where slope_term is slope/mu + 1 for the "main" variant and slope + 1
    for the "appendix" variant.
    """
    _check_variant(variant)
    _check_eps("eps_smooth", eps_smooth)
    _check_eps("eps_ea", eps_ea)
    slope = min_tradeoff_slope(p_opt, mu)
    slope_term = slope / _slope_divisor(variant, mu) + 1.0
    first = 2.0 * (_LOG2_13 + slope_term) * _ea_root(eps_smooth, eps_ea)
    eta = _one_minus_sqrt_term(eps_smooth)
    second = 2.0 * _LOG2_7 * math.sqrt(-(2.0 * math.log2(eps_ea) + math.log2(eta)))
    return first + second


def leak_ec_bounds(params: RateParams) -> tuple[float, float]:
    """(leak_A, leak_Bk): error-correction leakage bounds in bits.

    leak_A covers the one-way reconciliation message that lets every Bob
    reproduce Alice's n-bit string; leak_Bk covers one Bob's disclosure of
    his test-round bits.  Both carry identical sqrt-n and constant
    corrections driven by eps_ec_tilde.
    """
    n = params.n_rounds
    mu = params.mu
    et = params.eps.ec_tilde
    log_8_et2 = 3.0 - 2.0 * math.log2(et)  # log2(8 / et^2)
    sqrt_corr = 4.0 * math.log2(2.0 * SQRT2 + 1.0) * math.sqrt(2.0 * log_8_et2) * math.sqrt(n)
    # 8 / et^2 stays finite because EpsilonBudget keeps et >= 1e-150
    const_corr = math.log2(8.0 / et**2 + 2.0 / (2.0 - et))
    leak_alice = n * ((1.0 - mu) * binary_entropy(params.qber) + mu) + sqrt_corr + const_corr
    leak_bob = n * mu + sqrt_corr + const_corr
    return leak_alice, leak_bob


def _tangent_delta(params: RateParams) -> float:
    """delta_opt = delta - K / (mu sqrt(n)), clamped to the classical end (module docstring)."""
    end = CLASSICAL_BOUND + _END_GAP
    if params.n_rounds == 0:
        return end
    k = 2.0 * _ea_root(params.eps.smooth, params.eps.ea) / _slope_divisor(params.variant, params.mu)
    return max(params.delta - k / (params.mu * math.sqrt(params.n_rounds)), end)


def finite_key_length(params: RateParams) -> KeyLengthBreakdown:
    """Finite-size key length at the optimal tangent point.

    p_opt = mu delta - K / sqrt(n), or mu (3/4 + 4.5e-11) at the classical
    end, maximises the entropy term less the second order (derivation in the
    module docstring).  The smoothing credit is added, the privacy-amplification
    penalty and the error-correction leakages are subtracted, and the length
    clamps at zero; the signed sum survives in raw_length.  A sum that is not
    finite is a DomainError: the main variant's second order grows as
    sqrt(n) / mu**2 and is not finite at mu = 1e-154 for any n.
    """
    n = params.n_rounds
    mu = params.mu
    eps = params.eps
    p_opt = mu * _tangent_delta(params)
    entropy_term = n * (tangent_f(mu * params.delta, p_opt, mu) - mu)
    second_order = v_tilde(p_opt, mu, eps.smooth, eps.ea, params.variant) * math.sqrt(n)
    smoothing_term = 3.0 * math.log2(_one_minus_sqrt_term(eps.smooth))
    pa_factor = 2.0 if params.variant == "main" else 1.0
    pa_term = pa_factor * math.log2(1.0 / eps.pa)
    leak_alice, leak_bob = leak_ec_bounds(params)
    leak_bobs = (params.n_parties - 1) * leak_bob
    bd = KeyLengthBreakdown(
        entropy_term=entropy_term,
        second_order=second_order,
        smoothing_term=smoothing_term,
        pa_term=pa_term,
        leak_alice=leak_alice,
        leak_bobs=leak_bobs,
        p_opt_chosen=p_opt,
    )
    if not math.isfinite(bd.raw_length):
        raise DomainError(f"key-length terms leave the float range at mu = {mu!r}, n = {n}, {params.variant} variant")
    return bd


def completeness_bound(params: RateParams, p_exp: float) -> float:
    """Upper bound on the honest abort probability.

    (N-1)(2 eps_EC + eps'_EC) + (1 - mu (1 - exp(-2 (p_exp - delta)^2)))^n,
    valid when the honestly expected winning probability exceeds the abort
    threshold.  The exponential is natural.
    """
    if p_exp <= params.delta:
        raise DomainError(
            f"completeness bound needs p_exp > delta, got {p_exp!r} <= {params.delta!r}"
        )
    ec_part = (params.n_parties - 1) * (2.0 * params.eps.ec + params.eps.ec_prime)
    shrink = params.mu * (-math.expm1(-2.0 * (p_exp - params.delta) ** 2))
    tail = math.exp(params.n_rounds * math.log1p(-shrink))
    return ec_part + tail


def qber_to_pdep(qber: float) -> float:
    """Depolarizing probability giving QBER Q between Alice and each Bob."""
    _check_qber(qber)
    return 1.0 - math.sqrt(1.0 - 2.0 * qber)


def pexp_formula(n_parties: int, qber: float) -> float:
    """Expected winning probability of the honest depolarized-GHZ implementation.

    Exact Born-rule value: with F = 1 - p_dep = sqrt(1 - 2 Q), the x = 0
    questions win with probability 1/2 + F^2 / (2 sqrt 2) (only Alice's and
    Bob_1's qubits enter the correlator) and the x = 1 questions with
    1/2 + F^N / (2 sqrt 2) (all N qubits enter), so averaging over x:

        p_exp = 1/2 + F^N / (2 sqrt 2) + F^2 (1 - F^(N-2)) / (4 sqrt 2).
    """
    _check_parties(n_parties)
    f = 1.0 - qber_to_pdep(qber)
    return 0.5 + f**n_parties / (2.0 * SQRT2) + f**2 * (1.0 - f ** (n_parties - 2)) / (4.0 * SQRT2)


def asymptotic_rate_cka(n_parties: int, qber: float) -> float:
    """Asymptotic conference-key rate of the protocol at QBER Q.

    1 - h(1/2 + 1/2 sqrt(16 (beta - 1/2)^2 - 1)) - h(Q), with
    beta = 1/2 + (3 F^N + F^2) / (8 sqrt 2) and F = sqrt(1 - 2 Q).  For
    N >= 3 and Q > 0 this beta lies below the simulator's p_exp
    (``pexp_formula``), by (F^2 - F^N) / (8 sqrt 2).  May be negative
    (reported as-is; only key lengths clamp at zero).  When the certified
    violation falls to the classical value or below, the entropy term
    clamps and the rate is -h(Q).
    """
    _check_parties(n_parties)
    _check_qber(qber)
    w = 1.0 - 2.0 * qber
    f = math.sqrt(w)
    a = f**n_parties / (2.0 * SQRT2) + w * (1.0 - f ** (n_parties - 2)) / (8.0 * SQRT2)
    return 1.0 - _clamped_entropy(16.0 * a * a - 1.0) - binary_entropy(qber)


def asymptotic_rate_diqkd(n_parties: int, qber: float) -> float:
    """Asymptotic rate of distributing one key via N-1 pairwise QKD links.

    (1 - h(1/2 + 1/2 sqrt(2 (1-2Q)^2 - 1)) - h(Q)) / (N - 1), with the same
    sub-classical clamp; N = 2 degenerates to a single pairwise link.
    """
    _check_parties(n_parties)
    _check_qber(qber)
    w = 1.0 - 2.0 * qber
    return (1.0 - _clamped_entropy(2.0 * w * w - 1.0) - binary_entropy(qber)) / (n_parties - 1)
