"""Indefinite-time-direction rotation measurement protocol.

A beam with orbital angular momentum l rides through a rotation of angle
alpha applied in both directions at once, controlled by the polarization
meter: the |H> component sees exp(-1j*alpha*Lz), the |V> component the
inverse.  Circular-basis projection then reads the rotation out of the meter
as the relative phase Phi = 2*l*alpha + delta_phi, where delta_phi is the
systematic phase offset of the apparatus.

Meter conventions (fixed): basis order (|H>, |V>); the detection states are
|L> = (|H> + 1j|V>)/sqrt(2) and |R> = (|H> - 1j|V>)/sqrt(2), which makes the
|L> click probability (1 + sin(Phi))/2.

Randomness: every stochastic entry point takes an explicit seed, and stream
i draws from the counter-based Philox4x64-10 keyed (seed, i), so results are
bit-reproducible and independent of evaluation order.  The emulator's noise
draws through ``trial_rng``'s numpy Generator.  The Monte Carlo evaluates
Philox for a block of streams at once and feeds numpy's binomial algorithm,
vectorized over the trials still drawing, so its counts are those of
``trial_rng(seed, i).binomial`` without loading ``numpy.random``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .statekit import ContractViolation, Range

__all__ = [
    "RotationProtocol",
    "ShotRecord",
    "projection_probabilities",
    "estimate_alpha",
    "monte_carlo_precision",
    "crb_stddev",
    "angle_refusal",
]

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF

# 2*l stays exact in float64 up to 2^53.
OAM_L = Range(1, 2**53, integer=True)
DELTA_PHI = Range(-math.pi, math.pi, "(]")
# Photons per trial; the most is the top of the binomial kernel's int64 domain.
NU = Range(1000, 2**63 - 1, integer=True)
# The Monte Carlo holds one 8-byte estimate per trial: 80 MB at the top.
TRIALS = Range(100, 10**7, integer=True)
# One Philox key word: a larger seed would draw the streams of a smaller one.
SEED = Range(0, 2**64 - 1, integer=True)
# The phases 2*l*alpha + delta_phi whose alpha the arcsin readout identifies.
FOLD = Range(-math.pi / 2.0, math.pi / 2.0, "()")


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed on (seed, stream): reproducible, order-free."""
    SEED.check("seed", seed)
    key = np.array([seed, stream & _UINT64_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Trials the binomial kernel draws at once: its arrays grow with this, not
# with the number of trials.  A fresh 25k-trial rotation-sim peaked at 34.7 MB
# with 2048, against 35.3 MB with 4096 and 34.6 MB with 1024, whose extra
# passes doubled the kernel's time.
_BLOCK = 2048

# Philox4x64-10's round multipliers and key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a*b, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & 0xFFFFFFFF, b >> 32
    lo_lo, hi_lo = a_lo * b_lo, a_hi * b_lo
    cross = (lo_lo >> 32) + (hi_lo & 0xFFFFFFFF) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> 32) + (cross >> 32), (cross << 32) | (lo_lo & 0xFFFFFFFF)


def _philox_doubles(refill: int, seed: int, streams: np.ndarray) -> list[np.ndarray]:
    """The four doubles of the ``refill``-th buffer (1, 2, ...) of each stream's
    ``trial_rng(seed, stream)``: Philox4x64-10 of the counter (refill, 0, 0, 0)
    under the key (seed, stream), each word w read as (w >> 11) * 2^-53."""
    zeros = np.zeros_like(streams)
    ctr = [np.full_like(streams, refill), zeros, zeros, zeros]
    for n in range(10):
        key_0 = np.uint64((seed + n * _PHILOX_W[0]) & _UINT64_MASK)
        key_1 = streams + np.uint64(n * _PHILOX_W[1] & _UINT64_MASK)
        hi_0, lo_0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi_1, lo_1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi_1 ^ ctr[1] ^ key_0, lo_1, hi_0 ^ ctr[3] ^ key_1, lo_0]
    return [(word >> 11) * 2.0**-53 for word in ctr]


def _log(x: np.ndarray) -> np.ndarray:
    """C's ``log`` of each entry, from libm as numpy's sampler calls it (np.log
    rounds some inputs differently); log(0) is -inf and log(x < 0) nan."""
    return np.array([math.log(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan
                     for v in x.tolist()])


def _wrap64(value: int) -> int:
    """``value`` wrapped into int64, as C's int64 arithmetic leaves it."""
    return (value + 2**63) % 2**64 - 2**63


def _stirling_tail(x):
    """BTPE's Stirling-series correction at x."""
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


def _binomial_counts(seed: int, streams: np.ndarray, nu: int, p: float) -> np.ndarray:
    """``trial_rng(seed, i).binomial(nu, p)`` for every stream i, bit for bit.

    numpy's C sampler is mirrored operation by operation: the count of the
    less likely outcome is drawn, by inversion when its mean is at most 30
    and by BTPE otherwise.  Every stream starts at the same buffer, so the
    kernel runs one vectorized try over all the streams still drawing.
    """
    if p > 0.5:
        return nu - _binomial_counts(seed, streams, nu, 1.0 - p)
    if p * nu <= 30.0:
        return _inversion_counts(seed, streams, nu, p)
    return _btpe_counts(seed, streams, nu, p)


def _inversion_counts(seed: int, streams: np.ndarray, nu: int, p: float) -> np.ndarray:
    """numpy's inversion sampler for p <= 0.5 and p*nu <= 30: one double a
    try, walked up the pmf from 0, and a count past ``bound`` starts a new
    try.  The Monte Carlo comes here only at nu above about 5e17, where a
    phase within about 1e-8 rad of the fold rounds p to 0 or 1, or nearly."""
    q = 1.0 - p
    qn = math.exp(nu * math.log1p(-p))
    n_p = nu * p
    bound = int(min(float(nu), n_p + 10.0 * math.sqrt(n_p * q + 1)))
    counts = np.zeros(streams.size, dtype=np.int64)
    tries = np.ones(streams.size, dtype=np.int64)
    u = _philox_doubles(1, seed, streams)[0]
    px = np.full(streams.size, qn)
    todo = np.arange(streams.size)
    while todo.size:
        todo = todo[u[todo] > px[todo]]
        counts[todo] += 1
        over = counts[todo] > bound
        todo, again = todo[~over], todo[over]
        u[todo] -= px[todo]
        px[todo] = ((nu - counts[todo] + 1) * p * px[todo]) / (counts[todo] * q)
        for j in np.unique(tries[again]).tolist():
            fresh = again[tries[again] == j]
            u[fresh] = _philox_doubles(j // 4 + 1, seed, streams[fresh])[j % 4]
        counts[again], px[again] = 0, qn
        tries[again] += 1
        todo = np.concatenate((todo, again))
    return counts


def _btpe_counts(seed: int, streams: np.ndarray, nu: int, p: float) -> np.ndarray:
    """numpy's BTPE sampler (Kachitvichyanukul & Schmeiser, CACM 31, 216
    (1988)) for p <= 0.5 and p*nu > 30: two doubles a try, so every stream
    takes its doubles from the same buffer on the same try.  Two details
    keep the bits: each log is libm's, and the int64 products -k*k and
    s*(nu + 1) wrap as they do in C (near nu = 2^63 they overflow), while
    the Stirling-series arguments are sums of doubles, as numpy has them."""
    r = min(p, 1.0 - p)
    q = 1.0 - r
    fm = nu * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(nu * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = nu * r * q
    s = r / q
    a = s * _wrap64(nu + 1)
    f1, z = float(m) + 1.0, float(nu) + 1.0 - float(m)
    counts = np.empty(streams.size, dtype=np.int64)
    todo = np.arange(streams.size)
    spare: list[np.ndarray] = []
    refill = 0
    with np.errstate(invalid="ignore"):  # C casts -inf to INT64_MIN as well
        while todo.size:
            if spare:
                (u, v), spare = spare, []
            else:
                refill += 1
                u, v, *spare = _philox_doubles(refill, seed, streams[todo])
            u = u * p4
            # step 10: the triangle is accepted at once
            done = u <= p1
            y = np.floor(xm - p1 * v + u).astype(np.int64)
            # steps 20-40: the parallelograms and the two exponential tails
            # give a candidate y and the v that step 50 tests it by
            par = (p1 < u) & (u <= p2)
            x = xl + (u[par] - p1) / c
            v[par] = v[par] * c + 1.0 - np.abs(float(m) - x + 0.5) / p1
            y[par] = np.floor(x)
            left, right = (p2 < u) & (u <= p3), p3 < u
            y[left] = np.floor(xl + _log(v[left]) / laml)
            y[right] = np.floor(xr - _log(v[right]) / lamr)
            tested = np.flatnonzero(par & (v <= 1.0)
                                    | (v != 0.0) & (left & (y >= 0) | right & (y <= nu)))
            v[left] = v[left] * (u[left] - p2) * laml
            v[right] = v[right] * (u[right] - p3) * lamr
            # step 50: the ratio f(y)/f(m) as a product, near m or on a narrow peak
            k = np.abs(y[tested] - m)
            squeeze = (k > 20) & (k < nrq / 2.0 - 1)
            near, y_n, k_n = tested[~squeeze], y[tested[~squeeze]], k[~squeeze]
            f = np.ones(near.size)
            first, up = np.minimum(y_n, m) + 1, y_n > m
            for step in range(int(k_n.max(initial=0))):
                live = step < k_n
                factor = a / (first[live] + step) - s
                f[live] = np.where(up[live], f[live] * factor, f[live] / factor)
            done[near[v[near] <= f]] = True
            # step 52: squeeze log(v) between bounds, then Stirling's series
            far, y_f, k_f = tested[squeeze], y[tested[squeeze]], k[squeeze]
            rho = (k_f / nrq) * ((k_f * (k_f / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = -k_f * k_f / (2 * nrq)
            big_a = _log(v[far])
            done[far[big_a < t - rho]] = True
            open_ = (t - rho <= big_a) & (big_a <= t + rho)
            far, y_f, big_a = far[open_], y_f[open_], big_a[open_]
            x1 = y_f.astype(float) + 1.0
            w = float(nu) - y_f.astype(float) + 1.0
            bound = (xm * _log(f1 / x1) + (float(nu - m) + 0.5) * _log(z / w)
                     + (y_f - m) * _log(w * r / (x1 * q)) + _stirling_tail(f1)
                     + _stirling_tail(z) + _stirling_tail(x1) + _stirling_tail(w))
            done[far[~(big_a > bound)]] = True
            # step 60
            counts[todo[done]] = y[done]
            todo = todo[~done]
            spare = [word[~done] for word in spare]
    return counts


@dataclass(frozen=True)
class RotationProtocol:
    """Configuration of one rotation measurement: OAM value and phase offset."""

    oam_l: int
    delta_phi: float = 0.0

    def __post_init__(self):
        OAM_L.check("oam_l", self.oam_l)
        DELTA_PHI.check("delta_phi", self.delta_phi)


@dataclass(frozen=True)
class ShotRecord:
    """Photon counts in the two circular detection channels."""

    nu_L: int
    nu_R: int
    nu_total: int = field(init=False)

    def __post_init__(self):
        if self.nu_L < 0 or self.nu_R < 0:
            raise ContractViolation("photon counts must be nonnegative")
        object.__setattr__(self, "nu_total", self.nu_L + self.nu_R)


def minority_floor(nu: int, trials: int) -> float:
    """The least p_min, the less likely channel's click probability, that keeps
    the chance of a trial with no minority photon, trials * (1 - p_min)^nu, at
    2^-53 or less.  Below it trials read the boundary, which no CRB describes."""
    return -math.expm1(-(53.0 * math.log(2.0) + math.log(trials)) / nu)


def minority_phases(nu: int, trials: int) -> Range:
    """The phases whose click probabilities, as ``projection_probabilities``
    rounds them, keep the less likely one at ``minority_floor`` or above.
    Near the fold they are multiples of 2^-54 or 2^-53 and asin(1 - 2 p_min)
    rounds to pi/2, so each end is bisected down to adjacent floats."""
    floor = minority_floor(nu, trials)
    ends = []
    for sign in (-1.0, 1.0):
        inside, outside = 0.0, math.pi / 2.0  # the less likely p is 1/2 at 0, 0 at pi/2
        while inside < (middle := 0.5 * (inside + outside)) < outside:
            holds = min(_click_probabilities(sign * middle)) >= floor
            inside, outside = (middle, outside) if holds else (inside, middle)
        ends.append(sign * inside)
    return Range(*ends)


def angle_refusal(proto: RotationProtocol, alpha: float, nu: int, trials: int,
                  degrees: bool = False) -> Optional[str]:
    """Why a Monte Carlo run cannot take ``alpha``, and the angles it can, or
    None: its phase must lie in ``FOLD``, then the click probabilities it draws
    with, those of ``projection_probabilities``, must keep the less likely one
    at ``minority_floor`` or above."""
    phase = 2.0 * proto.oam_l * alpha + proto.delta_phi
    if not FOLD.holds(phase):
        broken, rule = "cannot be identified", FOLD
    elif min(_click_probabilities(phase)) < minority_floor(nu, trials):
        broken, rule = "risks an empty minority channel", minority_phases(nu, trials)
    else:
        return None
    ends = ((end - proto.delta_phi) / (2.0 * proto.oam_l) for end in (rule.lo, rule.hi))
    return f"{broken}: it must be {Range(*ends, rule.ends).text(degrees)}"


def _click_probabilities(phase: float) -> tuple[float, float]:
    p_l = 0.5 * (1.0 + math.sin(phase))
    return p_l, 1.0 - p_l


def projection_probabilities(proto: RotationProtocol, alpha: float) -> tuple[float, float]:
    """Click probabilities (pL, pR) of the circular-basis measurement.

    pL = [1 + sin(2*l*alpha + delta_phi)] / 2 and pR = 1 - pL.
    """
    return _click_probabilities(2.0 * proto.oam_l * alpha + proto.delta_phi)


def estimate_alpha(record: ShotRecord, proto: RotationProtocol) -> float:
    """Invert the click statistics: [arcsin(dn/n) - delta_phi] / (2*l).

    The count ratio is clamped to [-1, 1] so shot-noise excursions past the
    saturation point stay estimable (at the cost of a bias that grows as
    |2*l*alpha + delta_phi| approaches pi/2).
    """
    if record.nu_total < 1:
        raise ContractViolation("cannot estimate from an empty shot record")
    ratio = (record.nu_L - record.nu_R) / record.nu_total
    ratio = min(1.0, max(-1.0, ratio))
    return (math.asin(ratio) - proto.delta_phi) / (2.0 * proto.oam_l)


def crb_stddev(proto: RotationProtocol, nu: int) -> float:
    """Cramer-Rao limit on the estimator spread: 1 / (2*l*sqrt(nu))."""
    return 1.0 / (2.0 * proto.oam_l * math.sqrt(nu))


def monte_carlo_precision(
    proto: RotationProtocol,
    alpha_true: float,
    nu: int,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Sampled estimator mean and standard deviation at a true rotation angle.

    Each trial splits nu photons binomially between the two channels and
    applies estimate_alpha.  Trial i draws the count that
    ``trial_rng(seed, i).binomial`` draws, ``_BLOCK`` trials at a time, so
    results do not depend on evaluation order.  The estimate depends on the
    trial's count alone, so it is computed once per distinct count and that
    same float is stored for every trial that drew the count.  An alpha that
    ``angle_refusal`` refuses is refused.
    """
    TRIALS.check("trials", trials)
    NU.check("nu", nu)
    SEED.check("seed", seed)
    refusal = angle_refusal(proto, alpha_true, nu, trials)
    if refusal is not None:
        raise ContractViolation(f"alpha={alpha_true} {refusal}")
    p_l, _ = projection_probabilities(proto, alpha_true)
    estimates = np.empty(trials)
    by_count: dict[int, float] = {}
    for start in range(0, trials, _BLOCK):
        streams = np.arange(start, min(start + _BLOCK, trials), dtype=np.uint64)
        counts = _binomial_counts(seed, streams, nu, p_l).tolist()
        for n_l in counts:
            if n_l not in by_count:
                by_count[n_l] = estimate_alpha(ShotRecord(n_l, nu - n_l), proto)
        estimates[start:start + streams.size] = [by_count[n_l] for n_l in counts]
    return float(np.mean(estimates)), float(np.std(estimates, ddof=1))
