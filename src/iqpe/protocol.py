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

Randomness: every stochastic entry point takes an explicit seed and feeds a
counter-based Philox generator keyed as (seed, stream-index), so results are
bit-reproducible and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

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

OAM_L = Range(1, integer=True)
DELTA_PHI = Range(-math.pi, math.pi, "(]")
# Photons per trial; the most is the largest count Generator.binomial takes.
NU = Range(1000, 2**63 - 1, integer=True)
TRIALS = Range(100, integer=True)
# One Philox key word: a larger seed would draw the streams of a smaller one.
SEED = Range(0, 2**64 - 1, integer=True)
# The phases 2*l*alpha + delta_phi whose alpha the arcsin readout identifies.
FOLD = Range(-math.pi / 2.0, math.pi / 2.0, "()")


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed on (seed, stream): reproducible, order-free."""
    SEED.check("seed", seed)
    key = np.array([seed, stream & _UINT64_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _trial_rngs(seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """One generator, re-keyed to (seed, i) for each stream i in turn.

    Each yielded state draws exactly what ``trial_rng(seed, i)`` draws: the
    Philox key is reset with the counter at 0 and the buffer empty.  Building
    a fresh generator per trial costs more than the draws themselves, so one
    held key array has only its stream word rewritten.
    """
    rng = trial_rng(seed, 0)
    bit_generator = rng.bit_generator
    fresh = bit_generator.state
    key = fresh["state"]["key"]
    for i in streams:
        key[1] = i & _UINT64_MASK
        bit_generator.state = fresh
        yield rng


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


def minority_phases(nu: int, trials: int) -> Range:
    """The phases at which the chance that some trial draws no minority photon,
    trials * (1 - p_min)^nu with p_min = (1 - |sin(phase)|)/2, is at most 2^-53.
    Past them trials read the boundary value, which the CRB says nothing about."""
    p_min = -math.expm1(-(53.0 * math.log(2.0) + math.log(trials)) / nu)
    edge = math.asin(1.0 - 2.0 * p_min)
    return Range(-edge, edge)


def angle_refusal(proto: RotationProtocol, alpha: float, nu: int, trials: int,
                  degrees: bool = False) -> Optional[str]:
    """Why a Monte Carlo run cannot take ``alpha``, and the angles it can, or
    None: the first of ``FOLD`` and ``minority_phases`` its phase breaks."""
    phase = 2.0 * proto.oam_l * alpha + proto.delta_phi
    for broken, rule in (("cannot be identified", FOLD),
                         ("risks an empty minority channel", minority_phases(nu, trials))):
        if not rule.holds(phase):
            ends = ((end - proto.delta_phi) / (2.0 * proto.oam_l) for end in (rule.lo, rule.hi))
            return f"{broken}: it must be {Range(*ends, rule.ends).text(degrees)}"
    return None


def projection_probabilities(proto: RotationProtocol, alpha: float) -> tuple[float, float]:
    """Click probabilities (pL, pR) of the circular-basis measurement.

    pL = [1 + sin(2*l*alpha + delta_phi)] / 2 and pR = 1 - pL.
    """
    total_phase = 2.0 * proto.oam_l * alpha + proto.delta_phi
    p_l = 0.5 * (1.0 + math.sin(total_phase))
    return p_l, 1.0 - p_l


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
    applies estimate_alpha.  Trial i uses the Philox stream keyed (seed, i),
    so results do not depend on evaluation order.  The estimate depends on
    the trial's count alone, so it is computed once per distinct count and
    that same float is stored for every trial that drew the count.  An
    alpha that ``angle_refusal`` refuses is refused.
    """
    TRIALS.check("trials", trials)
    NU.check("nu", nu)
    refusal = angle_refusal(proto, alpha_true, nu, trials)
    if refusal is not None:
        raise ContractViolation(f"alpha={alpha_true} {refusal}")
    p_l, _ = projection_probabilities(proto, alpha_true)
    estimates = np.empty(trials)
    by_count: dict[int, float] = {}
    for i, rng in enumerate(_trial_rngs(seed, range(trials))):
        n_l = int(rng.binomial(nu, p_l))
        estimate = by_count.get(n_l)
        if estimate is None:
            estimate = by_count[n_l] = estimate_alpha(ShotRecord(n_l, nu - n_l), proto)
        estimates[i] = estimate
    return float(np.mean(estimates)), float(np.std(estimates, ddof=1))
