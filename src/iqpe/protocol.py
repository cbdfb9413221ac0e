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

from .statekit import ContractViolation

__all__ = [
    "RotationProtocol",
    "ShotRecord",
    "projection_probabilities",
    "estimate_alpha",
    "monte_carlo_precision",
    "crb_stddev",
    "outside_fold",
]

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF

# Fewest trials, and fewest photons per trial, of a Monte Carlo run.
MIN_TRIALS = 100
MIN_NU = 1000
# Most photons per trial: the largest count Generator.binomial takes (int64).
MAX_NU = 2**63 - 1


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed on (seed, stream): reproducible, order-free."""
    if seed < 0:
        raise ContractViolation(f"seed must be >= 0, got {seed}")
    key = np.array([seed & _UINT64_MASK, stream & _UINT64_MASK], dtype=np.uint64)
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
        if self.oam_l < 1:
            raise ContractViolation(f"oam_l must be >= 1, got {self.oam_l}")
        if not (-math.pi < self.delta_phi <= math.pi):
            raise ContractViolation(
                f"delta_phi must lie in (-pi, pi], got {self.delta_phi}"
            )


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


def outside_fold(l: int, alpha_lo: float, alpha_hi: float, delta_phi: float) -> Optional[float]:
    """The largest |2*l*alpha + delta_phi| over [alpha_lo, alpha_hi], or None
    if it is below pi/2: the arcsin readout identifies alpha only inside that
    fold.  The phase is linear in alpha, so the largest modulus is at an end
    of the range; a NaN is never inside."""
    reach = float(np.max(np.abs(2.0 * l * np.array([alpha_lo, alpha_hi]) + delta_phi)))
    return None if reach < math.pi / 2.0 else reach


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
    alpha that ``outside_fold`` reports is refused: it reads another angle.
    """
    if trials < MIN_TRIALS:
        raise ContractViolation(f"trials must be >= {MIN_TRIALS}, got {trials}")
    if not MIN_NU <= nu <= MAX_NU:
        raise ContractViolation(f"nu must be >= {MIN_NU} and <= {MAX_NU}, got {nu}")
    reach = outside_fold(proto.oam_l, alpha_true, alpha_true, proto.delta_phi)
    if reach is not None:
        raise ContractViolation(
            f"alpha={alpha_true} cannot be identified: |2*l*alpha + delta_phi| = "
            f"{reach!r} is not below pi/2"
        )
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
