"""Cross-check routes that no command runs: the tests compare against these.

Each one reaches a quantity of the package by a second, independent road:

* ``qfi_numeric`` takes the QFI of a state family by central differences,
  over the families ``sqpe_state_family`` and ``iqpe_state_family`` built
  from ``unitary_at``;
* ``iqpe_generator`` and ``iqpe_qfi_general`` give the switched QFI as four
  times a variance on the joint meter+probe space, with ``meter_plus`` as
  the meter;
* ``expectation`` and ``tensor`` are the dense scalar and Kronecker
  products, ``number_operator`` the dense photon-number matrix;
* ``indefinite_rotation_unitary`` is the switched rotation on the joint
  space, and ``cfi`` the classical Fisher information of its two-outcome
  readout.

Tensor-product convention: the first factor is the slow (outer) index.
Joint meter+probe objects are built as ``tensor(meter, probe)``, so a block
expression ``A (+) B`` on the joint space means meter basis state 0 selects
block ``A`` and meter basis state 1 selects block ``B``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from iqpe.protocol import RotationProtocol
from iqpe.qfi import ParameterizedDynamics
from iqpe.scenarios import modal_ladder
from iqpe.statekit import (
    ContractViolation,
    HermitianOperator,
    PureState,
    UnitaryMatrix,
    _check_dims,
    apply_unitary,
    check_rounding,
    expm_herm_generator,
    variance,
)

# Default central-difference step for the numeric QFI.
DEFAULT_STEP = 1e-5
# Relative disagreement between the full-step and half-step estimates above
# which Richardson extrapolation kicks in.
RICHARDSON_TRIGGER = 1e-6
# Numeric QFI may undershoot zero by at most this much before it is an error.
NUMERIC_CLAMP_TOL = 1e-8

# Outcome probabilities closer than this to 0 or 1 are treated as degenerate.
DEGENERATE_PROB_TOL = 1e-12


# ---------------------------------------------------------------------------
# dense products
# ---------------------------------------------------------------------------


def expectation(op: HermitianOperator, state: PureState) -> float:
    """<psi|op|psi> as a real scalar.

    The imaginary part is held to the rounding of ||op||_F * d, as
    ``variance`` holds it, then discarded: a Hermitian operator cannot
    produce more than roundoff.
    """
    _check_dims(op.dim, state.dim)
    psi = state.amplitudes
    value = np.vdot(psi, op.entries @ psi)
    check_rounding("imaginary part of <op>", abs(value.imag), np.linalg.norm(op.entries) * op.dim)
    return float(value.real)


def tensor(a, b):
    """Kronecker product of two states or two operator-like matrices.

    The first operand is the slow (outer) index.  Mixed kinds are rejected.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.entries, b.entries))
    if isinstance(a, UnitaryMatrix) and isinstance(b, UnitaryMatrix):
        return UnitaryMatrix(np.kron(a.entries, b.entries))
    raise ContractViolation(
        f"tensor requires two operands of the same kind, got {type(a).__name__} and {type(b).__name__}"
    )


def number_operator(truncation: int) -> HermitianOperator:
    return HermitianOperator(np.diag(np.arange(truncation, dtype=np.complex128)))


# ---------------------------------------------------------------------------
# numeric QFI and the switched dynamics
# ---------------------------------------------------------------------------


def unitary_at(dyn: ParameterizedDynamics, g: float) -> UnitaryMatrix:
    """U(g) = exp(-1j * g * T * V)."""
    return expm_herm_generator(dyn.characteristic_op, g * dyn.evolution_time)


def meter_plus() -> PureState:
    """The fixed meter state (|0> + |1>) / sqrt(2) used by the quantum switch."""
    return PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))


def _qfi_central(family: Callable[[float], PureState], g: float, step: float) -> float:
    psi = family(g).amplitudes
    plus = family(g + step).amplitudes
    minus = family(g - step).amplitudes
    dpsi = (plus - minus) / (2.0 * step)
    grad_sq = np.vdot(dpsi, dpsi).real
    overlap = np.vdot(dpsi, psi)
    return 4.0 * (grad_sq - abs(overlap) ** 2)


def qfi_numeric(
    family: Callable[[float], PureState], g: float, step: float = DEFAULT_STEP
) -> float:
    """QFI of a pure-state family by central differences.

    4 (<d psi|d psi> - |<d psi|psi>|^2) with the derivative taken at ``g``.
    Evaluates at step and step/2; when the two estimates disagree by more than
    RICHARDSON_TRIGGER relative, returns the Richardson extrapolation of the
    pair (the difference scheme is second-order accurate).
    """
    if not (0.0 < step <= 1e-2):
        raise ContractViolation(f"step must be in (0, 1e-2], got {step}")
    q_full = _qfi_central(family, g, step)
    q_half = _qfi_central(family, g, step / 2.0)
    scale = max(abs(q_full), abs(q_half))
    if scale > 0.0 and abs(q_full - q_half) > RICHARDSON_TRIGGER * scale:
        q = (4.0 * q_half - q_full) / 3.0
    else:
        q = q_half
    if q < -NUMERIC_CLAMP_TOL:
        raise ContractViolation(f"numeric QFI {q:.3e} below -{NUMERIC_CLAMP_TOL}")
    return max(q, 0.0)


def iqpe_generator(dyn: ParameterizedDynamics, g: float) -> HermitianOperator:
    """Generator of the switched dynamics on the joint meter+probe space.

    Block-diagonal in the meter (outer) index: the plain generator on the
    forward branch and minus its U-conjugate on the backward branch.  For the
    linear encoding the plain generator is T * V.
    """
    t = dyn.evolution_time
    h_gen = t * dyn.characteristic_op.entries
    u = unitary_at(dyn, g).entries
    backward = -u @ h_gen @ u.conj().T
    dim = dyn.dim
    joint = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
    joint[:dim, :dim] = h_gen
    joint[dim:, dim:] = backward
    return HermitianOperator(0.5 * (joint + joint.conj().T))


def iqpe_qfi_general(dyn: ParameterizedDynamics, probe: PureState, g: float = 0.0) -> float:
    """Switched-procedure QFI via the joint generator at parameter ``g``.

    4 Var of ``iqpe_generator`` over |meter_plus>|probe>: the route that the
    closed form of ``iqpe_qfi`` is checked against.
    """
    joint = tensor(meter_plus(), probe)
    return 4.0 * variance(iqpe_generator(dyn, g), joint)


def sqpe_state_family(
    dyn: ParameterizedDynamics, probe: PureState
) -> Callable[[float], PureState]:
    """g -> U(g)|probe>, the family whose numeric QFI matches sqpe_qfi."""

    def family(g: float) -> PureState:
        return apply_unitary(unitary_at(dyn, g), probe)

    return family


def iqpe_state_family(
    dyn: ParameterizedDynamics, probe: PureState
) -> Callable[[float], PureState]:
    """g -> U_switch(g)(|meter_plus>|probe>), matching iqpe_qfi numerically."""
    joint0 = tensor(meter_plus(), probe)
    dim = dyn.dim

    def family(g: float) -> PureState:
        u = unitary_at(dyn, g).entries
        block = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
        block[:dim, :dim] = u
        block[dim:, dim:] = u.conj().T
        return apply_unitary(UnitaryMatrix(block), joint0)

    return family


# ---------------------------------------------------------------------------
# the rotation protocol's joint unitary and classical Fisher information
# ---------------------------------------------------------------------------


def indefinite_rotation_unitary(proto: RotationProtocol, alpha: float) -> UnitaryMatrix:
    """Joint meter+probe unitary: exp(-1j*alpha*Lz) (+) exp(+1j*alpha*Lz).

    Meter-outer block ordering on the order-l modal space; |H> selects the
    forward rotation, |V> the backward one.
    """
    ladder = modal_ladder(proto.oam_l)
    oam = ladder.oam_values().astype(float)
    forward = np.exp(-1j * alpha * oam)
    dim = ladder.dim
    joint = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
    np.fill_diagonal(joint[:dim, :dim], forward)
    np.fill_diagonal(joint[dim:, dim:], forward.conj())
    return UnitaryMatrix(joint)


def cfi(proto: RotationProtocol, alpha: float) -> float:
    """Classical Fisher information of the two-outcome measurement: 4*l^2.

    Sums (dp/dalpha)^2 / p over both outcomes.  The probabilities are
    evaluated in half-angle form so the sum stays accurate near saturation;
    exactly degenerate statistics raise instead.
    """
    l = proto.oam_l
    total_phase = 2.0 * l * alpha + proto.delta_phi
    # pL = cos^2(pi/4 - Phi/2), pR = sin^2(pi/4 - Phi/2): no cancellation.
    half = math.pi / 4.0 - total_phase / 2.0
    p_l = math.cos(half) ** 2
    p_r = math.sin(half) ** 2
    if min(p_l, p_r) < DEGENERATE_PROB_TOL:
        raise ContractViolation(
            f"degenerate statistics at alpha={alpha}: outcome probability "
            f"within {DEGENERATE_PROB_TOL} of 0 or 1"
        )
    dp = l * math.cos(total_phase)  # dpL/dalpha; dpR/dalpha = -dp
    return dp * dp * (1.0 / p_l + 1.0 / p_r)
