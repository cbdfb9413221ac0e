"""Quantum Fisher information engine.

Covers the two estimation procedures compared throughout this package:

* standard (definite-time-direction) parameter estimation, where the QFI of a
  linear encoding is four times the variance of the characteristic operator,
  and
* the indefinite-time-direction procedure, where a two-level meter acts as a
  quantum switch superposing forward and backward evolution and the QFI
  becomes four times the full second moment of the characteristic operator.

The engine treats the time-independent linear encoding H(g) = g * V
computationally; the general time-ordered case enters only through the
constant-eigenvalue upper-bound formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .statekit import (
    ContractViolation,
    HermitianOperator,
    PureState,
    UnitaryMatrix,
    apply_unitary,
    expm_herm_generator,
    herm_eig,
    tensor,
    variance,
)
from .tolerances import EXPECTATION_IMAG_TOL

__all__ = [
    "ParameterizedDynamics",
    "QfiReport",
    "qfi_numeric",
    "qfi_batch",
    "sqpe_qfi",
    "iqpe_generator",
    "iqpe_qfi",
    "iqpe_qfi_general",
    "qfi_upper_bounds",
    "qfi_report",
    "meter_plus",
]

# Default central-difference step for the numeric QFI.
DEFAULT_STEP = 1e-5
# Relative disagreement between the full-step and half-step estimates above
# which Richardson extrapolation kicks in.
RICHARDSON_TRIGGER = 1e-6
# Numeric QFI may undershoot zero by at most this much before it is an error.
NUMERIC_CLAMP_TOL = 1e-8


@dataclass(frozen=True)
class ParameterizedDynamics:
    """A family g -> U(g) generated by a characteristic operator.

    For the linear encoding implemented here, U(g) = exp(-1j * g * T * V)
    where V is the characteristic operator and T the (normalized) evolution
    time, which must be finite.
    """

    characteristic_op: HermitianOperator
    evolution_time: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.evolution_time):
            raise ContractViolation(
                f"evolution time must be finite, got {self.evolution_time}"
            )

    def unitary_at(self, g: float) -> UnitaryMatrix:
        """U(g) = exp(-1j * g * T * V)."""
        return expm_herm_generator(self.characteristic_op, g * self.evolution_time)

    @property
    def dim(self) -> int:
        return self.characteristic_op.dim


@dataclass(frozen=True)
class QfiReport:
    """QFI values and eigenvalue upper bounds for one probe/dynamics pair."""

    qfi_sqpe: float
    qfi_iqpe: float
    bound_sqpe: float
    bound_iqpe: float

    def __post_init__(self):
        if self.qfi_sqpe > self.bound_sqpe + 1e-9:
            raise ContractViolation(
                f"standard-procedure QFI {self.qfi_sqpe} exceeds its bound {self.bound_sqpe}"
            )
        if self.qfi_iqpe > self.bound_iqpe + 1e-9:
            raise ContractViolation(
                f"indefinite-procedure QFI {self.qfi_iqpe} exceeds its bound {self.bound_iqpe}"
            )
        if self.qfi_iqpe < self.qfi_sqpe - 1e-9:
            raise ContractViolation(
                "indefinite-procedure QFI fell below the standard one; "
                "impossible for a linear encoding"
            )


def meter_plus() -> PureState:
    """The fixed meter state (|0> + |1>) / sqrt(2) used by the quantum switch."""
    return PureState(np.array([1.0, 1.0]) / np.sqrt(2.0), "meter")


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


def qfi_batch(
    states: np.ndarray, generator: np.ndarray, evolution_time: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Both QFIs for every row of a ``(points, d)`` block of pure states.

    ``generator`` is the characteristic operator V, either as the real 1-D
    vector of its eigenvalues (a generator diagonal in the state basis) or
    as a dense Hermitian ``(d, d)`` matrix.  Returns the arrays 4 T^2 Var[V]
    (standard procedure) and 4 T^2 <V^2> (indefinite procedure).  The
    variance is the two-pass ||(V - <V>) psi||^2, which for a diagonal V is
    sum_k |psi_k|^2 (lam_k - <V>)^2.  Rows are trusted to be normalized:
    states are validated where they enter.
    """
    psi = np.asarray(states)
    gen = np.asarray(generator)
    if psi.ndim != 2 or gen.ndim not in (1, 2) or gen.shape != (psi.shape[1],) * gen.ndim:
        raise ContractViolation(
            f"dimension mismatch: generator shape {gen.shape} vs state block {psi.shape}"
        )
    if gen.ndim == 1:
        if np.iscomplexobj(gen):
            raise ContractViolation("a diagonal generator takes real eigenvalues")
        weights = psi.real**2 + psi.imag**2
        mean = weights @ gen
        var = np.einsum("pd,pd->p", weights, (gen - mean[:, None]) ** 2)
        second_moment = weights @ (gen * gen)
    else:
        v_psi = psi @ gen.T
        mean = np.einsum("pd,pd->p", psi.conj(), v_psi)
        worst_imag = float(np.max(np.abs(mean.imag), initial=0.0))
        if worst_imag > EXPECTATION_IMAG_TOL:
            raise ContractViolation(
                f"expectation has imaginary residue {worst_imag:.3e} above tolerance"
            )
        centered = v_psi - mean.real[:, None] * psi
        var = np.einsum("pd,pd->p", centered.conj(), centered).real
        second_moment = np.einsum("pd,pd->p", v_psi.conj(), v_psi).real
    scale = 4.0 * evolution_time * evolution_time
    return scale * var, scale * second_moment


def _one_row(dyn: ParameterizedDynamics, probe: PureState) -> tuple[np.ndarray, np.ndarray]:
    return qfi_batch(
        probe.amplitudes[None, :], dyn.characteristic_op.entries, dyn.evolution_time
    )


def sqpe_qfi(dyn: ParameterizedDynamics, probe: PureState) -> float:
    """QFI of the standard procedure: 4 T^2 Var[V] over the probe."""
    return float(_one_row(dyn, probe)[0][0])


def iqpe_generator(dyn: ParameterizedDynamics, g: float) -> HermitianOperator:
    """Generator of the switched dynamics on the joint meter+probe space.

    Block-diagonal in the meter (outer) index: the plain generator on the
    forward branch and minus its U-conjugate on the backward branch.  For the
    linear encoding the plain generator is T * V.
    """
    t = dyn.evolution_time
    h_gen = t * dyn.characteristic_op.entries
    u = dyn.unitary_at(g).entries
    backward = -u @ h_gen @ u.conj().T
    dim = dyn.dim
    joint = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
    joint[:dim, :dim] = h_gen
    joint[dim:, dim:] = backward
    return HermitianOperator(0.5 * (joint + joint.conj().T))


def iqpe_qfi(dyn: ParameterizedDynamics, probe: PureState) -> float:
    """QFI of the indefinite-time-direction procedure: 4 T^2 <V^2>.

    The two-level meter is prepared in the maximal superposition
    (|0> + |1>)/sqrt(2); ``iqpe_qfi_general`` gives the same quantity through
    the joint generator.
    """
    return float(_one_row(dyn, probe)[1][0])


def iqpe_qfi_general(dyn: ParameterizedDynamics, probe: PureState, g: float = 0.0) -> float:
    """Switched-procedure QFI via the joint generator at parameter ``g``.

    4 Var of ``iqpe_generator`` over |meter_plus>|probe>: the route that the
    closed form of ``iqpe_qfi`` is checked against.
    """
    joint = tensor(meter_plus(), probe)
    return 4.0 * variance(iqpe_generator(dyn, g), joint)


def qfi_upper_bounds(dyn: ParameterizedDynamics) -> tuple[float, float]:
    """Eigenvalue upper bounds for both procedures at fixed evolution time.

    With extremal eigenvalues lam_M, lam_m of the (time-independent)
    characteristic operator:

    * standard bound:   [T (lam_M - lam_m)]^2
    * switched bound:   max{(2 T lam_M)^2, (2 T lam_m)^2}

    The first never exceeds the second; that ordering is asserted on the
    returned pair.
    """
    eigenvalues, _ = herm_eig(dyn.characteristic_op)
    lam_m = float(eigenvalues[0])
    lam_max = float(eigenvalues[-1])
    t = dyn.evolution_time
    bound_sqpe = (t * (lam_max - lam_m)) ** 2
    bound_iqpe = max((2.0 * t * lam_max) ** 2, (2.0 * t * lam_m) ** 2)
    if bound_sqpe > bound_iqpe + 1e-9:
        raise ContractViolation(
            "bound ordering violated: standard bound exceeds switched bound"
        )
    return bound_sqpe, bound_iqpe


def qfi_report(dyn: ParameterizedDynamics, probe: PureState) -> QfiReport:
    """Both QFIs and both bounds for one probe; invariants checked on build."""
    bound_sqpe, bound_iqpe = qfi_upper_bounds(dyn)
    return QfiReport(
        qfi_sqpe=sqpe_qfi(dyn, probe),
        qfi_iqpe=iqpe_qfi(dyn, probe),
        bound_sqpe=bound_sqpe,
        bound_iqpe=bound_iqpe,
    )


def sqpe_state_family(
    dyn: ParameterizedDynamics, probe: PureState
) -> Callable[[float], PureState]:
    """g -> U(g)|probe>, the family whose numeric QFI matches sqpe_qfi."""

    def family(g: float) -> PureState:
        return apply_unitary(dyn.unitary_at(g), probe)

    return family


def iqpe_state_family(
    dyn: ParameterizedDynamics, probe: PureState
) -> Callable[[float], PureState]:
    """g -> U_switch(g)(|meter_plus>|probe>), matching iqpe_qfi numerically."""
    joint0 = tensor(meter_plus(), probe)
    dim = dyn.dim

    def family(g: float) -> PureState:
        u = dyn.unitary_at(g).entries
        block = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
        block[:dim, :dim] = u
        block[dim:, dim:] = u.conj().T
        return apply_unitary(UnitaryMatrix(block), joint0)

    return family
