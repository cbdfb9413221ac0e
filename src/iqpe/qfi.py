"""Quantum Fisher information engine.

Covers the two estimation procedures compared throughout this package:

* standard (definite-time-direction) parameter estimation, where the QFI of a
  linear encoding is four times the variance of the characteristic operator,
  and
* the indefinite-time-direction procedure, where a two-level meter acts as a
  quantum switch superposing forward and backward evolution and the QFI
  becomes four times the full second moment of the characteristic operator.

The engine treats the time-independent linear encoding H(g) = g * V
computationally, through V's spectrum: ``qfi_batch`` takes its eigenvalues
and the states' amplitudes in its eigenbasis.  No command calls it: the
maps and the Kerr pair are closed forms, which the tests hold to it over
spectra known in closed form.  Only the single-probe functions take a
dense V, through one ``herm_eig``.  The general time-ordered case enters
only through the constant-eigenvalue upper-bound formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statekit import (FINITE, ContractViolation, HermitianOperator, PureState, _check_dims,
                       check_rounding, herm_eig)

__all__ = [
    "ParameterizedDynamics",
    "QfiReport",
    "qfi_batch",
    "sqpe_qfi",
    "iqpe_qfi",
    "qfi_upper_bounds",
    "qfi_report",
]


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
        FINITE.check("evolution time", self.evolution_time)

    @property
    def dim(self) -> int:
        return self.characteristic_op.dim


@dataclass(frozen=True)
class QfiReport:
    """QFI values and eigenvalue upper bounds for one probe/dynamics pair.

    Each QFI stays under its bound, and the standard one under the switched
    one, to the rounding of the probe's ``dim`` * ``bound_iqpe``, that is of
    d * 4 T^2 max|lam|^2."""

    qfi_sqpe: float
    qfi_iqpe: float
    bound_sqpe: float
    bound_iqpe: float
    dim: int = 1

    def __post_init__(self):
        scale = self.dim * self.bound_iqpe
        check_rounding("standard-procedure QFI over its bound",
                       self.qfi_sqpe - self.bound_sqpe, scale)
        check_rounding("indefinite-procedure QFI over its bound",
                       self.qfi_iqpe - self.bound_iqpe, scale)
        check_rounding("indefinite-procedure QFI below the standard one",
                       self.qfi_sqpe - self.qfi_iqpe, scale)


def qfi_batch(
    states: np.ndarray, spectrum: np.ndarray, evolution_time: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Both QFIs for every row of a ``(points, d)`` block of pure states.

    ``spectrum`` is the real vector of the eigenvalues lam_k of the
    characteristic operator V, and each row holds a state's amplitudes in
    V's eigenbasis.  With the weights w_k = |psi_k|^2, returns the arrays
    4 T^2 Var[V] = 4 T^2 sum_k w_k (lam_k - <V>)^2 (standard procedure,
    two-pass) and 4 T^2 <V^2> = 4 T^2 sum_k w_k lam_k^2 (indefinite
    procedure).  Rows are trusted to be normalized: states are validated
    where they enter.
    """
    psi = np.asarray(states)
    lam = np.asarray(spectrum)
    if psi.ndim != 2 or lam.shape != (psi.shape[1],):
        raise ContractViolation(
            f"dimension mismatch: spectrum shape {lam.shape} vs state block {psi.shape}"
        )
    if np.iscomplexobj(lam):
        raise ContractViolation("a spectrum takes real eigenvalues")
    weights = psi.real**2 + psi.imag**2 if np.iscomplexobj(psi) else psi * psi
    mean = weights @ lam
    # the deviations laid out like the weights, so that einsum reads both in one order
    var = np.einsum("pd,pd->p", weights,
                    np.subtract(lam, mean[:, None], out=np.empty_like(weights)) ** 2)
    second_moment = weights @ (lam * lam)
    scale = 4.0 * evolution_time * evolution_time
    return scale * var, scale * second_moment


def _one_row(dyn: ParameterizedDynamics, probe: PureState):
    """Both QFIs of one probe, then V's spectrum, from one ``herm_eig``: on
    V's eigenvectors v_k the probe's amplitudes are <v_k|psi> = psi @ conj(V)."""
    op = dyn.characteristic_op
    _check_dims(op.dim, probe.dim)
    eigenvalues, vectors = herm_eig(op)
    psi = probe.amplitudes[None, :] @ vectors.entries.conj()
    return (*qfi_batch(psi, eigenvalues, dyn.evolution_time), eigenvalues)


def sqpe_qfi(dyn: ParameterizedDynamics, probe: PureState) -> float:
    """QFI of the standard procedure: 4 T^2 Var[V] over the probe."""
    return float(_one_row(dyn, probe)[0][0])


def iqpe_qfi(dyn: ParameterizedDynamics, probe: PureState) -> float:
    """QFI of the indefinite-time-direction procedure: 4 T^2 <V^2>.

    The two-level meter is prepared in the maximal superposition
    (|0> + |1>)/sqrt(2).
    """
    return float(_one_row(dyn, probe)[1][0])


def _bounds(dyn: ParameterizedDynamics, eigenvalues: np.ndarray) -> tuple[float, float]:
    """``qfi_upper_bounds`` from V's ascending ``eigenvalues``."""
    lam_m = float(eigenvalues[0])
    lam_max = float(eigenvalues[-1])
    t = dyn.evolution_time
    bound_sqpe = (t * (lam_max - lam_m)) ** 2
    bound_iqpe = max((2.0 * t * lam_max) ** 2, (2.0 * t * lam_m) ** 2)
    check_rounding("standard bound over the switched one", bound_sqpe - bound_iqpe,
                   dyn.dim * bound_iqpe)
    return bound_sqpe, bound_iqpe


def qfi_upper_bounds(dyn: ParameterizedDynamics) -> tuple[float, float]:
    """Eigenvalue upper bounds for both procedures at fixed evolution time.

    With extremal eigenvalues lam_M, lam_m of the (time-independent)
    characteristic operator:

    * standard bound:   [T (lam_M - lam_m)]^2
    * switched bound:   max{(2 T lam_M)^2, (2 T lam_m)^2}

    The first never exceeds the second; that ordering is asserted on the
    returned pair, to the rounding of d * 4 T^2 max|lam|^2.
    """
    return _bounds(dyn, herm_eig(dyn.characteristic_op)[0])


def qfi_report(dyn: ParameterizedDynamics, probe: PureState) -> QfiReport:
    """Both QFIs and both bounds for one probe, from one eigensolve of V;
    invariants checked on build."""
    sqpe, iqpe, eigenvalues = _one_row(dyn, probe)
    return QfiReport(float(sqpe[0]), float(iqpe[0]), *_bounds(dyn, eigenvalues), dim=dyn.dim)
