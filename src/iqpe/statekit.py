"""Dense complex linear-algebra substrate: states, operators, variance,
eigensolver, matrix exponential.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import EXPECTATION_IMAG_TOL, SPECTRAL_TOL, STRUCTURAL_TOL, UNITARY_TOL

__all__ = [
    "ContractViolation",
    "PureState",
    "HermitianOperator",
    "UnitaryMatrix",
    "variance",
    "herm_eig",
    "expm_herm_generator",
    "apply_unitary",
]


class ContractViolation(ValueError):
    """A numerical contract (normalization, hermiticity, unitarity, shape) failed."""


def _frozen_complex_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.ndim != ndim:
        raise ContractViolation(f"expected a {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("array contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over a finite basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.amplitudes, ndim=1)
        if arr.size < 1:
            raise ContractViolation("state dimension must be >= 1")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > STRUCTURAL_TOL:
            raise ContractViolation(
                f"state norm {norm!r} deviates from 1 by more than {STRUCTURAL_TOL}"
            )
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @staticmethod
    def normalized(values) -> "PureState":
        """Build a state from an unnormalized amplitude vector."""
        arr = np.asarray(values, dtype=np.complex128)
        norm = np.linalg.norm(arr)
        if norm == 0.0:
            raise ContractViolation("cannot normalize the zero vector")
        return PureState(arr / norm)

    @staticmethod
    def basis_vector(dim: int, index: int) -> "PureState":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return PureState(amps)


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex square matrix equal to its own conjugate transpose."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.entries, ndim=2)
        n, m = arr.shape
        if n != m or n < 1:
            raise ContractViolation(f"operator must be square, got shape {arr.shape}")
        residual = np.max(np.abs(arr - arr.conj().T))
        if residual > STRUCTURAL_TOL:
            raise ContractViolation(
                f"matrix is not Hermitian (max |A - A^dag| = {residual:.3e})"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class UnitaryMatrix:
    """Dense complex square matrix with U^dag U = I."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.entries, ndim=2)
        n, m = arr.shape
        if n != m or n < 1:
            raise ContractViolation(f"matrix must be square, got shape {arr.shape}")
        residual = np.linalg.norm(arr.conj().T @ arr - np.eye(n), ord="fro")
        if residual > UNITARY_TOL:
            raise ContractViolation(
                f"matrix is not unitary (||U^dag U - I||_F = {residual:.3e})"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _check_dims(op_dim: int, state_dim: int):
    if op_dim != state_dim:
        raise ContractViolation(
            f"dimension mismatch: operator dim {op_dim} vs state dim {state_dim}"
        )


def variance(op: HermitianOperator, state: PureState) -> float:
    """||(op - <op>) psi||^2.

    The two-pass form (Chan, Golub & LeVeque 1983) is nonnegative by
    construction; <op^2> - <op>^2 cancels catastrophically once <op^2> is
    large, and can come out below zero.
    """
    _check_dims(op.dim, state.dim)
    psi = state.amplitudes
    op_psi = op.entries @ psi
    mean = np.vdot(psi, op_psi)
    if abs(mean.imag) > EXPECTATION_IMAG_TOL:
        raise ContractViolation(
            f"expectation has imaginary residue {mean.imag:.3e} above tolerance"
        )
    centered = op_psi - mean.real * psi
    return float(np.vdot(centered, centered).real)


def herm_eig(op: HermitianOperator) -> tuple[np.ndarray, UnitaryMatrix]:
    """Eigenvalues (ascending, real) and the unitary of column eigenvectors.

    Residual contract: op @ v_k = lam_k v_k per column within SPECTRAL_TOL.
    """
    eigenvalues, vectors = np.linalg.eigh(op.entries)
    residual = np.max(np.abs(op.entries @ vectors - vectors * eigenvalues))
    if residual > SPECTRAL_TOL:
        raise ContractViolation(f"eigenpair residual {residual:.3e} above tolerance")
    return eigenvalues, UnitaryMatrix(vectors)


def expm_herm_generator(op: HermitianOperator, scale: float) -> UnitaryMatrix:
    """exp(-1j * scale * op) via eigendecomposition.

    The eigen route keeps the result unitary to eigensolver accuracy, which a
    truncated series would not.
    """
    eigenvalues, vectors = herm_eig(op)
    v = vectors.entries
    phases = np.exp(-1j * float(scale) * eigenvalues)
    return UnitaryMatrix((v * phases) @ v.conj().T)


def apply_unitary(u: UnitaryMatrix, state: PureState) -> PureState:
    """u |state>, renormalization-free (unitarity preserves the norm contract)."""
    _check_dims(u.dim, state.dim)
    return PureState(u.entries @ state.amplitudes)

