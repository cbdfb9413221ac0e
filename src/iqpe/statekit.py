"""Dense complex linear-algebra substrate: states, operators, variance,
eigensolver, matrix exponential.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import EXPECTATION_IMAG_TOL, SPECTRAL_TOL, STRUCTURAL_TOL, UNITARY_TOL

__all__ = [
    "ContractViolation",
    "Range",
    "FINITE",
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


@dataclass(frozen=True)
class Range:
    """The integers, or the finite numbers, from ``lo`` to ``hi``, each end in
    or out as ``ends`` says ("[]", "(]", ...).  Test and text come from the
    same ends, so a library call, a run-config key and a flag refuse alike."""

    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "[]"
    integer: bool = False

    def holds(self, value) -> bool:
        if self.integer and not isinstance(value, (int, np.integer)):
            return False
        # every comparison with NaN is false, so NaN never holds
        above = self.lo <= value if self.ends[0] == "[" else self.lo < value
        below = value <= self.hi if self.ends[1] == "]" else value < self.hi
        return bool(above and below and -math.inf < value < math.inf)

    def text(self, degrees: bool = False) -> str:
        """The rule in words; ``degrees`` states a range of radians in degrees."""
        lo, hi = (math.degrees(end) if degrees else end for end in (self.lo, self.hi))
        lo, hi = (str(end) if isinstance(end, int) else f"{end:.9g}" for end in (lo, hi))
        kind = "an integer" if self.integer else "a finite number"
        unit = " deg" if degrees else ""
        if math.isfinite(self.hi):
            return f"{kind} in {self.ends[0]}{lo}, {hi}{self.ends[1]}{unit}"
        if math.isfinite(self.lo):
            return f"{kind} {'>=' if self.ends[0] == '[' else '>'} {lo}{unit}"
        return kind

    def check(self, name: str, value, error=ContractViolation, *args, degrees: bool = False):
        """``value``, or ``error(message, *args)`` saying why ``name`` refuses it
        if it does; a ``degrees`` value is tested in radians."""
        if not self.holds(math.radians(value) if degrees else value):
            raise error(f"{name} must be {self.text(degrees)}, got {value}".lstrip(), *args)
        return value

    def parse(self, raw: str, degrees: bool = False):
        """``raw`` read as an integer or a number; ValueError if it is refused."""
        return self.check("", (int if self.integer else float)(raw), ValueError, degrees=degrees)


FINITE = Range()


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
        Range(1, integer=True).check("state dimension", arr.size)
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

