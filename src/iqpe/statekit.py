"""Dense complex linear-algebra substrate: states, operators, variance,
eigensolver, matrix exponential.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContractViolation",
    "Range",
    "FINITE",
    "ROUNDING_FACTOR",
    "check_rounding",
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
        # True is an int to Python, but no range takes a truth value as a number
        if isinstance(value, (bool, np.bool_)):
            return False
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

# The one factor of every rounding contract.  At the shipped sizes (d to 301,
# 602 and 1312) the largest residual measured was 8.6 * 2^-53 * scale, the
# unitarity of a 4x4 matrix exponential; every other stayed within 4.
ROUNDING_FACTOR = 64


def check_rounding(name: str, residual: float, scale: float) -> None:
    """``residual``, 0 in exact arithmetic, must stay within the rounding of
    a computation of that ``scale``, ROUNDING_FACTOR * 2^-53 * scale; else
    ``ContractViolation`` naming ``name``, the residual and the bound."""
    bound = ROUNDING_FACTOR * 2.0**-53 * scale
    if not residual <= bound:
        raise ContractViolation(f"{name}: residual {residual:.3e} above its rounding bound "
                                f"{bound:.3e}")


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
    """Complex amplitude vector over a finite basis, of norm 1 to the rounding of d."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.amplitudes, ndim=1)
        Range(1, integer=True).check("state dimension", arr.size)
        check_rounding("state norm", abs(np.linalg.norm(arr) - 1.0), arr.size)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @staticmethod
    def basis_vector(dim: int, index: int) -> "PureState":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return PureState(amps)


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex square matrix equal to its conjugate transpose, to rounding."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.entries, ndim=2)
        n, m = arr.shape
        if n != m or n < 1:
            raise ContractViolation(f"operator must be square, got shape {arr.shape}")
        check_rounding("hermiticity (max |A - A^dag|)", np.max(np.abs(arr - arr.conj().T)),
                       np.linalg.norm(arr) * n)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class UnitaryMatrix:
    """Dense complex square matrix with U^dag U = I, to rounding."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_array(self.entries, ndim=2)
        n, m = arr.shape
        if n != m or n < 1:
            raise ContractViolation(f"matrix must be square, got shape {arr.shape}")
        drift = np.linalg.norm(arr.conj().T @ arr - np.eye(n))
        check_rounding("unitarity (||U^dag U - I||_F)", drift, n)
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
    large, and can come out below zero.  <op>'s imaginary part must stay
    within the rounding of ||op||_F * d.
    """
    _check_dims(op.dim, state.dim)
    psi = state.amplitudes
    op_psi = op.entries @ psi
    mean = np.vdot(psi, op_psi)
    check_rounding("imaginary part of <op>", abs(mean.imag), np.linalg.norm(op.entries) * op.dim)
    centered = op_psi - mean.real * psi
    return float(np.vdot(centered, centered).real)


def herm_eig(op: HermitianOperator) -> tuple[np.ndarray, UnitaryMatrix]:
    """Eigenvalues (ascending, real) and the unitary of column eigenvectors.

    Residual contract: op @ v_k = lam_k v_k per column, to the rounding of
    ||op||_F * d, where ||op||_F is the norm of the eigenvalues.
    """
    eigenvalues, vectors = np.linalg.eigh(op.entries)
    residual = np.max(np.abs(op.entries @ vectors - vectors * eigenvalues))
    check_rounding("eigenpair residual", residual, np.linalg.norm(eigenvalues) * op.dim)
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

