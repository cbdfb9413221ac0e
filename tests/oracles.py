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
  readout;
* ``stokes_operators``, ``polarization_state`` and ``qfi_dense`` are the
  birefringence map's dense route: the Pauli matrices, the state
  cos(theta/2)|R> + sin(theta/2) e^{i phi}|L> and the QFIs of a block of
  states from one eigensolve of a dense generator.
* ``coherent_engine`` is the sphere maps' engine: the QFIs of SU(2)
  coherent states from their weights on the generator's eigenvectors, which
  the maps' closed forms are held to.
* ``coherent_state`` is the Kerr probe on its ``kerr_truncation`` Fock
  levels, and ``kerr_fock_qfi`` its QFI pair over the photon-number spectrum
  0, 1, 2, ..., which ``kerr_qfi``'s closed forms are held to;
  ``kerr_truncation_scan`` finds ``kerr_truncation``'s T by counting up
  from the mean one level at a time.

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
from iqpe.qfi import ParameterizedDynamics, qfi_batch
from iqpe.scenarios import SpherePoint, kerr_truncation, modal_ladder
from iqpe.statekit import (
    ContractViolation,
    HermitianOperator,
    PureState,
    UnitaryMatrix,
    _check_dims,
    apply_unitary,
    check_rounding,
    expm_herm_generator,
    herm_eig,
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


# ---------------------------------------------------------------------------
# the polarization sphere's dense route
# ---------------------------------------------------------------------------


def stokes_operators() -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """The three Stokes operators as Pauli matrices in the (|R>, |L>) basis."""
    s1 = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=np.complex128))
    s2 = HermitianOperator(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
    s3 = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=np.complex128))
    return s1, s2, s3


def polarization_state(pt: SpherePoint) -> PureState:
    """cos(theta/2)|R> + sin(theta/2) e^{i phi}|L> (global phase dropped)."""
    half = pt.theta / 2.0
    amps = np.array([math.cos(half), math.sin(half) * np.exp(1j * pt.phi)])
    return PureState(amps)


def qfi_dense(
    states: np.ndarray, op: HermitianOperator, evolution_time: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``qfi_batch`` for a dense characteristic operator.

    One ``herm_eig`` gives the spectrum and the eigenvectors v_k; row psi
    becomes the amplitudes <v_k|psi>, i.e. ``psi @ conj(V)``.
    """
    psi = np.asarray(states)
    if psi.ndim != 2 or psi.shape[1] != op.dim:
        raise ContractViolation(
            f"dimension mismatch: operator dim {op.dim} vs state block {psi.shape}"
        )
    eigenvalues, vectors = herm_eig(op)
    return qfi_batch(psi @ vectors.entries.conj(), eigenvalues, evolution_time)


# ---------------------------------------------------------------------------
# the sphere maps' coherent-state engine
# ---------------------------------------------------------------------------


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^0, ..., x^n of every entry of ``x`` as an ``(n + 1, x.size)`` table, by
    repeated multiplication: a ``**`` per entry calls libm's pow, far slower."""
    x = x.reshape(-1)
    table = np.empty((n + 1, x.size))
    table[0] = 1.0
    for j in range(1, n + 1):
        np.multiply(table[j - 1], x, out=table[j])
    return table


def coherent_engine(order_N: int, cos_half: np.ndarray, sin_half: np.ndarray):
    """Engine QFIs of order-N SU(2) coherent states, two arrays shaped like
    ``cos_half`` and ``sin_half``, the moduli |cos(beta/2)| and |sin(beta/2)|
    at each point's angle beta from the axis.  On the generator's k-th
    eigenvector, eigenvalue N - 2k, a state's amplitude has modulus
    sqrt(C(N, k)) |cos(beta/2)|^(N-k) |sin(beta/2)|^k (Arecchi, Courtens,
    Gilmore & Thomas, PRA 6, 2211 (1972)), and the QFIs read only the
    weights.  Each row's norm is held to the rounding of N + 1."""
    columns = _powers(sin_half, order_N)  # sin^k in column k
    columns *= _powers(cos_half, order_N)[::-1]
    columns *= np.array([[math.sqrt(math.comb(order_N, k))] for k in range(order_N + 1)])
    rows = columns.T  # a row per point, each column contiguous
    norms = np.sqrt(np.einsum("pk,pk->p", rows, rows))
    check_rounding("coherent state norm", np.max(np.abs(norms - 1.0)), order_N + 1)
    engine_s, engine_i = qfi_batch(rows, order_N - 2.0 * np.arange(order_N + 1))
    return engine_s.reshape(cos_half.shape), engine_i.reshape(cos_half.shape)


# ---------------------------------------------------------------------------
# the Kerr probe's Fock-space route
# ---------------------------------------------------------------------------


def coherent_state(nbar: float) -> PureState:
    """Coherent state on the ``kerr_truncation(nbar)`` lowest Fock levels.

    The amplitude phase is irrelevant for number statistics, so the
    amplitudes are taken real and positive.
    """
    size = kerr_truncation(nbar)
    # log-domain Poisson weights relative to the mode m = floor(nbar):
    # log(p_k / p_m) sums log(nbar / j) over the levels j between them, so
    # no term is near nbar * log(nbar) and no digits cancel
    mode = math.floor(nbar)
    steps = np.log(nbar / np.arange(1.0, size))  # log(p_j / p_(j-1)), j = 1..size-1
    log_p = np.zeros(size)
    log_p[mode + 1 :] = np.cumsum(steps[mode:])
    log_p[:mode] = -np.cumsum(steps[:mode][::-1])[::-1]
    amplitudes = np.exp(0.5 * log_p)  # the mode's is 1, so the norm is at least 1
    return PureState(amplitudes / np.linalg.norm(amplitudes))


def kerr_fock_qfi(nbar: float) -> tuple[float, float]:
    """``kerr_qfi`` by the Fock space: ``qfi_batch`` over the photon-number
    spectrum 0, 1, 2, ..., the Fock basis being its eigenbasis."""
    probe = coherent_state(nbar)
    sqpe, iqpe = qfi_batch(probe.amplitudes[None, :], np.arange(probe.dim, dtype=float))
    return float(sqpe[0]), float(iqpe[0])


def kerr_truncation_scan(nbar: float) -> int:
    """``kerr_truncation`` by a linear scan: the first T above the mean at
    which T^2 e^-nbar (e nbar / T)^T is at most 2^-53 nbar."""
    if nbar == 0.0:
        return 1
    limit = math.log(nbar) - 53.0 * math.log(2.0)
    size = math.floor(nbar) + 1
    while size * math.log(math.e * nbar / size) - nbar + 2.0 * math.log(size) > limit:
        size += 1
    return size
