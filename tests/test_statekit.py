"""Linear-algebra substrate: construction contracts, operations, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpe.statekit import (
    ROUNDING_FACTOR,
    ContractViolation,
    HermitianOperator,
    PureState,
    UnitaryMatrix,
    apply_unitary,
    check_rounding,
    expm_herm_generator,
    herm_eig,
    variance,
)
from oracles import expectation, number_operator, tensor

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(amps / np.linalg.norm(amps))


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (raw + raw.conj().T))


# ---------------------------------------------------------------------------
# construction contracts
# ---------------------------------------------------------------------------


def test_state_rejects_unnormalized():
    with pytest.raises(ContractViolation):
        PureState(np.array([1.0, 1.0]))


def test_state_rejects_empty_and_nonfinite():
    with pytest.raises(ContractViolation):
        PureState(np.array([]))
    with pytest.raises(ContractViolation):
        PureState(np.array([np.nan, 0.0]))


def test_hermitian_rejects_asymmetric():
    with pytest.raises(ContractViolation):
        HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))


def test_unitary_rejects_scaled_identity():
    with pytest.raises(ContractViolation):
        UnitaryMatrix(2.0 * np.eye(2))


def test_rounding_bound_scales_with_the_problem():
    # one factor for every contract: the bound is ROUNDING_FACTOR * 2^-53 * scale
    bound = ROUNDING_FACTOR * 2.0**-53 * 1312.0
    check_rounding("state norm", bound, 1312.0)
    check_rounding("state norm", -1.0, 0.0)
    with pytest.raises(ContractViolation) as info:
        check_rounding("state norm", np.nextafter(bound, 1.0), 1312.0)
    assert str(info.value) == f"state norm: residual {bound:.3e} above its rounding bound {bound:.3e}"
    with pytest.raises(ContractViolation, match="residual nan"):
        check_rounding("state norm", math.nan, 1312.0)


def test_state_norm_bound_grows_with_dimension():
    # 1 + 1e-13 is off by more than the rounding of d = 2, not of d = 1312
    for dim, holds in ((2, False), (1312, True)):
        amps = np.full(dim, (1.0 + 1e-13) / math.sqrt(dim))
        if holds:
            PureState(amps)
        else:
            with pytest.raises(ContractViolation, match="state norm"):
                PureState(amps)


def test_values_are_immutable():
    state = PureState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5
    op = HermitianOperator(S1)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 1.0


# ---------------------------------------------------------------------------
# expectation / variance
# ---------------------------------------------------------------------------


def test_expectation_identity_is_one():
    rng = np.random.default_rng(1)
    ident = HermitianOperator(np.eye(2))
    for _ in range(5):
        assert expectation(ident, random_state(rng, 2)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_eigenstate():
    assert expectation(HermitianOperator(S3), PureState(np.array([1.0, 0.0]))) == 1.0


def test_expectation_s1_on_circular_state():
    # oracle: direct 2x2 arithmetic, conj(psi) @ S1 @ psi
    psi = np.array([1.0, 0.0], dtype=complex)
    expected = (psi.conj() @ S1 @ psi).real
    assert expected == 0.0
    assert expectation(HermitianOperator(S1), PureState(psi)) == expected


def test_expectation_dimension_mismatch():
    with pytest.raises(ContractViolation):
        expectation(HermitianOperator(np.eye(3)), PureState(np.array([1.0, 0.0])))


def test_variance_identity_is_zero():
    rng = np.random.default_rng(2)
    ident = HermitianOperator(np.eye(4))
    assert variance(ident, random_state(rng, 4)) == pytest.approx(0.0, abs=1e-12)


def test_variance_s1_on_circular_state():
    # oracle: <S1^2> = 1 (S1 squares to identity), <S1> = 0 on (1, 0)
    assert variance(HermitianOperator(S1), PureState(np.array([1.0, 0.0]))) == pytest.approx(
        1.0, abs=1e-12
    )


def test_variance_number_operator_coherent():
    from iqpe.scenarios import coherent_state

    state = coherent_state(4.0)
    assert variance(number_operator(state.dim), state) == pytest.approx(4.0, abs=1e-6)


# ---------------------------------------------------------------------------
# herm_eig / expm
# ---------------------------------------------------------------------------


def test_eig_diagonal_sorted_ascending():
    vals, _ = herm_eig(HermitianOperator(np.diag([3.0, 1.0, 2.0]).astype(complex)))
    assert np.allclose(vals, [1.0, 2.0, 3.0])


def test_eig_pauli_spectrum():
    s2 = HermitianOperator(np.array([[0, -1j], [1j, 0]]))
    vals, vecs = herm_eig(s2)
    assert np.allclose(vals, [-1.0, 1.0])
    # reconstruction
    v = vecs.entries
    assert np.linalg.norm(v @ np.diag(vals) @ v.conj().T - s2.entries) < 1e-9


def test_eig_ladder_spectrum():
    from iqpe.scenarios import modal_ladder

    vals, _ = herm_eig(modal_ladder(4).j3)
    assert np.allclose(vals, [-2, -1, 0, 1, 2], atol=1e-12)


def test_expm_zero_scale_is_identity():
    assert np.allclose(
        expm_herm_generator(HermitianOperator(S1), 0.0).entries, np.eye(2), atol=1e-14
    )


def test_expm_diagonal_phases():
    # oracle: exp(-1j*scale*lambda) on the diagonal generator diag(1, -1)
    op = HermitianOperator(S3)
    got = expm_herm_generator(op, np.pi / 2.0).entries
    assert np.allclose(got, np.diag([-1j, 1j]), atol=1e-12)
    # a full half-turn gives the same -1 phase on both eigenvalues
    assert np.allclose(expm_herm_generator(op, np.pi).entries, -np.eye(2), atol=1e-12)


def test_expm_oam_generator_phases():
    from iqpe.scenarios import modal_ladder

    lz = modal_ladder(1).lz  # diag(1, -1) on (|l=1>, |l=-1>)
    alpha = 0.37
    got = expm_herm_generator(lz, alpha).entries
    assert np.allclose(got, np.diag([np.exp(-1j * alpha), np.exp(1j * alpha)]), atol=1e-12)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_basis_bookkeeping():
    joint = tensor(PureState(np.array([1.0, 0.0])), PureState(np.array([0.0, 1.0])))
    assert np.allclose(joint.amplitudes, [0, 1, 0, 0])


def test_tensor_identity():
    joint = tensor(HermitianOperator(np.eye(2)), HermitianOperator(np.eye(3)))
    assert np.allclose(joint.entries, np.eye(6))


def test_tensor_meter_outer_joint_state():
    # |+> (x) |l>: equal amplitudes on the two meter blocks at the probe index
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    probe = PureState.basis_vector(3, 0)
    joint = tensor(plus, probe)
    expected = np.zeros(6, dtype=complex)
    expected[0] = expected[3] = 1.0 / np.sqrt(2.0)
    assert np.allclose(joint.amplitudes, expected)


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(ContractViolation):
        tensor(PureState(np.array([1.0, 0.0])), HermitianOperator(np.eye(2)))


def test_tensor_associative():
    rng = np.random.default_rng(3)
    a, b, c = (random_state(rng, d) for d in (2, 3, 2))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    # identical index bookkeeping; values differ only by multiplication order
    assert np.max(np.abs(left.amplitudes - right.amplitudes)) < 1e-15


# ---------------------------------------------------------------------------
# property-style invariants
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=8))
def test_unitary_preserves_norm(seed, dim):
    rng = np.random.default_rng(seed)
    op = random_hermitian(rng, dim)
    u = expm_herm_generator(op, rng.normal())
    state = random_state(rng, dim)
    evolved = apply_unitary(u, state)
    assert abs(np.linalg.norm(evolved.amplitudes) - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=8))
def test_eig_reconstruction(seed, dim):
    rng = np.random.default_rng(seed)
    op = random_hermitian(rng, dim)
    vals, vecs = herm_eig(op)
    v = vecs.entries
    assert np.linalg.norm(v @ np.diag(vals) @ v.conj().T - op.entries, ord="fro") < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_expm_group_law(seed, a, b):
    rng = np.random.default_rng(seed)
    op = random_hermitian(rng, 4)
    prod = expm_herm_generator(op, a).entries @ expm_herm_generator(op, b).entries
    assert np.max(np.abs(prod - expm_herm_generator(op, a + b).entries)) < 1e-9
