"""Fisher-information engine: closed forms, numeric agreement, bounds."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqpe.qfi import (
    ParameterizedDynamics,
    QfiReport,
    iqpe_qfi,
    qfi_batch,
    qfi_report,
    qfi_upper_bounds,
    sqpe_qfi,
)
from iqpe.scenarios import coherent_state, modal_ladder, stokes_operators
from iqpe.statekit import ContractViolation, HermitianOperator, PureState, herm_eig, variance
from oracles import (
    expectation,
    iqpe_generator,
    iqpe_qfi_general,
    iqpe_state_family,
    number_operator,
    qfi_numeric,
    sqpe_state_family,
)

S1, S2, S3 = stokes_operators()
R_STATE = PureState(np.array([1.0, 0.0]))


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# numeric QFI
# ---------------------------------------------------------------------------


def test_numeric_constant_family_is_zero():
    state = PureState(np.array([0.6, 0.8]))
    assert qfi_numeric(lambda g: state, 0.3) == 0.0


def test_numeric_matches_pauli_variance():
    dyn = ParameterizedDynamics(S1)
    family = sqpe_state_family(dyn, R_STATE)
    assert qfi_numeric(family, 0.2) == pytest.approx(4.0, abs=1e-6)


def test_numeric_vanishes_on_generator_eigenstate():
    ladder = modal_ladder(4)
    dyn = ParameterizedDynamics(ladder.lz)
    family = sqpe_state_family(dyn, ladder.basis_state(4))
    assert qfi_numeric(family, 0.1) == pytest.approx(0.0, abs=1e-6)


def test_numeric_rejects_bad_step():
    state = PureState(np.array([1.0, 0.0]))
    with pytest.raises(ContractViolation):
        qfi_numeric(lambda g: state, 0.0, step=0.5)


# ---------------------------------------------------------------------------
# closed-form engine values
# ---------------------------------------------------------------------------


def test_sqpe_coherent_number_probe():
    probe = coherent_state(4.0)
    dyn = ParameterizedDynamics(number_operator(probe.dim))
    assert sqpe_qfi(dyn, probe) == pytest.approx(16.0, rel=1e-4)


def test_sqpe_circular_probe():
    assert sqpe_qfi(ParameterizedDynamics(S1), R_STATE) == pytest.approx(4.0, abs=1e-12)


def test_sqpe_dead_zone_top_oam():
    ladder = modal_ladder(4)
    dyn = ParameterizedDynamics(ladder.lz)
    assert sqpe_qfi(dyn, ladder.basis_state(4)) == pytest.approx(0.0, abs=1e-12)


def test_iqpe_coherent_number_probe():
    probe = coherent_state(4.0)
    dyn = ParameterizedDynamics(number_operator(probe.dim))
    assert iqpe_qfi(dyn, probe) == pytest.approx(80.0, rel=1e-3)


def test_iqpe_polarization_is_flat():
    rng = np.random.default_rng(7)
    dyn = ParameterizedDynamics(S1)
    for _ in range(10):
        assert iqpe_qfi(dyn, random_state(rng, 2)) == pytest.approx(4.0, abs=1e-10)


def test_iqpe_top_oam():
    ladder = modal_ladder(4)
    dyn = ParameterizedDynamics(ladder.lz)
    assert iqpe_qfi(dyn, ladder.basis_state(4)) == pytest.approx(64.0, abs=1e-10)


# ---------------------------------------------------------------------------
# batched kernel
# ---------------------------------------------------------------------------


def test_dense_generator_matches_variance_and_second_moment():
    # a dense V enters through its eigenbasis; the oracles are the direct
    # products 4 ||(V - <V>) psi||^2 and 4 ||V psi||^2 in the state basis
    rng = np.random.default_rng(3)
    for dim in (2, 3, 5, 8, 13, 21, 34, 48):
        for _ in range(4):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            op = HermitianOperator(float(rng.uniform(0.1, 5.0)) * (raw + raw.conj().T))
            dyn = ParameterizedDynamics(op)
            probe = random_state(rng, dim)
            v_psi = op.entries @ probe.amplitudes
            assert sqpe_qfi(dyn, probe) == pytest.approx(4.0 * variance(op, probe), rel=1e-12)
            assert iqpe_qfi(dyn, probe) == pytest.approx(
                4.0 * float(np.vdot(v_psi, v_psi).real), rel=1e-12
            )


def test_batch_rows_match_single_state_calls():
    rng = np.random.default_rng(8)
    ladder = modal_ladder(6)
    dyn = ParameterizedDynamics(ladder.lz, evolution_time=1.3)
    probes = [random_state(rng, 7) for _ in range(4)]
    sqpe, iqpe = qfi_batch(np.array([p.amplitudes for p in probes]), ladder.oam_values(), 1.3)
    for k, probe in enumerate(probes):
        assert sqpe[k] == pytest.approx(sqpe_qfi(dyn, probe), rel=1e-12)
        assert iqpe[k] == pytest.approx(iqpe_qfi(dyn, probe), rel=1e-12)


def test_batch_rejects_bad_shapes():
    with pytest.raises(ContractViolation):
        qfi_batch(np.ones((2, 3)), np.ones(4))
    with pytest.raises(ContractViolation):
        qfi_batch(np.ones((2, 3)), np.ones((3, 4)))
    # a dense matrix is not a spectrum: it enters through qfi_dense
    with pytest.raises(ContractViolation):
        qfi_batch(np.ones((2, 3)), np.eye(3))
    with pytest.raises(ContractViolation):
        qfi_batch(np.ones(3), np.ones(3))
    with pytest.raises(ContractViolation):
        qfi_batch(np.ones((2, 3)), np.ones(3, dtype=complex))
    with pytest.raises(ContractViolation):
        sqpe_qfi(ParameterizedDynamics(S1), modal_ladder(4).basis_state(4))
    with pytest.raises(ContractViolation):
        iqpe_qfi(ParameterizedDynamics(S1), modal_ladder(4).basis_state(4))


# ---------------------------------------------------------------------------
# switched-dynamics generator
# ---------------------------------------------------------------------------


def test_generator_zero_hamiltonian():
    zero = HermitianOperator(np.zeros((3, 3), dtype=complex))
    gen = iqpe_generator(ParameterizedDynamics(zero), 0.5)
    assert np.all(gen.entries == 0)


def test_generator_spectrum_pauli():
    gen = iqpe_generator(ParameterizedDynamics(S1), 0.83)
    vals, _ = herm_eig(gen)
    assert np.allclose(vals, [-1, -1, 1, 1], atol=1e-10)


def test_generator_spectrum_ladder():
    ladder = modal_ladder(4)
    gen = iqpe_generator(ParameterizedDynamics(ladder.lz), 0.4)
    vals, _ = herm_eig(gen)
    assert np.allclose(vals, [-4, -4, -2, -2, 0, 0, 2, 2, 4, 4], atol=1e-10)


def test_generator_route_matches_formula():
    rng = np.random.default_rng(11)
    ladder = modal_ladder(4)
    dyn = ParameterizedDynamics(ladder.lz)
    for _ in range(10):
        probe = random_state(rng, 5)
        direct = iqpe_qfi(dyn, probe)
        via_generator = iqpe_qfi_general(dyn, probe, g=float(rng.normal()))
        assert via_generator == pytest.approx(direct, rel=1e-6)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "op_builder, expected",
    [
        (lambda: S1, (4.0, 4.0)),
        (lambda: modal_ladder(4).lz, (64.0, 64.0)),
        (lambda: number_operator(17), (256.0, 1024.0)),
    ],
)
def test_upper_bounds(op_builder, expected):
    bounds = qfi_upper_bounds(ParameterizedDynamics(op_builder()))
    assert bounds == pytest.approx(expected, abs=1e-9)


def test_report_invariants_reject_inconsistent_values():
    with pytest.raises(ContractViolation):
        QfiReport(qfi_sqpe=5.0, qfi_iqpe=5.0, bound_sqpe=4.0, bound_iqpe=8.0)
    with pytest.raises(ContractViolation):
        QfiReport(qfi_sqpe=3.0, qfi_iqpe=2.0, bound_sqpe=4.0, bound_iqpe=8.0)


def _centered_state(rng, dim, edge):
    """A state whose weights are a palindrome, so <V> = 0 for any spectrum
    with lam_k = -lam_(d-1-k); ``edge`` of its norm^2 sits on the two ends."""
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps = amps + amps[::-1]
    amps *= math.sqrt(1.0 - edge) / np.linalg.norm(amps)
    amps[[0, -1]] += math.sqrt(edge / (2.0 if dim > 1 else 1.0))
    return PureState(amps / np.linalg.norm(amps))


def test_report_holds_at_the_fock_truncation_size():
    # d = 1312 is the Fock truncation of nbar = 1000.  (|0> + |1311>)/sqrt(2) with a
    # symmetric 1e-3 perturbation has <V> = 0, so both QFIs are equal in exact
    # arithmetic; this draw's two come out 1.2e-9 apart, above the absolute
    # 1e-9 the ordering once had, and far inside d * 4 max|lam|^2 rounding
    dim = 1312
    spectrum = np.arange(dim) - (dim - 1) / 2.0
    amps = np.zeros(dim)
    amps[[0, -1]] = 1.0
    perturbation = np.random.default_rng(1312).normal(size=dim) * 1e-3
    amps += perturbation + perturbation[::-1]
    probe = PureState(amps / np.linalg.norm(amps))
    report = qfi_report(ParameterizedDynamics(HermitianOperator(np.diag(spectrum))), probe)
    assert report.dim == dim
    assert report.qfi_sqpe == pytest.approx(report.qfi_iqpe, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 1600), seed=st.integers(0, 2**32 - 1), edge=st.floats(0.0, 1.0),
       evolution_time=st.floats(0.1, 10.0))
@example(dim=1600, seed=0, edge=1.0, evolution_time=10.0)
@example(dim=1312, seed=1, edge=0.999, evolution_time=1.0)
def test_report_of_a_centered_probe_holds_over_size(dim, seed, edge, evolution_time):
    # the batched kernel's QFIs over a centered spectrum of any size to 1.6k;
    # the bounds need only the extreme eigenvalues
    spectrum = np.arange(dim) - (dim - 1) / 2.0
    probe = _centered_state(np.random.default_rng(seed), dim, edge)
    sqpe, iqpe = qfi_batch(probe.amplitudes[None, :], spectrum, evolution_time)
    ends = ParameterizedDynamics(HermitianOperator(np.diag(spectrum[[0, -1]])), evolution_time)
    QfiReport(float(sqpe[0]), float(iqpe[0]), *qfi_upper_bounds(ends), dim=dim)


@settings(max_examples=20, deadline=None)
@given(order=st.integers(0, 300), seed=st.integers(0, 2**32 - 1), edge=st.floats(0.0, 1.0))
@example(order=300, seed=0, edge=1.0)
def test_report_of_a_centered_probe_holds_over_the_ladder(order, seed, edge):
    # Lz's spectrum N, N-2, ..., -N is centered: the whole report, eigensolve
    # and all, on the order-N ladder
    ladder = modal_ladder(order)
    probe = _centered_state(np.random.default_rng(seed), ladder.dim, edge)
    report = qfi_report(ParameterizedDynamics(ladder.lz), probe)
    assert report.qfi_sqpe == pytest.approx(report.qfi_iqpe, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# invariants over random probes
# ---------------------------------------------------------------------------


def _scenario_dynamics():
    return [
        ParameterizedDynamics(S1),
        ParameterizedDynamics(modal_ladder(4).lz),
    ]


def test_analytic_matches_numeric_over_random_probes():
    rng = np.random.default_rng(2024)
    for dyn in _scenario_dynamics():
        for _ in range(100):
            probe = random_state(rng, dyn.dim)
            g = float(rng.uniform(-1.0, 1.0))
            analytic_s = sqpe_qfi(dyn, probe)
            numeric_s = qfi_numeric(sqpe_state_family(dyn, probe), g)
            assert numeric_s == pytest.approx(analytic_s, rel=1e-5, abs=1e-7)
            analytic_i = iqpe_qfi(dyn, probe)
            numeric_i = qfi_numeric(iqpe_state_family(dyn, probe), g)
            assert numeric_i == pytest.approx(analytic_i, rel=1e-5, abs=1e-7)


def test_bound_ordering_over_random_probes():
    rng = np.random.default_rng(99)
    for dyn in _scenario_dynamics():
        bound_s, bound_i = qfi_upper_bounds(dyn)
        assert bound_s <= bound_i + 1e-9
        worst_s = max(sqpe_qfi(dyn, random_state(rng, dyn.dim)) for _ in range(100))
        worst_i = max(iqpe_qfi(dyn, random_state(rng, dyn.dim)) for _ in range(100))
        assert worst_s <= bound_s + 1e-9
        assert worst_i <= bound_i + 1e-9


def test_qfi_difference_is_squared_mean():
    rng = np.random.default_rng(512)
    for dyn in _scenario_dynamics():
        for _ in range(50):
            probe = random_state(rng, dyn.dim)
            gap = iqpe_qfi(dyn, probe) - sqpe_qfi(dyn, probe)
            mean = expectation(dyn.characteristic_op, probe)
            assert gap == pytest.approx(4.0 * mean * mean, abs=1e-8)


def test_global_phase_invariance():
    rng = np.random.default_rng(31)
    dyn = ParameterizedDynamics(modal_ladder(4).lz)
    for _ in range(10):
        probe = random_state(rng, 5)
        chi = float(rng.uniform(0, 2 * np.pi))
        shifted = PureState(np.exp(1j * chi) * probe.amplitudes)
        assert abs(sqpe_qfi(dyn, probe) - sqpe_qfi(dyn, shifted)) < 1e-10
        assert abs(iqpe_qfi(dyn, probe) - iqpe_qfi(dyn, shifted)) < 1e-10
        report = qfi_report(dyn, probe)
        shifted_report = qfi_report(dyn, shifted)
        assert report.qfi_sqpe == pytest.approx(shifted_report.qfi_sqpe, abs=1e-10)


@pytest.mark.parametrize("evolution_time", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_evolution_time_is_rejected(evolution_time):
    # every bound check in QfiReport compares false against NaN, so a NaN
    # time would pass through to a report full of NaN
    with pytest.raises(ContractViolation, match="evolution time must be a finite number"):
        ParameterizedDynamics(modal_ladder(4).lz, evolution_time)
