"""Scenario layer: Stokes algebra, modal ladder, sphere maps, LG fields."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqpe import scenarios
from iqpe.qfi import ParameterizedDynamics, iqpe_qfi, sqpe_qfi
from iqpe.scenarios import (
    ModalLadder,
    SpherePoint,
    birefringence_qfi_map,
    coherent_state,
    field_rotation_check,
    hlg_state,
    kerr_qfi,
    lg_field,
    modal_ladder,
    polarization_state,
    rotation_qfi_map,
    stokes_operators,
)
from iqpe.statekit import ContractViolation, herm_eig, variance
from oracles import expectation, iqpe_state_family, qfi_numeric, sqpe_state_family

# ---------------------------------------------------------------------------
# Stokes operators and polarization states
# ---------------------------------------------------------------------------


def test_stokes_matrices():
    s1, s2, s3 = stokes_operators()
    assert np.array_equal(s1.entries, [[0, 1], [1, 0]])
    assert np.array_equal(s2.entries, [[0, -1j], [1j, 0]])
    assert np.array_equal(s3.entries, [[1, 0], [0, -1]])


def test_stokes_s3_eigenstate():
    _, _, s3 = stokes_operators()
    r = polarization_state(SpherePoint(0.0, 1.3))
    assert np.allclose(s3.entries @ r.amplitudes, r.amplitudes)


def test_stokes_involution_and_commutator():
    s1, s2, s3 = stokes_operators()
    assert np.array_equal(s1.entries @ s1.entries, np.eye(2))
    comm = s1.entries @ s2.entries - s2.entries @ s1.entries
    assert np.allclose(comm, 2j * s3.entries)


def test_polarization_poles_and_equator():
    north = polarization_state(SpherePoint(0.0, 0.4))
    assert np.allclose(north.amplitudes, [1.0, 0.0])
    south = polarization_state(SpherePoint(math.pi, 0.0))
    assert np.allclose(south.amplitudes, [0.0, 1.0], atol=1e-15)
    equator = polarization_state(SpherePoint(math.pi / 2.0, 0.0))
    assert np.allclose(equator.amplitudes, np.array([1.0, 1.0]) / math.sqrt(2.0))


def test_sphere_point_validation():
    with pytest.raises(ContractViolation):
        SpherePoint(-0.1, 0.0)
    assert SpherePoint(1.0, 2.0 * math.pi + 0.5).phi == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# birefringence map
# ---------------------------------------------------------------------------


def test_birefringence_map_values():
    rows = birefringence_qfi_map(5)
    by_point = {(round(float(r["theta"]), 12), round(float(r["phi"]), 12)): r for r in rows}
    half_pi = round(math.pi / 2.0, 12)
    dead = by_point[(half_pi, 0.0)]
    assert dead["qfi_sqpe"] == pytest.approx(0.0, abs=1e-12)
    assert all(r["qfi_iqpe"] == pytest.approx(4.0, abs=1e-12) for r in rows)


def test_birefringence_bright_plane():
    # the phi = pi/2 meridian is off the equiangular grid: check the engine
    # directly at the maximum-fluctuation point
    from iqpe.qfi import iqpe_qfi, sqpe_qfi

    s1, _, _ = stokes_operators()
    dyn = ParameterizedDynamics(s1)
    probe = polarization_state(SpherePoint(math.pi / 2.0, math.pi / 2.0))
    assert sqpe_qfi(dyn, probe) == pytest.approx(4.0, abs=1e-12)
    assert iqpe_qfi(dyn, probe) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("order", [None, 0, 4])
@pytest.mark.parametrize("res", [2, 5])
def test_sphere_map_records(order, res):
    records = birefringence_qfi_map(res) if order is None else rotation_qfi_map(order, res)
    assert records.dtype.names == ("theta", "phi", "qfi_sqpe", "qfi_iqpe")
    assert records.shape == (2 * res * res,)
    # theta-major: each theta holds a run of 2*res phis over [0, 2*pi)
    grid = records.reshape(res, 2 * res)
    thetas = np.linspace(0.0, math.pi, res)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * res, endpoint=False)
    assert np.array_equal(grid["theta"], np.broadcast_to(thetas[:, None], grid.shape))
    assert np.array_equal(grid["phi"], np.broadcast_to(phis, grid.shape))


# ---------------------------------------------------------------------------
# modal ladder
# ---------------------------------------------------------------------------


def test_ladder_trivial_order():
    ladder = modal_ladder(0)
    for op in (ladder.j1, ladder.j2, ladder.j3, ladder.lz):
        assert op.entries.shape == (1, 1)
        assert op.entries[0, 0] == 0


def test_ladder_spin_half_is_pauli():
    ladder = modal_ladder(1)
    s1, s2, s3 = stokes_operators()
    assert np.allclose(ladder.j1.entries, s1.entries / 2.0)
    assert np.allclose(ladder.j2.entries, s2.entries / 2.0)
    assert np.allclose(ladder.j3.entries, s3.entries / 2.0)


def test_ladder_oam_spectrum():
    vals, _ = herm_eig(modal_ladder(4).lz)
    assert np.allclose(vals, [-4, -2, 0, 2, 4], atol=1e-12)


def assert_su2_ladder(ladder):
    """Dense su(2) checks: the three commutators, the Casimir, lz = 2*j3 = diag(l)."""
    order = ladder.order_N
    a1, a2, a3 = ladder.j1.entries, ladder.j2.entries, ladder.j3.entries
    assert np.linalg.norm(a1 @ a2 - a2 @ a1 - 1j * a3, ord="fro") < 1e-9
    assert np.linalg.norm(a2 @ a3 - a3 @ a2 - 1j * a1, ord="fro") < 1e-9
    assert np.linalg.norm(a3 @ a1 - a1 @ a3 - 1j * a2, ord="fro") < 1e-9
    j = order / 2.0
    casimir = a1 @ a1 + a2 @ a2 + a3 @ a3
    assert np.max(np.abs(casimir - j * (j + 1.0) * np.eye(order + 1))) < 1e-9
    assert np.array_equal(ladder.lz.entries, 2.0 * ladder.j3.entries)
    assert np.array_equal(ladder.lz.entries, np.diag(np.arange(order, -order - 1, -2)))


@pytest.mark.parametrize("order", [1, 2, 4, 10, 50, 150])
def test_ladder_algebra(order):
    assert_su2_ladder(modal_ladder(order))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=scenarios.MAX_LADDER_ORDER))
@example(0)
@example(scenarios.MAX_LADDER_ORDER)
def test_ladder_algebra_over_full_range(order):
    assert_su2_ladder(ModalLadder(order))


def test_ladder_rejects_out_of_range():
    for build in (modal_ladder, ModalLadder):
        with pytest.raises(ContractViolation):
            build(-1)
        with pytest.raises(ContractViolation):
            build(scenarios.MAX_LADDER_ORDER + 1)
        with pytest.raises(ContractViolation):
            build(4.5)


# ---------------------------------------------------------------------------
# rotated mode states
# ---------------------------------------------------------------------------


def test_hlg_identity_rotation():
    ladder = modal_ladder(4)
    state = hlg_state(ladder, 2, SpherePoint(0.0, 0.0))
    overlap = np.vdot(ladder.basis_state(2).amplitudes, state.amplitudes)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_hlg_pole_exchange():
    ladder = modal_ladder(1)
    state = hlg_state(ladder, 1, SpherePoint(math.pi, 0.0))
    overlap = np.vdot(ladder.basis_state(-1).amplitudes, state.amplitudes)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_hlg_equator_zero_oam():
    ladder = modal_ladder(4)
    state = hlg_state(ladder, 4, SpherePoint(math.pi / 2.0, 0.0))
    assert expectation(ladder.lz, state) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2, 7, 40, 151, 299, 300])
def test_tilted_modes_match_hlg_state(order):
    # the map tilts through j2 = D j1 D^dag with D = diag(i^k); every QFI sees
    # theta only through sin^2(theta), so only the amplitudes tell a tilt by
    # +j2 from one by -j2.  j1's two parity blocks differ in shape with the
    # parity of N+1, and the start rows l = N, -N mirror each other while
    # l = N mod 2 is the middle row or next to it
    ladder = modal_ladder(order)
    thetas = np.array([0.0, 0.3, 1.2, math.pi / 2.0, 2.0, 3.0])
    for l in sorted({order, order % 2, -order}):
        tilted = scenarios._tilted_modes(ladder, l, thetas)
        for row, theta in zip(tilted, thetas):
            expected = hlg_state(ladder, l, SpherePoint(theta, 0.0)).amplitudes
            assert np.max(np.abs(row - expected)) <= 1e-12


def test_hlg_rejects_invalid_l():
    ladder = modal_ladder(4)
    with pytest.raises(ContractViolation):
        hlg_state(ladder, 3, SpherePoint(0.0, 0.0))


def test_hlg_norm_preserved_random_angles():
    rng = np.random.default_rng(5)
    ladder = modal_ladder(10)
    for _ in range(20):
        pt = SpherePoint(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        state = hlg_state(ladder, 10, pt)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# rotation map
# ---------------------------------------------------------------------------


def test_rotation_map_values():
    rows = rotation_qfi_map(4, 5)
    by_theta = {}
    for r in rows:
        by_theta.setdefault(round(float(r["theta"]), 12), r)
    equator = by_theta[round(math.pi / 2.0, 12)]
    assert equator["qfi_sqpe"] == pytest.approx(16.0, rel=1e-12)
    pole = by_theta[0.0]
    assert pole["qfi_sqpe"] == pytest.approx(0.0, abs=1e-12)
    assert pole["qfi_iqpe"] == pytest.approx(64.0, rel=1e-12)
    mid = by_theta[round(math.pi / 4.0, 12)]
    assert mid["qfi_iqpe"] == pytest.approx(40.0, rel=1e-12)


@pytest.mark.parametrize("order", [1, 4])
def test_maps_match_numeric_engine(order):
    # the map already cross-checks the matrix engine per point; spot-check the
    # fully generic finite-difference route on a subsample of the 32x64 grid
    ladder = modal_ladder(order)
    dyn = ParameterizedDynamics(ladder.lz)
    rows = rotation_qfi_map(order, 32)
    assert len(rows) == 32 * 64
    for theta, phi, qfi_s, qfi_i in rows[::97].tolist():
        probe = hlg_state(ladder, order, SpherePoint(theta, phi))
        numeric_s = qfi_numeric(sqpe_state_family(dyn, probe), 0.3)
        assert numeric_s == pytest.approx(qfi_s, rel=1e-5, abs=1e-6)
        numeric_i = qfi_numeric(iqpe_state_family(dyn, probe), 0.3)
        assert numeric_i == pytest.approx(qfi_i, rel=1e-5, abs=1e-6)


# Orders at which <V^2> - <V>^2 cancels below zero at the poles; the map must
# hold there.
@pytest.mark.parametrize("order", [27, 38, 41, 64, 100, 200, 300])
def test_rotation_map_high_orders(order):
    rows = rotation_qfi_map(order, 2)
    assert len(rows) == 2 * 4
    assert np.all(rows["qfi_sqpe"] >= 0.0)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=300),
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_variance_and_qfi_order_over_ladder_range(order, theta, phi):
    ladder = modal_ladder(order)
    dyn = ParameterizedDynamics(ladder.lz)
    for t in (0.0, math.pi, theta):
        probe = hlg_state(ladder, order, SpherePoint(t, phi))
        assert variance(ladder.lz, probe) >= 0.0
        # equal on the equator, where <Lz> = 0, up to rounding in the last bit
        assert sqpe_qfi(dyn, probe) <= iqpe_qfi(dyn, probe) * (1.0 + 1e-12)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=300),
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
def test_rotation_kernel_matches_per_point_oracle(order, theta, phi):
    # the map's batched route (one eigh, one kernel row per theta, which holds
    # for every phi) against the per-point route at each drawn phi: hlg_state,
    # variance, second moment
    ladder = modal_ladder(order)
    thetas = np.array([theta])
    engine_s, engine_i = scenarios._rotation_engine(ladder, thetas)
    assert engine_s.shape == engine_i.shape == (1, 1)
    for k, t in enumerate(thetas):
        for p in (0.0, phi):
            probe = hlg_state(ladder, order, SpherePoint(t, p))
            v_psi = ladder.lz.entries @ probe.amplitudes
            oracle_s = 4.0 * variance(ladder.lz, probe)
            oracle_i = 4.0 * float(np.vdot(v_psi, v_psi).real)
            assert engine_s[k, 0] == pytest.approx(oracle_s, rel=1e-9, abs=1e-12)
            assert engine_i[k, 0] == pytest.approx(oracle_i, rel=1e-9, abs=1e-12)


def test_rotation_map_holds_no_dense_complex_ladder():
    # the top-order map diagonalizes j1 as two half-size parity blocks, so it
    # allocates at most two real (N+1)^2 matrices at once
    tracemalloc.start()
    try:
        rotation_qfi_map(scenarios.MAX_LADDER_ORDER, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = scenarios.MAX_LADDER_ORDER + 1
    assert peak <= 2 * dim * dim * 8


@pytest.mark.parametrize("order", [7, 8])
@pytest.mark.parametrize("parity", [0, 1], ids=["symmetric", "antisymmetric"])
def test_tilt_refuses_inexact_eigenpairs_of_either_block(monkeypatch, order, parity):
    # j1 is diagonalized as two half-size blocks, and a perturbed eigenvector
    # in either one trips the residual check
    real = np.linalg.eigh
    sizes = []

    def perturbed(block):
        lam, y = real(block)
        if len(sizes) == parity:
            y[0, -1] += 1e-6
        sizes.append(block.shape[0])
        return lam, y

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(ContractViolation, match="residual") as info:
        scenarios._tilted_modes(modal_ladder(order), order, np.array([0.0, 1.0]))
    assert "eigenpairs of j1" in str(info.value)
    assert sizes == [(order + 2) // 2, (order + 1) // 2]


def test_rotation_cross_check_names_worst_point(monkeypatch):
    thetas = np.linspace(0.0, math.pi, 5)
    phis = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
    real = scenarios._rotation_engine

    def perturbed(ladder, grid_thetas):
        engine_s, engine_i = real(ladder, grid_thetas)
        engine_i[3] += 1e-3
        return engine_s, engine_i

    monkeypatch.setattr(scenarios, "_rotation_engine", perturbed)
    with pytest.raises(ContractViolation) as info:
        rotation_qfi_map(4, 5)
    message = str(info.value)
    assert "rotation switched QFI" in message
    # one engine value per theta holds for every phi; the first phi is named
    assert f"theta={thetas[3]}, phi={float(phis[0])}" in message


def test_cross_check_picks_largest_excess():
    thetas = np.array([0.0, 1.0])
    phis = [0.0, 2.0, 4.0]
    closed = np.full((2, 3), 10.0)
    engine = closed.copy()
    engine[0, 1] += 1e-3
    engine[1, 2] += 2e-3
    with pytest.raises(ContractViolation, match=r"theta=1\.0, phi=4\.0"):
        scenarios._cross_check("test QFI", thetas, phis, closed, engine, 40.0)
    engine[1, 2] = np.nan
    with pytest.raises(ContractViolation, match=r"theta=1\.0, phi=4\.0"):
        scenarios._cross_check("test QFI", thetas, phis, closed, engine, 40.0)
    # a few ulps of 10 pass: 64 * 2^-53 * 40 is about 2.8e-13
    scenarios._cross_check("test QFI", thetas, phis, closed, closed + 1e-14, 40.0)


def test_birefringence_matches_numeric_engine():
    s1, _, _ = stokes_operators()
    dyn = ParameterizedDynamics(s1)
    rows = birefringence_qfi_map(32)
    for theta, phi, qfi_s, _ in rows[::97].tolist():
        probe = polarization_state(SpherePoint(theta, phi))
        numeric_s = qfi_numeric(sqpe_state_family(dyn, probe), 0.0)
        assert numeric_s == pytest.approx(qfi_s, rel=1e-5, abs=1e-6)


# ---------------------------------------------------------------------------
# Kerr scenario
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "nbar, expected",
    [(0.0, (0.0, 0.0)), (4.0, (16.0, 80.0)), (9.0, (36.0, 360.0))],
)
def test_kerr_closed_forms(nbar, expected):
    got = kerr_qfi(nbar)
    assert got[0] == pytest.approx(expected[0], rel=1e-4, abs=1e-9)
    assert got[1] == pytest.approx(expected[1], rel=1e-4, abs=1e-9)


def test_kerr_large_nbar():
    # the number operator is a vector of eigenvalues, so a 1312-dimensional
    # Fock space costs O(truncation) memory
    nbar = 1000.0
    assert scenarios.kerr_truncation(nbar) == 1312
    qfi_sqpe, qfi_iqpe = kerr_qfi(nbar)
    assert qfi_sqpe == pytest.approx(4.0 * nbar, rel=1e-12)
    assert qfi_iqpe == pytest.approx(4.0 * nbar * nbar + 4.0 * nbar, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(nbar=st.floats(-12.0, math.log10(scenarios.MAX_NBAR)).map(lambda e: 10.0**e))  # log-uniform
@example(nbar=3000.0)  # 16*ceil(nbar)+32 levels summed to a tail of 2.7e-12 and was refused
@example(nbar=6000.0)
# weights built as k*log(nbar) - lgamma(k+1) put qfi_sqpe off by 1.1e-12,
# 6.3e-12 and 3.6e-10 relative at these three
@example(nbar=1e5)
@example(nbar=3e5)
@example(nbar=1e6)
def test_kerr_closed_forms_over_range(nbar):
    qfi_sqpe, qfi_iqpe = kerr_qfi(nbar)
    assert qfi_sqpe == pytest.approx(4.0 * nbar, rel=1e-12)
    assert qfi_iqpe == pytest.approx(4.0 * nbar * nbar + 4.0 * nbar, rel=1e-12)


def log_dropped_tail_bound(nbar, levels):
    """log of T^2 e^-nbar (e nbar / T)^T / nbar, the Chernoff bound on the
    Poisson mass at or above T, weighted by T^2 and relative to nbar."""
    return (levels * (1.0 + math.log(nbar) - math.log(levels)) - nbar
            + 2.0 * math.log(levels) - math.log(nbar))


@settings(max_examples=60, deadline=None)
@given(nbar=st.floats(-12.0, 6.0).map(lambda e: 10.0**e))
@example(nbar=scenarios.MAX_NBAR)
@example(nbar=1.0)
def test_kerr_truncation_is_smallest_that_bounds_the_tail(nbar):
    # the Chernoff bound holds only above the mean
    levels = scenarios.kerr_truncation(nbar)
    assert levels - 1 > nbar
    assert log_dropped_tail_bound(nbar, levels) <= -53.0 * math.log(2.0)
    assert log_dropped_tail_bound(nbar, levels - 1) > -53.0 * math.log(2.0)


@pytest.mark.parametrize(
    "nbar, levels",
    [(0.0, 1), (4.0, 34), (200.0, 346), (1000.0, 1312), (3000.0, 3535), (1e6, 1010074)],
)
def test_kerr_truncation_values(nbar, levels):
    assert scenarios.kerr_truncation(nbar) == levels
    assert coherent_state(nbar).dim == levels


@pytest.mark.parametrize("nbar", [-1e-300, math.nextafter(scenarios.MAX_NBAR, math.inf), math.nan])
def test_coherent_state_rejects_nbar_out_of_range(nbar):
    with pytest.raises(ContractViolation, match="mean photon number"):
        coherent_state(nbar)


@pytest.mark.parametrize("nbar", [-1.0, math.nan, 2e6], ids=["negative", "nan", "above-max"])
def test_kerr_truncation_rejects_nbar_out_of_range(nbar):
    # unchecked: a math domain error, a NaN-to-integer error, and 2014337
    # levels for an nbar above MAX_NBAR
    with pytest.raises(ContractViolation, match="mean photon number"):
        scenarios.kerr_truncation(nbar)


# ---------------------------------------------------------------------------
# LG fields
# ---------------------------------------------------------------------------


def test_lg_fundamental_peaks_at_origin():
    field = lg_field(0, 0, 129, 5.0)
    intensity = np.abs(field.grid) ** 2
    iy, ix = np.unravel_index(np.argmax(intensity), intensity.shape)
    assert (iy, ix) == (64, 64)


def test_lg_vortex_ring():
    field = lg_field(0, 1, 257, 6.0)
    center = 128
    assert abs(field.grid[center, center]) < 1e-12
    axis = field.axis()
    profile = np.abs(field.grid[center, center:])
    r_peak = axis[center:][np.argmax(profile)]
    assert r_peak == pytest.approx(1.0 / math.sqrt(2.0), abs=axis[1] - axis[0])


def test_lg_phase_winding():
    field = lg_field(0, 4, 257, 6.0)
    center = (field.grid_n - 1) / 2.0
    step = 2.0 * field.extent / (field.grid_n - 1)
    angles = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=True)
    radius_px = math.sqrt(2.0) / step  # ring of peak intensity
    iy = np.round(center + radius_px * np.sin(angles)).astype(int)
    ix = np.round(center + radius_px * np.cos(angles)).astype(int)
    phases = np.unwrap(np.angle(field.grid[iy, ix]))
    total = phases[-1] - phases[0]
    assert total == pytest.approx(-8.0 * math.pi, abs=0.1)


def test_lg_norm_and_guards():
    field = lg_field(0, 2, 129, 5.0)
    norm_sq = np.sum(np.abs(field.grid) ** 2) * field.cell_area()
    assert norm_sq == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ContractViolation):
        lg_field(0, 30, 129, 4.0)  # boundary intensity too high
    with pytest.raises(ContractViolation):
        lg_field(0, 1, 32, 5.0)


def test_field_rotation_identity():
    field = lg_field(0, 1, 129, 5.0)
    assert field_rotation_check(field, 0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("l, alpha", [(1, 0.1), (4, 0.1)])
def test_field_rotation_phase(l, alpha):
    field = lg_field(0, l, 257, 6.0)
    overlap = field_rotation_check(field, alpha)
    assert abs(overlap) == pytest.approx(1.0, abs=5e-3)
    assert np.angle(overlap) == pytest.approx(-l * alpha, abs=5e-3)


@pytest.mark.parametrize("l", [1, 4])
def test_field_rotation_slope(l):
    field = lg_field(0, l, 257, 6.0)
    alphas = np.linspace(-0.15, 0.15, 7)
    phases = np.unwrap([np.angle(field_rotation_check(field, a)) for a in alphas])
    slope = np.polyfit(alphas, phases, 1)[0]
    assert slope == pytest.approx(-l, rel=0.01)


def test_field_rotation_requires_pure_radial_mode():
    field = lg_field(1, 1, 129, 5.0)
    with pytest.raises(ContractViolation):
        field_rotation_check(field, 0.1)
