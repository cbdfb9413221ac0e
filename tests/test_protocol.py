"""Rotation protocol: switched unitary, statistics, estimator, Monte Carlo."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpe import protocol
from iqpe.protocol import (
    RotationProtocol,
    ShotRecord,
    crb_stddev,
    estimate_alpha,
    monte_carlo_precision,
    projection_probabilities,
    trial_rng,
)
from iqpe.scenarios import modal_ladder
from iqpe.statekit import ContractViolation, PureState
from oracles import cfi, indefinite_rotation_unitary, tensor

# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def test_protocol_validation():
    with pytest.raises(ContractViolation):
        RotationProtocol(0)
    with pytest.raises(ContractViolation):
        RotationProtocol(1, delta_phi=4.0)


def test_shot_record_totals():
    record = ShotRecord(3, 5)
    assert record.nu_total == 8
    with pytest.raises(ContractViolation):
        ShotRecord(-1, 2)


# ---------------------------------------------------------------------------
# switched rotation unitary
# ---------------------------------------------------------------------------


def test_unitary_identity_at_zero():
    u = indefinite_rotation_unitary(RotationProtocol(3), 0.0)
    assert np.array_equal(u.entries, np.eye(8))


def test_unitary_blocks_l1():
    u = indefinite_rotation_unitary(RotationProtocol(1), math.pi / 2.0)
    # basis: (|H,l=1>, |H,l=-1>, |V,l=1>, |V,l=-1>)
    assert u.entries[0, 0] == pytest.approx(-1j, abs=1e-15)
    assert u.entries[2, 2] == pytest.approx(1j, abs=1e-15)


def test_unitary_reproduces_joint_state_amplitudes():
    l, alpha = 4, 0.23
    ladder = modal_ladder(l)
    plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0))
    joint = tensor(plus, ladder.basis_state(l))
    final = indefinite_rotation_unitary(RotationProtocol(l), alpha).entries @ joint.amplitudes
    top = ladder.index_of(l)
    expected = np.zeros(2 * ladder.dim, dtype=complex)
    expected[top] = np.exp(-1j * l * alpha) / math.sqrt(2.0)
    expected[ladder.dim + top] = np.exp(1j * l * alpha) / math.sqrt(2.0)
    assert np.allclose(final, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# projection probabilities
# ---------------------------------------------------------------------------


def state_route_probabilities(proto, alpha):
    """pL, pR by evolving |+>|l> explicitly and projecting the meter on |L>, |R>."""
    ladder = modal_ladder(proto.oam_l)
    meter = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    joint = tensor(meter, ladder.basis_state(proto.oam_l))
    evolved = indefinite_rotation_unitary(proto, alpha).entries @ joint.amplitudes
    # systematic phase offset on the |V> branch
    evolved[ladder.dim :] *= np.exp(1j * proto.delta_phi)
    h_branch = evolved[: ladder.dim]
    v_branch = evolved[ladder.dim :]
    # <L| = (<H| - 1j <V|)/sqrt(2), applied on the meter only
    l_component = (h_branch - 1j * v_branch) / math.sqrt(2.0)
    r_component = (h_branch + 1j * v_branch) / math.sqrt(2.0)
    return float(np.sum(np.abs(l_component) ** 2)), float(np.sum(np.abs(r_component) ** 2))


@pytest.mark.parametrize("l", [1, 2, 30, 150, 300])
def test_probabilities_match_state_route(l):
    for delta_phi in (0.35, -1.2):
        proto = RotationProtocol(l, delta_phi)
        for alpha in (0.0, -3.1e-4, 0.0123, 0.4):
            p_l, p_r = projection_probabilities(proto, alpha)
            state_l, state_r = state_route_probabilities(proto, alpha)
            assert abs(p_l - state_l) <= 1e-12
            assert abs(p_r - state_r) <= 1e-12


def test_probabilities_balanced_at_zero():
    assert projection_probabilities(RotationProtocol(5), 0.0) == (0.5, 0.5)


def test_probabilities_saturate():
    proto = RotationProtocol(1)
    p_l, p_r = projection_probabilities(proto, math.pi / 4.0)  # 2*l*alpha = pi/2
    assert p_l == pytest.approx(1.0, abs=1e-15)
    assert p_r == pytest.approx(0.0, abs=1e-15)


def test_probabilities_example_l30():
    # oracle: substitute 2*30*1deg + 0.35deg into the click formula
    proto = RotationProtocol(30, math.radians(0.35))
    p_l, _ = projection_probabilities(proto, math.radians(1.0))
    expected = 0.5 * (1.0 + math.sin(math.radians(60.35)))
    assert p_l == pytest.approx(expected, abs=1e-15)
    assert p_l == pytest.approx(0.9345, abs=5e-5)


def test_probabilities_sum_and_period():
    rng = np.random.default_rng(8)
    for _ in range(25):
        l = int(rng.integers(1, 40))
        proto = RotationProtocol(l, float(rng.uniform(-math.pi / 2, math.pi / 2)))
        alpha = float(rng.uniform(-0.01, 0.01))
        p_l, p_r = projection_probabilities(proto, alpha)
        assert p_l + p_r == 1.0
        assert 0.0 <= p_l <= 1.0
        shifted_l, _ = projection_probabilities(proto, alpha + math.pi / l)
        assert shifted_l == pytest.approx(p_l, abs=1e-9)


# ---------------------------------------------------------------------------
# classical Fisher information
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l, expected", [(1, 4.0), (150, 90000.0)])
def test_cfi_value(l, expected):
    assert cfi(RotationProtocol(l), 1e-4) == pytest.approx(expected, abs=1e-9 * expected)


def test_cfi_matches_top_oam_switched_qfi():
    from iqpe.qfi import ParameterizedDynamics, iqpe_qfi

    l = 7
    ladder = modal_ladder(l)
    qfi_pole = iqpe_qfi(ParameterizedDynamics(ladder.lz), ladder.basis_state(l))
    assert cfi(RotationProtocol(l), 0.0) == pytest.approx(qfi_pole, rel=1e-12)


def test_cfi_finite_difference_oracle():
    proto = RotationProtocol(9, 0.2)
    alpha, h = 3e-3, 1e-7
    p_plus = projection_probabilities(proto, alpha + h)
    p_minus = projection_probabilities(proto, alpha - h)
    p0 = projection_probabilities(proto, alpha)
    fd = sum(
        ((hi - lo) / (2 * h)) ** 2 / p for hi, lo, p in zip(p_plus, p_minus, p0)
    )
    assert cfi(proto, alpha) == pytest.approx(fd, rel=1e-6)


def test_cfi_degenerate_names_alpha():
    proto = RotationProtocol(1)
    singular = math.pi / 4.0
    with pytest.raises(ContractViolation, match="0.785"):
        cfi(proto, singular)


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------


def test_estimator_balanced_counts():
    assert estimate_alpha(ShotRecord(500, 500), RotationProtocol(10)) == 0.0


def test_estimator_saturated_counts():
    got = estimate_alpha(ShotRecord(1000, 0), RotationProtocol(1))
    assert got == pytest.approx(math.pi / 4.0, abs=1e-15)


def test_estimator_requires_data():
    with pytest.raises(ContractViolation):
        estimate_alpha(ShotRecord(0, 0), RotationProtocol(1))


def test_estimator_inverts_probabilities_noiseless():
    rng = np.random.default_rng(12)
    nu = 10**7
    for _ in range(20):
        l = int(rng.integers(1, 60))
        proto = RotationProtocol(l, float(rng.uniform(-0.3, 0.3)))
        alpha = float(rng.uniform(-1.0, 1.0)) / (4.0 * l)  # keep |2 l a + dphi| < pi/2
        if abs(2 * l * alpha + proto.delta_phi) >= math.pi / 2:
            continue
        p_l, _ = projection_probabilities(proto, alpha)
        record = ShotRecord(round(p_l * nu), nu - round(p_l * nu))
        recovered = estimate_alpha(record, proto)
        assert recovered == pytest.approx(alpha, abs=1.0 / nu)


def test_estimator_monte_carlo_mean():
    proto = RotationProtocol(50)
    mean, stddev = monte_carlo_precision(proto, 1e-4, 10**6, 2000, seed=5)
    standard_error = stddev / math.sqrt(2000)
    assert abs(mean - 1e-4) < 3 * standard_error


# ---------------------------------------------------------------------------
# Monte Carlo precision
# ---------------------------------------------------------------------------


def test_monte_carlo_unbiased_at_null():
    mean, stddev = monte_carlo_precision(RotationProtocol(20), 0.0, 10**5, 1000, seed=3)
    assert abs(mean) < 3 * stddev / math.sqrt(1000)


def test_monte_carlo_reaches_crb():
    proto = RotationProtocol(50)
    _, stddev = monte_carlo_precision(proto, 1e-5, 10**6, 10**4, seed=42)
    assert stddev == pytest.approx(1e-5, rel=0.05)
    assert stddev == pytest.approx(crb_stddev(proto, 10**6), rel=0.05)


def test_monte_carlo_doubling_l_halves_spread():
    _, std_25 = monte_carlo_precision(RotationProtocol(25), 1e-5, 10**5, 4000, seed=9)
    _, std_50 = monte_carlo_precision(RotationProtocol(50), 1e-5, 10**5, 4000, seed=10)
    assert std_25 / std_50 == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize("l", [1, 10, 50, 150])
def test_monte_carlo_crb_ratio_band(l):
    proto = RotationProtocol(l)
    _, stddev = monte_carlo_precision(proto, 0.0, 10**5, 2000, seed=100 + l)
    ratio = stddev / crb_stddev(proto, 10**5)
    assert 0.95 <= ratio <= 1.05


def test_monte_carlo_bias_small_in_linear_zone():
    proto = RotationProtocol(10)
    alpha = 0.04  # 2*l*alpha = 0.8 rad < 1
    mean, stddev = monte_carlo_precision(proto, alpha, 10**5, 4000, seed=77)
    assert abs(mean - alpha) < 0.1 * stddev


@pytest.mark.parametrize("alpha, delta_phi", [(0.08, 0.0), (-0.08, 0.0), (0.07, 0.2)])
def test_monte_carlo_refuses_angle_past_fold(alpha, delta_phi):
    # |2*l*alpha + delta_phi| >= pi/2: arcsin would return another angle
    proto = RotationProtocol(10, delta_phi)
    with pytest.raises(ContractViolation, match="cannot be identified"):
        monte_carlo_precision(proto, alpha, 10**5, 200, seed=6)
    monte_carlo_precision(proto, 0.07 - delta_phi / 20.0, 10**5, 200, seed=6)


def test_monte_carlo_refuses_angle_with_an_empty_minority_channel():
    # phase 1.567 at nu = 1000: the minority channel expects 0.6 photons, most
    # trials read the boundary, and the spread came out 0.109 of the CRB
    proto = RotationProtocol(1)
    with pytest.raises(ContractViolation, match="minority channel"):
        monte_carlo_precision(proto, math.radians(44.9), 1000, 2000, seed=3)
    edge = protocol.minority_phases(1000, 2000).hi / 2.0
    monte_carlo_precision(proto, edge, 1000, 2000, seed=3)
    with pytest.raises(ContractViolation, match="minority channel"):
        monte_carlo_precision(proto, math.nextafter(edge, 1.0), 1000, 2000, seed=3)


@pytest.mark.parametrize("nu", [10**3, 10**4, 10**6, 10**9])
@pytest.mark.parametrize("trials", [100, 2000, 10**6])
def test_minority_phases_edge_meets_its_bound(nu, trials):
    # at the edge the chance that some trial draws no minority photon,
    # trials * (1 - p_min)^nu, is 2^-53
    edge = protocol.minority_phases(nu, trials).hi
    p_min = (1.0 - math.sin(edge)) / 2.0
    log_chance = math.log(trials) + nu * math.log1p(-p_min)
    assert log_chance == pytest.approx(-53.0 * math.log(2.0), rel=1e-6)


@pytest.mark.parametrize("nu", [protocol.NU.lo, 10**9, 5 * 10**17, protocol.NU.hi])
@pytest.mark.parametrize("trials", [protocol.TRIALS.lo, protocol.TRIALS.hi])
def test_minority_phases_end_where_the_drawn_probabilities_do(nu, trials):
    # each end is the last phase whose click probabilities, rounded as the
    # run draws with them, keep the minority one at the floor; one float past
    # it they do not.  Near nu = 2^63 those probabilities are multiples of
    # 2^-54 or 2^-53, far coarser than the floor, and asin(1 - 2 p_min) gave
    # an edge of pi/2, where pR rounds to 0
    rule = protocol.minority_phases(nu, trials)
    floor = protocol.minority_floor(nu, trials)
    proto = RotationProtocol(1)
    for end in (rule.lo, rule.hi):
        assert min(projection_probabilities(proto, end / 2.0)) >= floor
        past = math.nextafter(end, math.copysign(math.inf, end))
        assert min(projection_probabilities(proto, past / 2.0)) < floor
    assert rule.hi < math.pi / 2.0


def test_monte_carlo_reproducible():
    proto = RotationProtocol(5)
    first = monte_carlo_precision(proto, 1e-4, 10**4, 500, seed=21)
    second = monte_carlo_precision(proto, 1e-4, 10**4, 500, seed=21)
    assert first == second
    third = monte_carlo_precision(proto, 1e-4, 10**4, 500, seed=22)
    assert first != third


def test_monte_carlo_argument_guards():
    proto = RotationProtocol(5)
    with pytest.raises(ContractViolation):
        monte_carlo_precision(proto, 0.0, 10**4, 50, seed=1)
    with pytest.raises(ContractViolation):
        monte_carlo_precision(proto, 0.0, 100, 500, seed=1)
    # 8 bytes an estimate: 10^12 trials asked for 7.28 TiB
    with pytest.raises(ContractViolation, match=r"trials must be an integer in \[100, 10000000\]"):
        monte_carlo_precision(proto, 0.0, 10**4, 10**12, seed=1)
    # the kernel keys Philox with the seed word itself: 2^64 would draw seed 0
    with pytest.raises(ContractViolation, match="18446744073709551615"):
        monte_carlo_precision(proto, 0.0, 10**4, 500, seed=2**64)


def test_monte_carlo_refuses_nu_above_binomial_range():
    # the binomial kernel counts in int64; one more would overflow there
    with pytest.raises(ContractViolation, match="9223372036854775807"):
        monte_carlo_precision(RotationProtocol(5), 0.0, 2**63, 100, seed=1)


def test_trial_rng_streams():
    a = trial_rng(7, 0).standard_normal(4)
    b = trial_rng(7, 0).standard_normal(4)
    c = trial_rng(7, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ContractViolation):
        trial_rng(-1, 0)
    # the key holds 64 bits: 2^64 + 1 drew the streams of seed 1
    with pytest.raises(ContractViolation, match="18446744073709551615"):
        trial_rng(2**64, 0)
    assert np.array_equal(trial_rng(2**64 - 1, 0).standard_normal(4),
                          trial_rng(2**64 - 1, 0).standard_normal(4))


# ---------------------------------------------------------------------------
# binomial kernel
# ---------------------------------------------------------------------------


def numpy_counts(seed, streams, nu, p):
    """Each stream's count from a fresh numpy Generator: the kernel's contract."""
    return [int(trial_rng(seed, i).binomial(nu, p)) for i in streams]


def kernel_counts(seed, streams, nu, p):
    return protocol._binomial_counts(seed, np.array(streams, dtype=np.uint64), nu, p).tolist()


STREAMS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 2**64 - 1] + [2**32 + k for k in range(-3, 4)]),
)
NUS = st.one_of(
    st.integers(protocol.NU.lo, protocol.NU.hi),
    st.sampled_from([protocol.NU.lo, 10**6, 2**62, protocol.NU.hi]),
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), streams=st.lists(STREAMS, min_size=1, max_size=20),
       nu=NUS, data=st.data())
def test_kernel_draws_what_numpy_draws(seed, streams, nu, data):
    # any seed, stream and count, at any phase the minority-channel rule takes
    edge = protocol.minority_phases(nu, protocol.TRIALS.lo)
    phase = data.draw(st.floats(edge.lo, edge.hi))
    p, _ = projection_probabilities(RotationProtocol(1), phase / 2.0)
    assert kernel_counts(seed, streams, nu, p) == numpy_counts(seed, streams, nu, p)


@pytest.mark.parametrize(
    "nu, p, seed",
    [
        (2**63 - 1, 0.5, 0),  # BTPE's -k*k overflows int64
        (2**62, 0.3, 11),
        (2**63 - 1, 5e-18, 3),  # and so does its s*(nu + 1)
        (5 * 10**17, 1 - 2**-53, 6),  # the Stirling arguments round as doubles
        (5 * 10**17, 2**-54, 5),  # inversion, from a phase just inside the fold
        (1000, 0.02, 1),  # inversion below the minority-channel rule
    ],
)
def test_kernel_matches_numpy_where_int64_and_rounding_bite(nu, p, seed):
    streams = range(2000)
    assert kernel_counts(seed, streams, nu, p) == numpy_counts(seed, streams, nu, p)


# Counts numpy 2.4's Generator.binomial draws.  NEP 19 does not freeze
# Generator streams, so these pin the kernel, and with it every
# rotation_sim.json, should a numpy release change its sampler.
GOLDEN_COUNTS = [
    # seed, stream, nu, p, count
    (0, 0, 1000, 0.5, 493),
    (1, 7, 1000, 0.05, 47),
    (2**64 - 1, 2**64 - 1, 10**6, 0.62, 620007),
    (21, 2**32, 10**6, 0.5, 500359),
    (2**63 + 5, 2**32 - 1, 10**9, 0.7, 700009230),
    (0, 22, 2**63 - 1, 0.5, 4611686013759940608),
    (5, 89, 2**62, 0.5, 2305843012448607744),
    (0, 8, 2**63 - 1, 5e-18, 53),
    (6, 199, 5 * 10**17, 1 - 2**-53, 499999999999999967),
    (5, 3, 5 * 10**17, 2**-54, 31),
    (1, 4, 1000, 0.02, 25),
]


@pytest.mark.parametrize("seed, stream, nu, p, count", GOLDEN_COUNTS)
def test_kernel_golden_counts(seed, stream, nu, p, count):
    assert kernel_counts(seed, [stream], nu, p) == [count]


def test_inversion_restarts_on_the_next_double(monkeypatch):
    # a try whose count passes the bound starts again from the stream's next
    # double, as numpy's loop does: a stream shifted by one leading 1 - 2^-53
    # (which walks past any bound) must end where the unshifted one does
    streams = np.arange(200, dtype=np.uint64)
    expected = protocol._inversion_counts(7, streams, 1000, 0.002)
    unshifted = protocol._philox_doubles

    def shifted(refill, seed, keys):
        if refill == 1:
            carried = np.full(keys.size, 1.0 - 2.0**-53)
        else:
            carried = unshifted(refill - 1, seed, keys)[3]
        return [carried] + unshifted(refill, seed, keys)[:3]

    monkeypatch.setattr(protocol, "_philox_doubles", shifted)
    assert protocol._inversion_counts(7, streams, 1000, 0.002).tolist() == expected.tolist()


def test_kernel_log_is_libm():
    # numpy's C sampler takes libm's log; np.log differs in the last bit on
    # some inputs (on AVX-512 hosts), and log(0) and log(x < 0) follow C
    x = np.linspace(0.5, 1.0, 20001)
    expected = [math.log(v) for v in x.tolist()]
    assert protocol._log(x).tolist() == expected
    got = protocol._log(np.array([0.0, -1.0]))
    assert got[0] == -math.inf and math.isnan(got[1])


def test_monte_carlo_memory_grows_with_the_block_not_the_trials():
    # the kernel's arrays are _BLOCK trials long; only the 8-byte estimates
    # span every trial (drawing all 25k trials at once peaked at 4.6 MB)
    trials = 25_000
    tracemalloc.start()
    try:
        monte_carlo_precision(RotationProtocol(150), 1e-5, 10**6, trials, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * trials + 40 * 8 * protocol._BLOCK + 2**19


def test_trials_top_leaves_a_minority_interval():
    # trials * (1/2)^nu must stay under 2^-53 at the top of TRIALS, or the
    # minority-channel refusal has no phase to offer and prints lo > hi
    for nu in (protocol.NU.lo, 10**6, protocol.NU.hi):
        rule = protocol.minority_phases(nu, protocol.TRIALS.hi)
        assert rule.lo < 0.0 < rule.hi


def monte_carlo_oracle(proto, alpha, nu, trials, seed):
    """The Monte Carlo with a fresh generator and an estimate for every trial."""
    p_l, _ = projection_probabilities(proto, alpha)
    estimates = np.empty(trials)
    for i in range(trials):
        n_l = int(trial_rng(seed, i).binomial(nu, p_l))
        estimates[i] = estimate_alpha(ShotRecord(n_l, nu - n_l), proto)
    return float(np.mean(estimates)), float(np.std(estimates, ddof=1))


@pytest.mark.parametrize("trials", [100, 2000])
@pytest.mark.parametrize("nu", [10**3, 10**6])
@pytest.mark.parametrize("delta_phi", [0.0, -1.0])
@pytest.mark.parametrize("l", [1, 17, 150])
@pytest.mark.parametrize("seed", [0, 21, 2**63 + 5, 2**64 - 1])
def test_monte_carlo_matches_per_trial_oracle(seed, l, delta_phi, nu, trials):
    # one re-keyed generator and one estimate per distinct count must give
    # the bits of a fresh generator and an estimate per trial
    proto = RotationProtocol(l, delta_phi)
    alpha = (0.3 - delta_phi) / (2.0 * l)  # total phase 0.3 rad
    expected = monte_carlo_oracle(proto, alpha, nu, trials, seed)
    assert monte_carlo_precision(proto, alpha, nu, trials, seed) == expected
