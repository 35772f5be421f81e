"""Closed-form propagators against frozen values and the brute-force oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from stepdrive import (
    DriveStep,
    PropagatorCoeffs,
    PulseSequence,
    compose,
    evolve,
    evolve_many,
    intra_period,
    period_propagator,
    step_propagator,
    transition_probabilities,
    transition_probability,
)
from stepdrive.oracle import brute_force_evolve
from stepdrive.propagator import _BLOCK, _power_factors, _split_time, _window_starts

from helpers import coeffs_from_unitary, detuned_pair, mp_period_propagator, random_sequence

ORACLE_TOL = 1e-11

# frozen from the brute-force oracle: one strongly detuned quarter cycle
SINGLE_STEP_COEFFS = (
    6.123233995736766e-17,
    0.99920095872178938,
    0.0,
    0.039968038348871575,
)

# frozen one-period coefficients of the detuned quarter-cycle pair
PAIR_TAUS = (0.062781647827605036, 0.078150038170308286)
PAIR_PERIOD = 0.14093168599791334
PAIR_PERIOD_COEFFS = (-0.99821908287934324, -0.059654526865299401)

# frozen mid-period coefficients of a fixed five-step sequence at 0.7 T
FIVE_STEP_AT_07T = (
    0.19829798216663816,
    0.27608047610933462,
    -0.89602930669637826,
    0.28563781703599878,
)

# frozen coefficients of a fixed four-step sequence at t = 3.7 T
FOUR_STEP_AT_37T = (
    0.32257611925323737,
    -0.33279588800334525,
    -0.88521971610350736,
    -0.039718993406327008,
)


def five_step_sequence():
    return PulseSequence(
        (
            DriveStep(3.0, 1.0, 0.0, 0.7),
            DriveStep(-11.0, 2.5, 1.1, 0.23),
            DriveStep(0.0, 0.6, -2.0, 1.9),
            DriveStep(27.0, 4.0, 2.9, 0.11),
            DriveStep(-4.5, 1.4, 0.4, 0.52),
        )
    )


def four_step_sequence():
    return PulseSequence(
        (
            DriveStep(0.0, 1.0, 0.0, 0.9),
            DriveStep(12.0, 0.8, -0.7, 0.33),
            DriveStep(-6.0, 2.2, 2.2, 0.61),
            DriveStep(5.0, 1.7, 1.3, 0.18),
        )
    )


def test_single_step_quarter_cycle_frozen_coefficients():
    step = DriveStep(50.0, 1.0, 0.0, 1.0)
    s = 0.5 * math.pi / step.energy
    got = step_propagator(step, s)
    assert got == pytest.approx(SINGLE_STEP_COEFFS, abs=1e-16)


def test_detuned_pair_period_frozen_coefficients():
    seq = detuned_pair()
    assert seq.steps[0].tau == pytest.approx(PAIR_TAUS[0], rel=1e-15)
    assert seq.steps[1].tau == pytest.approx(PAIR_TAUS[1], rel=1e-15)
    assert seq.period == pytest.approx(PAIR_PERIOD, rel=1e-15)
    per = period_propagator(seq)
    assert per.a == pytest.approx(PAIR_PERIOD_COEFFS[0], rel=1e-14)
    assert per.c == pytest.approx(PAIR_PERIOD_COEFFS[1], rel=1e-13)
    # both axes lie in the xz plane, so b and d vanish identically
    assert abs(per.b) < 1e-15
    assert abs(per.d) < 1e-15


def test_five_step_mid_period_frozen_coefficients():
    seq = five_step_sequence()
    got = intra_period(seq, 0.7 * seq.period)
    assert got == pytest.approx(FIVE_STEP_AT_07T, rel=1e-13)


def test_four_step_multi_period_frozen_coefficients():
    seq = four_step_sequence()
    got = evolve(seq, 3.7 * seq.period)
    assert got == pytest.approx(FOUR_STEP_AT_37T, rel=1e-13)


def test_half_cycle_step_is_minus_identity():
    # E*tau = pi rotates by 2*pi in SU(2): exactly minus the identity
    step = DriveStep(0.0, 1.0, 0.4, math.pi)
    got = step_propagator(step, math.pi)
    assert got.a == pytest.approx(-1.0, abs=1e-15)
    assert abs(got.b) < 1e-15
    assert math.hypot(got.c, got.d) < 1e-15


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(21)
    for _ in range(20):
        seq = random_sequence(rng, max_steps=2, lo=0.05, hi=20.0)
        step1, step2 = seq.steps[0], seq.steps[-1]
        left = step_propagator(step1, step1.tau)
        got = compose(left, step2, step2.tau)
        want = step_propagator(step2, step2.tau).as_matrix() @ left.as_matrix()
        assert np.allclose(got.as_matrix(), want, atol=1e-14)


def test_intra_period_rejects_times_outside_period():
    seq = detuned_pair()
    with pytest.raises(ValueError, match="outside"):
        intra_period(seq, -0.1)
    with pytest.raises(ValueError, match="outside"):
        intra_period(seq, seq.period * 1.0001)
    with pytest.raises(ValueError, match="outside"):
        intra_period(seq, math.nan)


def test_evolve_rejects_negative_times():
    seq = detuned_pair()
    with pytest.raises(ValueError, match="non-negative"):
        evolve(seq, -1e-9)
    with pytest.raises(ValueError, match="non-negative"):
        evolve_many(seq, [0.0, -1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_evolve_rejects_non_finite_times(bad):
    seq = detuned_pair()
    with pytest.raises(ValueError, match="finite"):
        evolve(seq, bad)
    with pytest.raises(ValueError, match="finite"):
        evolve_many(seq, [0.0, bad, 1.0])


def test_group_property_over_many_periods():
    # U(t' + n T) must equal U(t') @ U(T)^n entrywise
    seq = five_step_sequence()
    per = period_propagator(seq).as_matrix()
    tprime = 0.37 * seq.period
    inner = intra_period(seq, tprime).as_matrix()
    acc = np.eye(2, dtype=complex)
    for n in range(1, 21):
        acc = per @ acc
        got = evolve(seq, tprime + n * seq.period).as_matrix()
        assert np.max(np.abs(got - inner @ acc)) < 1e-12


def test_power_identity_reflected_branch_matches_oracle():
    # a(T) < 0 exercises the reflected evaluation of the power factors
    seq = detuned_pair()
    assert period_propagator(seq).a < 0.0
    for n in (3, 17, 200, 12345):
        t = (n + 0.3) * seq.period
        got = np.asarray(evolve(seq, t).as_matrix())
        want = brute_force_evolve(seq, t)
        # the oracle multiplies n period matrices, so its rounding grows with n
        assert np.max(np.abs(got - want)) < 1e-12 + 5e-15 * n


def test_power_factors_near_degenerate_limits():
    # interior values agree with the direct trigonometric form, for a float
    # and for an array of period counts
    a = 0.3
    ang = math.acos(a)
    per = PropagatorCoeffs(a, 0.0, math.sqrt(1.0 - a * a), 0.0)
    cn, ratio = _power_factors(per, 5.0)
    assert cn == pytest.approx(math.cos(5 * ang), abs=1e-15)
    assert ratio == pytest.approx(math.sin(5 * ang) / math.sin(ang), rel=1e-15)
    cns, ratios = _power_factors(per, np.array([0.0, 5.0]))
    assert tuple(cns) == (1.0, cn) and tuple(ratios) == (0.0, ratio)
    cn, ratio = _power_factors(per._replace(a=-a), 5.0)
    assert cn == pytest.approx(math.cos(5 * math.acos(-a)), abs=1e-14)
    # Theta = 1e-9 and pi - 1e-9 keep full relative precision: no limit is
    # substituted, and the reflected branch alternates signs
    x = 1e-9
    near = PropagatorCoeffs(math.cos(x), 0.0, 0.0, math.sin(x))
    cn, ratio = _power_factors(near, 7.0)
    assert cn == pytest.approx(math.cos(7 * x), rel=1e-15)
    assert ratio == pytest.approx(math.sin(7 * x) / math.sin(x), rel=1e-15)
    cn, ratio = _power_factors(near._replace(a=-near.a), 7.0)
    assert cn == pytest.approx(-math.cos(7 * x), rel=1e-15)
    assert ratio == pytest.approx(math.sin(7 * x) / math.sin(x), rel=1e-15)
    cn, ratio = _power_factors(near._replace(a=-near.a), 8.0)
    assert cn == pytest.approx(math.cos(8 * x), rel=1e-15)
    assert ratio == pytest.approx(-math.sin(8 * x) / math.sin(x), rel=1e-15)
    # U(T) = +/-1: cos(n*Theta) = (+/-1)**n and the ratio is 0
    assert _power_factors(PropagatorCoeffs(1.0, 0.0, 0.0, 0.0), 7.0) == (1.0, 0.0)
    assert _power_factors(PropagatorCoeffs(-1.0, 0.0, 0.0, 0.0), 7.0) == (-1.0, 0.0)
    assert _power_factors(PropagatorCoeffs(-1.0, 0.0, 0.0, 0.0), 8.0) == (1.0, 0.0)


@seed(5)
@settings(deadline=None, max_examples=60)
@given(
    turns=st.integers(0, 3),
    log_eta=st.floats(-10.0, -6.0),
    sign=st.sampled_from([-1.0, 1.0]),
    n=st.integers(1, 10**7),
    null=st.sampled_from(["none", "after", "only"]),
)
def test_power_identity_next_to_plus_minus_identity(turns, log_eta, sign, n, null):
    # one step of area turns*pi + eta leaves U(T) within eta of +/-1; a null
    # step (E = 0) leaves it unchanged, and a null drive makes it exactly 1
    step = DriveStep(0.8, 0.6, 0.3, 1.0)
    area = abs(turns * math.pi + sign * 10.0**log_eta)
    step = step._replace(tau=area / step.energy)
    null_step = DriveStep(0.0, 0.0, 0.0, 0.37)
    steps = {"none": (step,), "after": (step, null_step), "only": (null_step,)}[null]
    seq = PulseSequence(steps)
    t = n * seq.period
    times = np.array([np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)])
    arrays = np.array(evolve_many(seq, times))
    for i, ti in enumerate(times):
        got = evolve(seq, float(ti))
        assert got.unitarity_defect <= 1e-12
        assert np.max(np.abs(np.array(got) - arrays[:, i])) <= 1e-12
    want = np.linalg.matrix_power(period_propagator(seq).as_matrix(), n)
    got = evolve(seq, t).as_matrix()
    assert np.max(np.abs(got - want)) <= 1e-12 + 2e-15 * n


def test_identity_period_stays_identity_at_all_times():
    # a full cycle per period: the stroboscopic evolution is the identity
    seq = PulseSequence.from_arrays([0.0], [1.0], [0.0], [2.0 * math.pi])
    for n in (1, 9, 1000):
        got = evolve(seq, n * seq.period)
        assert got.a == pytest.approx(1.0, abs=1e-12)
        assert got.transition_probability < 1e-24


def test_half_cycle_period_alternates_sign():
    # E*tau = pi per period: U(T) = -1, so U(nT + t') = (-1)^n U(t')
    seq = PulseSequence.from_arrays([0.0], [1.0], [0.0], [math.pi])
    tprime = 0.4
    base = np.asarray(intra_period(seq, tprime).as_matrix())
    for n in (1, 2, 33):
        got = np.asarray(evolve(seq, n * seq.period + tprime).as_matrix())
        assert np.max(np.abs(got - (-1.0) ** n * base)) < 1e-12


def test_split_time_promotes_ulp_remainders():
    period = 0.14093168599791334
    n, tprime = _split_time(1000.0 * period, period)
    assert tprime == 0.0
    assert n == 1000
    n, tprime = _split_time(0.25 * period, period)
    assert n == 0
    assert tprime == pytest.approx(0.25 * period)


def test_evolve_many_matches_scalar_evolve():
    # the one-step drive puts every time in the same segment; the random
    # drives reach 1e6 periods, where a second rounding of U(T) would show
    one_step = PulseSequence.from_arrays([0.7], [1.3], [0.4], [0.9])
    rng = np.random.default_rng(17)
    drives = [(five_step_sequence(), 246.9), (one_step, 246.9)]
    drives += [(random_sequence(rng), rng.uniform(0.0, 1e6)) for _ in range(200)]
    for seq, periods in drives:
        times = np.array([0.0, 0.06, 0.34, 1.0, 8.484, periods]) * seq.period
        arrays = evolve_many(seq, times)
        for i, t in enumerate(times):
            single = evolve(seq, float(t))
            assert all(type(x) is float for x in single)
            assert tuple(single) == tuple(x[i] for x in arrays)


def test_period_propagator_is_the_composed_window_product():
    # one U(T) for every caller: intra_period(T) returns the product that
    # evolve_many and the line tables compose from the step durations
    rng = np.random.default_rng(23)
    for _ in range(200):
        seq = random_sequence(rng)
        assert tuple(period_propagator(seq)) == tuple(_window_starts(seq)[1])


def test_period_propagator_matches_mpmath():
    # each step contributes a few roundings of order one plus the rounding
    # of its phase E*tau; a duration taken as a difference of running
    # boundaries t1 - t0 would add about eps * t0 * E, which this bound
    # does not allow
    rng = np.random.default_rng(29)
    with mpmath.workdps(40):
        for _ in range(200):
            seq = random_sequence(rng)
            bound = 2.0 * 2.2e-16 * sum(1.0 + s.energy * s.tau for s in seq.steps)
            want = mp_period_propagator(seq)
            for got, exact in zip(period_propagator(seq), want):
                assert abs(float(mpmath.mpf(got) - exact)) <= bound


def test_evolve_many_blocks_give_the_same_bits():
    # more than two blocks, boundaries and whole periods among the times:
    # each time must get the bits it gets when evaluated on its own
    seq = five_step_sequence()
    rng = np.random.default_rng(5)
    count = 2 * _BLOCK + 37
    times = rng.uniform(0.0, 300.0 * seq.period, count)
    times[::97] = seq.boundaries[rng.integers(0, 6, times[::97].size)]
    times[::89] += seq.period * rng.integers(0, 40, times[::89].size)
    arrays = evolve_many(seq, times.reshape(-1, 1))
    assert all(x.shape == (count, 1) for x in arrays)
    edges = [0, _BLOCK - 1, _BLOCK, count - 1]
    for i in edges + list(range(0, count, 211)):
        alone = evolve_many(seq, times[i:i + 1])
        assert tuple(x[i, 0] for x in arrays) == tuple(x[0] for x in alone)


def test_evolve_many_preserves_shape():
    seq = detuned_pair()
    times = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    arrays = evolve_many(seq, times)
    assert all(x.shape == (3, 4) for x in arrays)
    probs = transition_probabilities(seq, times)
    assert probs.shape == (3, 4)
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0 + 1e-12)


def test_transition_probability_scalar_matches_coefficients():
    seq = detuned_pair()
    t = 0.7
    coeffs = evolve(seq, t)
    assert transition_probability(seq, t) == coeffs.c**2 + coeffs.d**2


@seed(3)
@settings(deadline=None, max_examples=40)
@given(
    n_periods=st.integers(0, 300),
    fraction=st.floats(0.0, 1.0, exclude_max=True),
)
def test_evolve_stays_unitary_and_tracks_oracle(n_periods, fraction):
    seq = four_step_sequence()
    t = (n_periods + fraction) * seq.period
    got = evolve(seq, t)
    assert got.unitarity_defect < 1e-12
    want = brute_force_evolve(seq, t)
    assert np.max(np.abs(np.asarray(got.as_matrix()) - want)) < ORACLE_TOL


def test_oracle_agreement_across_random_sequences():
    rng = np.random.default_rng(22)
    for _ in range(30):
        seq = random_sequence(rng, max_steps=6, lo=0.05, hi=30.0)
        t = float(rng.uniform(0.0, 40.0)) * seq.period
        got = np.asarray(evolve(seq, t).as_matrix())
        want = brute_force_evolve(seq, t)
        assert np.max(np.abs(got - want)) < ORACLE_TOL
