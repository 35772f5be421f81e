"""Phenomena flags, beat predictions, phase recovery, and sequence design."""

import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from stepdrive import (
    PulseSequence,
    beat_prediction,
    classify,
    complete_transition_time,
    design_manipulation,
    dominant_model,
    effective_hamiltonian,
    evolve,
    fourier_numeric,
    model_error,
    period_propagator,
    phase_from_beat,
    transition_probabilities,
)
from stepdrive import phenomena
from stepdrive.phenomena import _FREE_FIELDS, _with_field
from stepdrive.propagator import _window_starts, compose

from helpers import mp_propagator, quarter_cycle_sequence, random_sequence, resonant_plus_detuned

# frozen beat prediction of the resonant-plus-detuned pair
RPD_OMEGA_B = 0.060583604204843544
RPD_T_P = -51.165458369581906


def opposed_resonant_pair():
    """Two resonant steps with opposite phases and matched areas."""
    return PulseSequence.from_arrays(
        [0.0, 0.0], [1.0, 1.0], [0.0, math.pi], [0.05 * math.pi, 0.05 * math.pi]
    )


def test_opposed_phases_freeze_the_population():
    report = classify(opposed_resonant_pair(), tol=1e-6)
    assert report.cdt.active
    assert report.complete_transition.active
    assert report.periodic.active and report.periodic.index == 1
    assert not report.swapping.active
    assert report.cdt.residual < 1e-12


def test_quarter_cycle_step_is_swapping():
    seq = PulseSequence.from_arrays([0.0], [1.0], [0.0], [0.5 * math.pi])
    report = classify(seq)
    assert report.swapping.active
    assert report.stepwise.active and report.stepwise.index == 1
    assert report.periodic.active and report.periodic.index == 4
    assert report.complete_transition.active


def test_eighth_cycle_step_indices():
    # Theta = pi/4: population pinned after 2 periods, identity after 8
    seq = PulseSequence.from_arrays([0.0], [1.0], [0.0], [0.25 * math.pi])
    report = classify(seq)
    assert not report.swapping.active
    assert report.stepwise.active and report.stepwise.index == 2
    assert report.periodic.active and report.periodic.index == 8
    # the periodic flag is sound: eight periods return to the identity
    coeffs = evolve(seq, 8.0 * seq.period)
    assert abs(coeffs.a) > 1.0 - 1e-12
    assert coeffs.transition_probability < 1e-24


def test_periodic_residual_of_a_tiny_rotation():
    # one resonant step of area 1e-9: Theta = 1e-9, which arccos(a(T))
    # rounds to 0
    seq = PulseSequence.from_arrays([0.0], [1.0], [0.0], [1e-9])
    report = classify(seq)
    assert report.periodic.active and report.periodic.index == 1
    assert report.periodic.residual == pytest.approx(1e-9, rel=1e-12)


def test_periodic_search_respects_max_index():
    seq = PulseSequence.from_arrays([0.0], [1.0], [0.0], [0.25 * math.pi])
    report = classify(seq, max_index=4)
    assert not report.periodic.active
    assert report.stepwise.active and report.stepwise.index == 2


@pytest.mark.parametrize(
    "kwargs", [{"max_index": 0}, {"max_index": -5}, {"tol": math.nan},
               {"tol": -1.0}, {"tol": 0.0}, {"tol": math.inf}],
)
def test_classify_rejects_an_empty_search_and_a_bad_tolerance(kwargs):
    with pytest.raises(ValueError):
        classify(resonant_plus_detuned(), **kwargs)


def test_resonant_detuned_pair_flags_a_beat():
    report = classify(resonant_plus_detuned())
    assert report.beat.active
    assert report.beat.residual < 0.1
    assert report.complete_transition.active
    assert not report.cdt.active


def test_biased_pair_flags_nothing():
    seq = PulseSequence.from_arrays(
        [3.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.3, 1.6461]
    )
    assert classify(seq).active == ()


def test_beat_flag_reads_lines_unmixed_by_a_short_window():
    # over 64 periods a neighbouring line of this four-step drive leaks into
    # the strong pair and flags a beat that 1,000,000 periods do not show
    seq = PulseSequence.from_arrays(
        [0.47619095043183285, 0.059386003879544805, 23.120840524235316, -30.920733058176076],
        [4.3797498744614165, 0.26768684993163033, 4.600514674742618, 3.2939659462119675],
        [0.053617654551502754, 2.3163644597907576, 0.41186316390897837, -1.6958784393266249],
        [2.688662589653033, 0.1333245349709265, 0.41224230079875285, 2.804014596257913],
    )
    beat = classify(seq).beat
    assert beat.active is False
    assert beat.residual == pytest.approx(0.3784543247494671, rel=1e-12)


def test_beat_flag_reads_no_leakage_line():
    # four equal steps with Theta just below pi/2: at 4096 periods a
    # leakage line 8.2e-4 above the main line made a "similar" second line
    # and flagged a beat; the discrete lines, like 1,000,000 periods, hold
    # one strong line
    seq = PulseSequence.from_arrays(
        [1.9845647604745116] * 4, [0.7944453276721302] * 4,
        [-1.6134248217814176] * 4, [0.308887811727781] * 4,
    )
    beat = classify(seq).beat
    assert beat.active is False
    assert beat.residual == math.inf


def test_a_slow_beat_within_the_line_horizon_is_flagged():
    # two strong lines 3.08e-5 apart at T = 67.95: more than pi/(4096 T),
    # so they stay two lines and beat; a merge width of pi/(1024 T) would
    # fold them into one
    seq = PulseSequence.from_arrays(
        [-0.3808145432530964, 8.691883212670808, -1.1220443806633802,
         0.16826701760028925, 0.01316979531116591],
        [0.3026531190107725, 0.3510978176550214, 0.10211202838795565,
         6.017085073025536, 16.182131427801707],
        [2.112405658137459, 2.787499457062909, 1.8085416280785198,
         0.8734121805596544, -2.791731279147191],
        [0.01960397477089193, 22.73374089005397, 0.03538727355229884,
         0.0320181839952805, 45.132852926156765],
    )
    beat = classify(seq).beat
    assert beat.active is True
    assert beat.residual == pytest.approx(3.3338265873430860e-4, rel=1e-12)


def long_window_beat(seq):
    """Beat flag by classify's strong-pair rule on a 1,000,000-period
    window, and the spacing of that pair (None without a pair)."""
    strong = dominant_model(fourier_numeric(seq, (-3, 3), K=10**6), 2).components
    if len(strong) < 2:
        return False, None
    first, second = strong
    diff = abs(first.frequency - second.frequency)
    comparable = second.amplitude >= first.amplitude / 3.0
    return diff / (first.frequency + second.frequency) < 0.1 and comparable, diff


def test_beat_flag_agrees_with_a_long_window():
    # wherever a 1,000,000-period window resolves its strong pair at the
    # line horizon, pi/(4096 T), classify flags the beat that window shows
    rng = np.random.default_rng(11)
    for _ in range(300):
        seq = random_sequence(rng)
        want, spacing = long_window_beat(seq)
        if spacing is None or spacing > math.pi / (4096.0 * seq.period):
            assert classify(seq).beat.active is want, seq


def test_report_lines_are_printable():
    report = classify(resonant_plus_detuned())
    lines = report.lines()
    assert len(lines) == 6
    assert any(line.startswith("beat: yes") for line in lines)
    assert all("residual=" in line for line in lines)


def test_beat_prediction_matches_effective_frequencies():
    seq = resonant_plus_detuned()
    h = effective_hamiltonian(seq, branch="positive_a")
    bp = beat_prediction(seq)
    assert bp.n_resonant == 1
    assert bp.varpi_1 == h.omega_eff
    assert bp.varpi_1_prime == h.sideband_minus
    assert bp.omega_b == pytest.approx(RPD_OMEGA_B, rel=1e-12)
    assert bp.t_p == pytest.approx(RPD_T_P, rel=1e-6)
    assert bp.is_beat
    assert model_error(seq, bp).value < 0.05


def test_beat_spacing_matches_spectral_line_gap():
    # the dominant spectral pair must sit 2*omega_b apart
    seq = resonant_plus_detuned()
    bp = beat_prediction(seq)
    model = fourier_numeric(seq, l_range=(-3, 3), K=256)
    strong = sorted(model.components, key=lambda c: c.amplitude, reverse=True)[:2]
    gap = abs(strong[0].frequency - strong[1].frequency)
    assert gap == pytest.approx(2.0 * bp.omega_b, rel=0.02)


def test_identical_resonant_steps_do_not_beat():
    seq = quarter_cycle_sequence([1.0, 1.0], [0.0, 0.0])
    bp = beat_prediction(seq)
    assert bp.n_resonant == 2
    assert bp.omega_b == pytest.approx(0.0, abs=1e-15)
    assert not bp.is_beat


def test_a_beat_made_of_rounding_is_no_beat():
    # opposite phases and quarter-cycle areas give U(T) = 1 up to rounding;
    # the tones once came out one ulp apart, omega_b = 8.9e-16, a "beat"
    # period of 1.4e16 time units
    seq = quarter_cycle_sequence([4.68, 21.68], [0.0, 0.0], [math.pi, 0.0])
    bp = beat_prediction(seq)
    assert bp.varpi_1_prime == bp.varpi_1
    assert bp.omega_b == abs(bp.varpi_1_prime - bp.varpi_1) == 0.0
    assert not bp.is_beat
    assert abs(bp.t_p) <= seq.period


def test_detuned_half_cycle_drops_out_of_the_rules():
    # odd count with the half-cycle step detuned: even-count rules at n1
    seq = quarter_cycle_sequence(
        [1.0, 1.8, 1.5], [0.0, 55.0, 62.0], half_cycle=(1,)
    )
    bp = beat_prediction(seq)
    assert bp.n_resonant == 1
    assert bp.is_beat
    assert model_error(seq, bp).value < 0.05


def fit_periods(omega_b, period):
    """The beat fit's horizon in whole periods."""
    if omega_b > 0.0:
        return math.ceil(min(max(4.0 * math.pi / omega_b / period, 10.0), 2000.0))
    return 40


def trapezoid_moments(seq, rates, periods, per_step=256):
    """integral g**2, integral f*g and integral f f^T dt over [0, periods*T],
    g = 1/2 - P and f = (cos(r*t) for r in rates, then sin(r*t)), by the trapezoid
    rule on per_step uniform samples of every step of transition_probabilities."""
    period = seq.period
    edges = (np.arange(periods)[:, None] * period + seq.boundaries[None, :-1]).ravel()
    ends = np.append(edges[1:], periods * period)
    frac = np.arange(per_step) / per_step
    times = np.append((edges[:, None] + frac * (ends - edges)[:, None]).ravel(), periods * period)
    weights = np.zeros_like(times)
    weights[:-1] += 0.5 * np.diff(times)
    weights[1:] += 0.5 * np.diff(times)
    g = 0.5 - transition_probabilities(seq, times)
    f = np.concatenate(([np.cos(r * times) for r in rates], [np.sin(r * times) for r in rates]))
    return (weights * g) @ g, f @ (weights * g), (f * weights) @ f.T


def reference_fit(seq, bp, finer=10):
    """The time-weighted misfit integral (P - model)**2 dt over the fit's
    whole periods, from trapezoid_moments, as a function of t_p, and its
    least value: SciPy's bounded minimum in every basin of a scan `finer`
    times denser than the program's."""
    varpi, varpi_prime, omega_b = bp.varpi_1, bp.varpi_1_prime, bp.omega_b
    rates = (2.0 * varpi, 2.0 * varpi_prime)
    g2, corr, gram = trapezoid_moments(seq, rates, fit_periods(omega_b, seq.period))

    def misfit(t_p):
        w = np.concatenate(([np.cos(r * t_p) for r in rates], [np.sin(r * t_p) for r in rates]))
        return g2 - 0.5 * (corr @ w) + np.sum(w * (gram @ w), axis=0) / 16.0

    mean_tone = 0.5 * abs(varpi + varpi_prime)
    half_range = max(math.pi / omega_b, math.pi / mean_tone, seq.period)
    count = int(2.0 * half_range / (math.pi / mean_tone / (40.0 * finer))) + 1
    shifts = np.linspace(-half_range, half_range, count)
    costs = misfit(shifts)
    basins = np.flatnonzero(np.concatenate(([True], costs[1:] <= costs[:-1]))
                            & np.concatenate((costs[:-1] <= costs[1:], [True])))
    best = float(costs.min())
    for i in basins:
        bracket = (shifts[max(i - 1, 0)], shifts[min(i + 1, count - 1)])
        res = scipy.optimize.minimize_scalar(
            lambda t: float(misfit(t)), bounds=bracket, method="bounded",
            options={"xatol": 1e-12 * max(1.0, abs(bracket[0]))},
        )
        best = min(best, res.fun)
    return lambda t: float(misfit(t)), best


def test_beat_fit_is_at_least_as_good_as_scipy():
    rng = np.random.default_rng(41)
    fitted = 0
    for _ in range(24):
        n = int(rng.integers(2, 5))
        eps = rng.uniform(0.5, 2.0, n)
        # a resonant first step, the rest resonant or strongly detuned
        deltas = [0.0] + [
            float(rng.choice([0.0, rng.choice([-1.0, 1.0]) * rng.uniform(12.0, 60.0) * e]))
            for e in eps[1:]
        ]
        half_cycle = (int(rng.integers(0, n)),) if n % 2 else ()
        seq = quarter_cycle_sequence(
            list(eps), deltas, list(rng.uniform(-math.pi, math.pi, n)), half_cycle
        )
        bp = beat_prediction(seq)
        if bp.omega_b == 0.0:
            continue
        misfit, best = reference_fit(seq, bp)
        assert misfit(bp.t_p) <= best * (1.0 + 1e-9)
        fitted += 1
    assert fitted >= 20


def test_fit_moments_match_a_fine_trapezoid():
    # the closed-form correlations and Gram matrix of the beat fit against
    # the trapezoid rule on the propagator's signal at 128 and 256 samples
    # per step, whose error falls like the square of the spacing, so that
    # (4*T_256 - T_128)/3 removes its leading term; at the beat tones, and
    # at arbitrary ones of a general drive
    rng = np.random.default_rng(47)
    cases = [(resonant_plus_detuned(), None, 126)]
    for _ in range(4):
        seq = random_sequence(rng, max_steps=4, lo=0.3, hi=3.0)
        cases.append((seq, tuple(rng.uniform(-3.0, 3.0, 2)), 17))
    for seq, rates, periods in cases:
        if rates is None:
            bp = beat_prediction(seq)
            rates = (2.0 * bp.varpi_1, 2.0 * bp.varpi_1_prime)
        corr, gram = phenomena._fit_moments(seq, rates, periods)
        coarse, fine = (trapezoid_moments(seq, rates, periods, n)[1:] for n in (128, 256))
        want_corr, want_gram = ((4.0 * b - a) / 3.0 for a, b in zip(coarse, fine))
        scale = periods * seq.period
        assert np.max(np.abs(corr - want_corr)) <= 1e-9 * scale
        assert np.max(np.abs(gram - want_gram)) <= 1e-9 * scale


def test_beat_prediction_input_validation():
    # a step in neither regime
    mixed = PulseSequence.from_arrays([5.0], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="neither resonant nor strongly detuned"):
        beat_prediction(mixed)
    # no resonant step at all
    detuned = quarter_cycle_sequence([1.0, 2.0], [50.0, 40.0])
    with pytest.raises(ValueError, match="no resonant step"):
        beat_prediction(detuned)
    # even count with a non-quarter area
    bad_area = PulseSequence.from_arrays(
        [0.0, 40.0], [1.0, 1.0], [0.0, 0.0], [0.3, 0.3]
    )
    with pytest.raises(ValueError, match="pi/2"):
        beat_prediction(bad_area)
    # odd count needs exactly one half cycle
    three_quarters = quarter_cycle_sequence([1.0, 1.2, 1.4], [0.0, 30.0, 40.0])
    with pytest.raises(ValueError, match="odd step counts"):
        beat_prediction(three_quarters)
    # step 2 is strongly detuned, |delta| = 15 epsilon: a tolerance past 10
    # would count it as resonant, and nan or a non-positive one would count
    # the exactly resonant step 1 as neither
    near = quarter_cycle_sequence([1.0, 1.0], [0.0, 15.0])
    for tol in (20.0, 10.5, math.inf, math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match=r"resonant_tol must lie in \(0, 10\]"):
            beat_prediction(near, resonant_tol=tol)
    # the top of the band keeps the answer of the default
    assert beat_prediction(near, resonant_tol=10.0) == beat_prediction(near)


def test_phase_recovery_inverts_the_beat_relation():
    seq = resonant_plus_detuned(theta2=math.pi / 3)
    step2 = seq.steps[1]
    scale = 2.0 * step2.epsilon / (seq.period * step2.energy)
    measured = scale * math.cos(math.pi / 3)
    plus, minus = phase_from_beat(measured, seq)
    assert plus == pytest.approx(math.pi / 3, rel=1e-12)
    assert minus == -plus


def test_phase_recovery_clamps_the_range_edge():
    # the predicted beat of the zero-phase pair slightly exceeds the
    # linearized scale; that must read as phase zero, not as an error
    seq = resonant_plus_detuned()
    bp = beat_prediction(seq)
    plus, minus = phase_from_beat(bp.omega_b, seq)
    assert plus == 0.0
    assert minus == 0.0


def test_phase_recovery_input_validation():
    seq = resonant_plus_detuned()
    step2 = seq.steps[1]
    scale = 2.0 * step2.epsilon / (seq.period * step2.energy)
    with pytest.raises(ValueError, match="exceeds the invertible range"):
        phase_from_beat(1.02 * scale, seq)
    with pytest.raises(ValueError, match="non-negative"):
        phase_from_beat(-0.1, seq)
    single = PulseSequence.from_arrays([0.0], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="two steps"):
        phase_from_beat(0.01, single)
    biased = quarter_cycle_sequence([1.0, 1.0], [0.5, 40.0])
    with pytest.raises(ValueError, match="resonant"):
        phase_from_beat(0.01, biased)
    both_resonant = quarter_cycle_sequence([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="detuned"):
        phase_from_beat(0.01, both_resonant)
    long_pulse = PulseSequence.from_arrays(
        [0.0, 40.0], [1.0, 1.0], [0.0, 0.0], [0.3, 0.3]
    )
    with pytest.raises(ValueError, match="pi/2"):
        phase_from_beat(0.01, long_pulse)


def test_complete_transition_time_reaches_unit_transfer():
    t_full = complete_transition_time(1.0, 1.0, 0.1, 0.2)
    assert t_full == pytest.approx(0.5 * math.pi)
    seq = PulseSequence.from_arrays([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.1, 0.2])
    assert transition_probabilities(seq, np.array([t_full]))[0] > 0.99999

    t_full = complete_transition_time(1.0, 0.5, 0.1, 0.2)
    assert t_full == pytest.approx(0.75 * math.pi)
    seq = PulseSequence.from_arrays([0.0, 0.0], [1.0, 0.5], [0.0, 0.0], [0.1, 0.2])
    assert transition_probabilities(seq, np.array([t_full]))[0] > 0.999


def test_complete_transition_time_needs_short_steps():
    with pytest.raises(ValueError, match="quarter cycle"):
        complete_transition_time(1.0, 1.0, 0.1, 2.0)


@seed(4)
@given(
    eps2=st.floats(0.1, 0.99),
    f1=st.floats(0.01, 0.99),
    f2=st.floats(0.01, 0.99),
)
def test_complete_transition_time_is_bracketed_by_pure_drives(eps2, f1, f2):
    # a mix of strong and weak coupling transfers no faster than the strong
    # drive alone and no slower than the weak one
    eps1 = 1.0
    tau1 = f1 * 0.5 * math.pi / eps1
    tau2 = f2 * 0.5 * math.pi / eps2
    t_full = complete_transition_time(eps1, eps2, tau1, tau2)
    assert 0.5 * math.pi / eps1 - 1e-12 <= t_full <= 0.5 * math.pi / eps2 + 1e-12


def test_design_durations_zeroes_the_period_bias():
    seq = PulseSequence.from_arrays(
        [20.0, 30.0], [1.0, 1.0], [0.0, 0.0], [0.0938, 0.05]
    )
    out = design_manipulation(seq, "complete_transition", "durations")
    assert out.steps[0] == seq.steps[0]
    assert out.steps[1].tau == pytest.approx(0.146357, abs=1e-5)
    assert abs(period_propagator(out).b) < 1e-10


def test_design_cdt_by_each_free_parameter():
    # phase: flip the second phase to oppose the first
    seq = PulseSequence.from_arrays([0.0, 0.0], [1.0, 2.0], [0.0, 0.3], [0.3, 0.15])
    out = design_manipulation(seq, "cdt", "phase")
    assert out.steps[1].theta == pytest.approx(math.pi)
    per = period_propagator(out)
    assert math.hypot(per.c, per.d) < 1e-12

    # coupling: rescale the second coupling to match the areas
    seq = PulseSequence.from_arrays(
        [0.0, 0.0], [1.0, 3.0], [0.0, math.pi], [0.3, 0.15]
    )
    out = design_manipulation(seq, "cdt", "coupling")
    assert out.steps[1].epsilon == pytest.approx(2.0, rel=1e-12)
    per = period_propagator(out)
    assert math.hypot(per.c, per.d) < 1e-12

    # durations: rescale the second duration instead
    seq = PulseSequence.from_arrays(
        [0.0, 0.0], [1.0, 2.0], [0.0, math.pi], [0.3, 0.4]
    )
    out = design_manipulation(seq, "cdt", "durations")
    assert out.steps[1].tau == pytest.approx(0.15, rel=1e-12)
    per = period_propagator(out)
    assert math.hypot(per.c, per.d) < 1e-12


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_design_cdt_reads_resonance_relative_to_the_coupling(k):
    # time unit 2**-k: a detuning of 2**-44 couplings is resonant and one of
    # 2**-36 couplings is not, however large the coupling is in that unit
    s = math.ldexp(1.0, k)

    def pair(delta1):
        return PulseSequence.from_arrays(
            [delta1 / s, 0.0], [1.0 / s, 1.0 / s], [0.0, 0.3], [0.3 * s, 0.3 * s]
        )

    out = design_manipulation(pair(2.0**-44), "cdt", "phase")
    assert out.steps[1].theta == math.pi
    with pytest.raises(ValueError, match="resonant steps"):
        design_manipulation(pair(2.0**-36), "cdt", "phase")


def test_design_returns_satisfying_sequence_unchanged():
    # resonant zero-phase steps already have b = 0
    seq = PulseSequence.from_arrays([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.3, 0.4])
    out = design_manipulation(seq, "complete_transition", "detuning")
    assert out is seq


def test_design_reports_empty_bracket():
    energy = math.hypot(1.0, 20.0)
    tau = 0.25 * math.pi / energy
    seq = PulseSequence.from_arrays(
        [40.0, 40.0], [1.0, 1.0], [0.0, 0.5], [tau, tau]
    )
    # the scalar residual has one sign over the whole phase circle
    grid = np.linspace(-math.pi, math.pi, 1024)
    vals = np.array([period_propagator(_with_field(seq, "phase", x)).b for x in grid])
    assert np.all(vals > 0.0) or np.all(vals < 0.0)
    with pytest.raises(ValueError, match="no sign change"):
        design_manipulation(seq, "complete_transition", "phase")


# off-resonant first step, strongly detuned second: no field starts at b = 0
DESIGN_PAIR = ([2.5, 30.0], [1.1, 0.9], [0.0, 0.4], [0.35, 0.05])
# a null second step (E_2 = 0): its duration and phase cannot move b(T)
NULL_PAIR = ([2.5, 0.0], [1.1, 0.0], [0.0, 0.4], [0.35, 0.05])


def scalar_loop_roots(seq, field):
    """brentq roots at every sign flip of b(T) on the search grid.

    The reference search: scalar residuals point by point on the grid of
    the last step's field, one brentq per bracket, the first of them the
    design root.  Empty without a flip.
    """

    def residual(x):
        return period_propagator(_with_field(seq, field, x)).b

    last = seq.steps[-1]
    scale = max(max(abs(s.delta), s.epsilon) for s in seq.steps)
    if field == "detuning":
        grid = np.linspace(-10.0 * scale, 10.0 * scale, 2048)
    elif field == "coupling":
        grid = np.linspace(1e-6 * scale, 20.0 * scale, 2048)
    elif field == "phase":
        grid = np.linspace(-math.pi, math.pi, 1024)
    else:
        grid = np.linspace(1e-9, last.tau + 2.0 * math.pi / last.energy, 2048)
    sign = np.sign([residual(x) for x in grid])
    return [
        scipy.optimize.brentq(residual, grid[i], grid[i + 1], xtol=1e-14)
        for i in np.nonzero(np.diff(sign) != 0)[0]
    ]


def assert_bisected_root(seq, field, got, reference):
    """Checks on a detuning or coupling root against brentq's ``reference``.

    (a) b(T) changes sign between ``got`` and one of its float neighbours,
    or is 0 at ``got``: the bisection ends on two neighbouring floats, which
    is tighter than brentq's xtol = 1e-14.  (b) ``got`` lies within
    brentq's documented bound of its root, xtol + rtol |root| with
    rtol = 4 eps, plus one ulp.
    """

    def residual(x):
        return period_propagator(_with_field(seq, field, x)).b

    b = residual(got)
    if b != 0.0:
        assert any(residual(math.nextafter(got, side)) * b < 0.0
                   for side in (-math.inf, math.inf))
    bound = 1e-14 + 4.0 * sys.float_info.epsilon * abs(reference) + math.ulp(reference)
    assert abs(got - reference) <= bound


@pytest.mark.parametrize(
    "arrays, field",
    [
        (DESIGN_PAIR, "detuning"),
        (DESIGN_PAIR, "coupling"),
        (DESIGN_PAIR, "durations"),
        (NULL_PAIR, "detuning"),
        (NULL_PAIR, "coupling"),
    ],
)
def test_design_finds_the_first_root_of_the_search(arrays, field):
    seq = PulseSequence.from_arrays(*arrays)
    roots = scalar_loop_roots(seq, field)
    out = design_manipulation(seq, "complete_transition", field)
    assert out.steps[0] == seq.steps[0]
    assert abs(period_propagator(out).b) < 1e-12
    got = getattr(out.steps[1], _FREE_FIELDS[field])
    if field == "durations":
        assert got == pytest.approx(roots[0], rel=1e-11)
    else:
        # the same bracket as the reference search, bisected instead of brentq
        assert_bisected_root(seq, field, got, roots[0])


@pytest.mark.parametrize("field", ["durations", "phase"])
def test_design_null_second_step_has_no_duration_or_phase_root(field):
    seq = PulseSequence.from_arrays(*NULL_PAIR)
    with pytest.raises(ValueError, match="no sign change"):
        design_manipulation(seq, "complete_transition", field)


@seed(11)
@settings(max_examples=100, deadline=None)
@given(
    delta1=st.floats(-5.0, 5.0),
    delta2=st.floats(-40.0, 40.0),
    eps1=st.floats(0.2, 2.0),
    eps2=st.floats(0.2, 2.0),
    theta2=st.floats(-math.pi, math.pi),
    tau1=st.floats(0.05, 1.0),
    tau2=st.floats(0.02, 1.0),
)
@pytest.mark.parametrize("field", ["durations", "phase"])
def test_design_closed_form_is_the_first_root_of_the_search(
    field, delta1, delta2, eps1, eps2, theta2, tau1, tau2
):
    seq = PulseSequence.from_arrays(
        [delta1, delta2], [eps1, eps2], [0.0, theta2], [tau1, tau2]
    )
    if abs(period_propagator(seq).b) < 1e-12:
        assert design_manipulation(seq, "complete_transition", field) is seq
        return
    roots = scalar_loop_roots(seq, field)
    if not roots:
        with pytest.raises(ValueError, match="no sign change"):
            design_manipulation(seq, "complete_transition", field)
        return
    out = design_manipulation(seq, "complete_transition", field)
    assert out.steps[0] == seq.steps[0]
    got = getattr(out.steps[1], _FREE_FIELDS[field])
    gaps = list(np.diff(roots))
    if field == "phase":
        # the phase roots repeat with period 2*pi
        gaps.append(2.0 * math.pi - (roots[-1] - roots[0]))
        miss = abs(math.remainder(got - roots[0], 2.0 * math.pi))
    else:
        miss = abs(got - roots[0])
    assert miss < 1e-3 * min(gaps)
    # b(T) at the float root is zero to the rounding of its phase
    bound = 4.0 * 2.2e-16 * sum(1.0 + s.energy * s.tau for s in out.steps)
    with mpmath.workdps(40):
        assert abs(float(mp_propagator(out)[1])) <= bound


@seed(18)
@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.floats(-40.0, 40.0), st.floats(0.0, 2.0),
                  st.floats(-math.pi, math.pi), st.floats(0.01, 2.0)),
        min_size=1, max_size=8,
    ),
    null_last=st.booleans(),
    x=st.floats(-400.0, 400.0) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
)
@pytest.mark.parametrize("field", ["detuning", "coupling"])
def test_last_step_residual_is_the_period_propagator_b(field, steps, null_last, x):
    """The root search reads b(T) as U_N applied to the prefix P, and gets
    the bits of period_propagator on the rebuilt sequence, signed zeros
    included: at every point it evaluates, and at the grid ends, +/-0,
    +/-1e-300 and a drawn value of the field."""
    if null_last:
        steps[-1] = (0.0, 0.0) + steps[-1][2:]
    seq = PulseSequence.from_arrays(*zip(*steps))
    name = _FREE_FIELDS[field]
    (*_, prefix), _ = _window_starts(seq)

    def reference(value):
        return period_propagator(_with_field(seq, field, value)).b

    seen = []

    def spy(left, step, s):
        out = compose(left, step, s)
        seen.append((left, step, s, out.b))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phenomena, "compose", spy)
        phenomena._last_step_root(seq, field)
    assert seen
    for left, step, s, b in seen:
        assert left == prefix and s == step.tau
        assert step._replace(**{name: getattr(seq.steps[-1], name)}) == seq.steps[-1]
        assert b.hex() == reference(getattr(step, name)).hex()
    scale = max(max(abs(s.delta), s.epsilon) for s in seq.steps)
    ends = (-10.0, 10.0) if field == "detuning" else (1e-6, 20.0)
    for value in (x, 0.0, -0.0, 1e-300, -1e-300) + tuple(scale * e for e in ends):
        step = seq.steps[-1]._replace(**{name: value})
        assert compose(prefix, step, step.tau).b.hex() == reference(value).hex()


@seed(16)
@settings(max_examples=10, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.floats(-5.0, 5.0), st.floats(0.2, 2.0),
                  st.floats(-math.pi, math.pi), st.floats(0.05, 1.0)),
        min_size=8, max_size=8,
    ),
    null_last=st.booleans(),
)
@pytest.mark.parametrize("n", [1, 3, 4, 8])
@pytest.mark.parametrize("field", ["detuning", "coupling", "phase", "durations"])
def test_design_tunes_the_last_step_of_any_drive(field, n, steps, null_last):
    steps = steps[:n]
    if null_last:
        steps[-1] = (0.0, 0.0) + steps[-1][2:]
    seq = PulseSequence.from_arrays(*zip(*steps))
    if abs(period_propagator(seq).b) < 1e-12:
        assert design_manipulation(seq, "complete_transition", field) is seq
        return
    if field in ("phase", "durations") and seq.steps[-1].energy == 0.0:
        roots = []  # a null last step leaves b(T) fixed
    else:
        roots = scalar_loop_roots(seq, field)
    if not roots:
        with pytest.raises(ValueError, match="no sign change"):
            design_manipulation(seq, "complete_transition", field)
        return
    out = design_manipulation(seq, "complete_transition", field)
    name = _FREE_FIELDS[field]
    assert out.steps[:-1] == seq.steps[:-1]
    assert out.steps[-1]._replace(**{name: getattr(seq.steps[-1], name)}) == seq.steps[-1]
    got = getattr(out.steps[-1], name)
    if field == "durations":
        assert got == pytest.approx(roots[0], rel=1e-11)
    elif field == "phase":
        # the smaller of the two roots on the circle, as the search finds it
        assert abs(math.remainder(got - roots[0], 2.0 * math.pi)) < 1e-9
    else:
        # the same bracket as the reference search, bisected instead of brentq
        assert_bisected_root(seq, field, got, roots[0])
    with mpmath.workdps(40):
        assert abs(float(mp_propagator(out)[1])) <= 1e-12


def test_design_input_validation():
    pair = PulseSequence.from_arrays([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.3, 0.3])
    single = PulseSequence.from_arrays([0.0], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="two-step"):
        design_manipulation(single, "cdt", "phase")
    with pytest.raises(ValueError, match="unknown target"):
        design_manipulation(pair, "freeze", "phase")
    with pytest.raises(ValueError, match="unknown free parameter"):
        design_manipulation(pair, "complete_transition", "area")
    with pytest.raises(ValueError, match="phase, coupling, or durations"):
        design_manipulation(pair, "cdt", "detuning")
    detuned = PulseSequence.from_arrays([1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.3, 0.3])
    with pytest.raises(ValueError, match="resonant steps"):
        design_manipulation(detuned, "cdt", "phase")
    mismatched = PulseSequence.from_arrays(
        [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.3, 0.4]
    )
    with pytest.raises(ValueError, match="matched pulse areas"):
        design_manipulation(mismatched, "cdt", "phase")
    aligned = PulseSequence.from_arrays(
        [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.3, 0.3]
    )
    with pytest.raises(ValueError, match="opposite phases"):
        design_manipulation(aligned, "cdt", "coupling")
