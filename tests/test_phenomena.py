"""Phenomena flags, beat predictions, phase recovery, and sequence design."""

import math

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
    effective_hamiltonian,
    evolve,
    fourier_numeric,
    model_error,
    period_propagator,
    phase_from_beat,
    transition_probabilities,
)
from stepdrive.phenomena import _FREE_FIELDS, _with_field
from stepdrive.spectrum import _aligned_signal

from helpers import mp_period_propagator, quarter_cycle_sequence, resonant_plus_detuned

# frozen beat prediction of the resonant-plus-detuned pair
RPD_OMEGA_B = 0.060583604204843544
RPD_T_P = -51.165270419788364


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


def test_detuned_half_cycle_drops_out_of_the_rules():
    # odd count with the half-cycle step detuned: even-count rules at n1
    seq = quarter_cycle_sequence(
        [1.0, 1.8, 1.5], [0.0, 55.0, 62.0], half_cycle=(1,)
    )
    bp = beat_prediction(seq)
    assert bp.n_resonant == 1
    assert bp.is_beat
    assert model_error(seq, bp).value < 0.05


def scipy_fit_misfits(seq, bp):
    """The beat fit's misfit at bp.t_p and at SciPy's bounded minimum.

    The reference refinement: the same data inner products and dense scan
    as phenomena._fit_time_shift, then minimize_scalar on the bracket
    around the scan's best point.
    """
    period = seq.period
    varpi, varpi_prime, omega_b = bp.varpi_1, bp.varpi_1_prime, bp.omega_b
    horizon = min(max(4.0 * math.pi / omega_b, 10.0 * period), 2000.0 * period)
    times, exact = _aligned_signal(seq, horizon, 16)

    def tones(t):
        return np.stack([np.cos(2.0 * varpi * t), np.sin(2.0 * varpi * t),
                         np.cos(2.0 * varpi_prime * t), np.sin(2.0 * varpi_prime * t)])

    basis = tones(times)
    corr = basis @ (0.5 - exact)
    gram = basis @ basis.T

    def misfit(t_p):
        w = tones(t_p)
        return float(-0.5 * (corr @ w) + (w @ gram @ w) / 16.0)

    mean_tone = 0.5 * abs(varpi + varpi_prime)
    half_range = max(math.pi / omega_b, math.pi / mean_tone, period)
    step = math.pi / mean_tone / 40.0
    count = min(int(2.0 * half_range / step) + 1, 400001)
    shifts = np.linspace(-half_range, half_range, count)
    w_all = tones(shifts)
    best = int(np.argmin(-0.5 * (corr @ w_all) + np.sum(w_all * (gram @ w_all), axis=0) / 16.0))
    bracket = (shifts[max(best - 1, 0)], shifts[min(best + 1, count - 1)])
    res = scipy.optimize.minimize_scalar(misfit, bounds=bracket, method="bounded")
    return misfit(bp.t_p), res.fun


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
        got, scipy_best = scipy_fit_misfits(seq, bp)
        assert got <= scipy_best + 1e-15 * abs(scipy_best)
        fitted += 1
    assert fitted >= 20


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

    The reference search: scalar residuals point by point on the field's
    grid, one brentq per bracket, the first of them the design root.
    Empty without a flip.
    """

    def residual(x):
        return period_propagator(_with_field(seq, field, x)).b

    step1, step2 = seq.steps
    scale = max(abs(step2.delta), step1.epsilon, step2.epsilon, abs(step1.delta))
    if field == "detuning":
        grid = np.linspace(-10.0 * scale, 10.0 * scale, 2048)
    elif field == "coupling":
        grid = np.linspace(1e-6 * scale, 20.0 * scale, 2048)
    elif field == "phase":
        grid = np.linspace(-math.pi, math.pi, 1024)
    else:
        grid = np.linspace(1e-9, step2.tau + 2.0 * math.pi / step2.energy, 2048)
    sign = np.sign([residual(x) for x in grid])
    return [
        scipy.optimize.brentq(residual, grid[i], grid[i + 1], xtol=1e-14)
        for i in np.nonzero(np.diff(sign) != 0)[0]
    ]


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
        # the same bracket and brentq as the reference search
        assert got == roots[0]


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
        assert abs(float(mp_period_propagator(out)[1])) <= bound


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
