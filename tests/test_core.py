"""Domain types: steps, sequences, validation, and model containers."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import stepdrive
from stepdrive import (
    BeatPrediction,
    DriveStep,
    EffectiveHamiltonian,
    EmptySequenceError,
    PropagatorCoeffs,
    PulseSequence,
    SpectralComponent,
    SpectralModel,
    jump_sequence,
    validate,
)
from stepdrive.core import _fold_angle

FIELD_MAX = 1e6


def test_step_energy_is_hypot_of_coupling_and_half_detuning():
    step = DriveStep(50.0, 1.0, 0.0, 1.0)
    assert step.energy == math.hypot(1.0, 25.0)
    assert DriveStep(0.0, 2.0, 0.3, 1.0).energy == 2.0
    assert DriveStep(-6.0, 0.0, 0.0, 1.0).energy == 3.0


def test_step_axis_is_unit_field_direction():
    step = DriveStep(4.0, 1.5, 0.7, 1.0)
    ax, ay, az = step.axis
    e = step.energy
    assert ax == pytest.approx(1.5 * math.cos(0.7) / e)
    assert ay == pytest.approx(1.5 * math.sin(0.7) / e)
    assert az == pytest.approx(2.0 / e)
    assert math.sqrt(ax * ax + ay * ay + az * az) == pytest.approx(1.0)


def test_null_step_axis_is_zero_vector():
    assert DriveStep(0.0, 0.0, 1.2, 0.5).axis == (0.0, 0.0, 0.0)


def test_step_hamiltonian_is_traceless_with_energy_eigenvalues():
    step = DriveStep(4.0, 1.5, 0.7, 1.0)
    h = step.hamiltonian()
    assert np.allclose(h, h.conj().T)
    assert abs(np.trace(h)) < 1e-15
    w = np.linalg.eigvalsh(h)
    assert np.allclose(sorted(w), [-step.energy, step.energy])


def test_sequence_boundaries_and_period():
    seq = PulseSequence.from_arrays(
        [0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.5, 0.25, 1.0]
    )
    assert len(seq.steps) == 3
    assert np.allclose(seq.boundaries, [0.0, 0.5, 0.75, 1.75])
    assert seq.period == pytest.approx(1.75)
    assert seq.omega_t == pytest.approx(2.0 * math.pi / 1.75)
    assert seq.min_tau == 0.25


def test_sequence_rotation_is_cyclic():
    seq = PulseSequence.from_arrays(
        [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]
    )
    # entering at the start (or the end) of a step rotates the step list
    rot = jump_sequence(seq, 0.0, 2)
    assert [s.delta for s in rot.steps] == [2.0, 3.0, 1.0]
    assert jump_sequence(seq, 1.0, 3).steps == seq.steps
    assert jump_sequence(seq, 1.0, 1).steps == jump_sequence(seq, 0.0, 2).steps


def test_from_arrays_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal lengths"):
        PulseSequence.from_arrays([0.0, 1.0], [1.0], [0.0], [1.0])


def test_validate_rejects_empty_sequence():
    with pytest.raises(EmptySequenceError):
        validate(PulseSequence(()))


def test_validate_rejects_bad_durations_with_one_based_index():
    seq = PulseSequence((DriveStep(0.0, 1.0, 0.0, 1.0), DriveStep(0.0, 1.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="step 2: duration must be positive"):
        validate(seq)


def test_validate_rejects_non_finite_fields():
    seq = PulseSequence((DriveStep(math.nan, 1.0, 0.0, 1.0),))
    with pytest.raises(ValueError, match="step 1: delta is not finite"):
        validate(seq)
    seq = PulseSequence((DriveStep(0.0, math.inf, 0.0, 1.0),))
    with pytest.raises(ValueError, match="step 1: epsilon is not finite"):
        validate(seq)


def test_validate_rejects_a_step_lost_in_the_rounding_of_the_running_sum():
    # T = 9.25e99 + 3.67 rounds to 9.25e99, so step 2 has no time of its own
    with pytest.raises(ValueError, match=r"step 2: duration 3.67 is lost in the rounding"):
        PulseSequence.from_arrays([0.0, 0.0], [1.7e-100, 0.428], [0.0, 0.0], [9.25e99, 3.67])
    # a running sum that overflows is reported as the period, not as a lost step
    with pytest.raises(ValueError, match=r"period T = inf"):
        PulseSequence.from_arrays([0.0] * 3, [0.25] * 3, [0.0] * 3, [1e308, 1e308, 1.0])
    # a step below the rounding of T, but not of its own start, is kept
    seq = PulseSequence.from_arrays([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1e-17, 1.0])
    assert np.all(np.diff(seq.boundaries) > 0.0)


@pytest.mark.parametrize("epsilon, tau, message", [
    # T overflows to inf, and with it every period count and line frequency
    ((0.25, 0.25), (1e308, 1e308), r"period T = inf: T and 2\*pi/T must be finite"),
    # so does T here, but the phase 2*E*tau of step 1 overflows first
    ((1.0, 1.0), (1e308, 1e308), r"step 1: 2\*E\*tau is not finite"),
    # T is a subnormal and 2*pi/T overflows
    ((1.0, 1.0), (1e-320, 1e-320), r"period T = 2e-320: T and 2\*pi/T must be finite"),
    # each field and T are finite, but the phase E*tau of step 1 is not
    ((1e300, 1.0), (1e10, 1.0), r"step 1: 2\*E\*tau is not finite"),
    ((1.0, 1.5e308), (1.0, 2.0), r"step 2: 2\*E\*tau is not finite"),
    # E*tau = 1e8 is finite, but the window tone 2*E of step 1 is not
    ((1e308, 1.0), (1e-300, 1.0), r"step 1: 2\*E\*tau is not finite"),
], ids=["infinite_period_finite_phases", "infinite_period", "subnormal_period",
        "step_1_phase", "step_2_phase", "step_1_window_tone"])
def test_from_arrays_rejects_a_non_finite_period_or_phase(epsilon, tau, message):
    with pytest.raises(ValueError, match=message):
        PulseSequence.from_arrays([0.0, 0.0], epsilon, [0.0, 0.0], tau)


def test_package_all_lists_every_public_name():
    public = {
        name for name, value in vars(stepdrive).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(stepdrive.__all__) == sorted(public)
    assert len(stepdrive.__all__) == len(set(stepdrive.__all__))


def test_validate_folds_negative_coupling_into_phase():
    seq = validate(PulseSequence((DriveStep(1.0, -2.0, 0.25, 1.0),)))
    step = seq.steps[0]
    assert step.epsilon == 2.0
    assert step.theta == pytest.approx(_fold_angle(0.25 + math.pi))
    # the physical Hamiltonian is unchanged by the folding
    assert np.allclose(step.hamiltonian(), DriveStep(1.0, -2.0, 0.25, 1.0).hamiltonian())


def test_validate_folds_phase_to_half_open_interval():
    seq = validate(PulseSequence((DriveStep(0.0, 1.0, 3.5 * math.pi, 1.0),)))
    assert -math.pi < seq.steps[0].theta <= math.pi
    assert seq.steps[0].theta == pytest.approx(-0.5 * math.pi)


def test_fold_angle_edge_cases():
    assert _fold_angle(math.pi) == math.pi
    assert _fold_angle(-math.pi) == math.pi
    assert _fold_angle(0.0) == 0.0
    assert abs(_fold_angle(2.0 * math.pi)) < 1e-15
    assert _fold_angle(3.0 * math.pi) == pytest.approx(math.pi)


@seed(1)
@given(
    deltas=arrays(np.float64, (3,), elements=st.floats(-FIELD_MAX, FIELD_MAX)),
    epsilons=arrays(np.float64, (3,), elements=st.floats(-FIELD_MAX, FIELD_MAX)),
    thetas=arrays(np.float64, (3,), elements=st.floats(-50.0, 50.0)),
    taus=arrays(np.float64, (3,), elements=st.floats(1e-9, FIELD_MAX)),
)
def test_validate_is_idempotent(deltas, epsilons, thetas, taus):
    once = PulseSequence.from_arrays(deltas, epsilons, thetas, taus)
    twice = validate(once)
    assert twice == once


@seed(2)
@given(
    delta=st.floats(-FIELD_MAX, FIELD_MAX),
    epsilon=st.floats(-FIELD_MAX, FIELD_MAX),
    theta=st.floats(-50.0, 50.0),
)
def test_axis_has_unit_norm_when_energy_is_nonzero(delta, epsilon, theta):
    step = DriveStep(delta, epsilon, theta, 1.0)
    if step.energy == 0.0:
        assert step.axis == (0.0, 0.0, 0.0)
    else:
        assert math.hypot(math.hypot(*step.axis[:2]), step.axis[2]) == pytest.approx(
            1.0, abs=1e-12
        )


def test_propagator_coeffs_identity_and_matrix_round_trip():
    ident = PropagatorCoeffs.identity()
    assert ident == (1.0, 0.0, 0.0, 0.0)
    assert ident.transition_probability == 0.0
    assert ident.unitarity_defect == 0.0
    assert ident.angle == 0.0

    coeffs = PropagatorCoeffs(0.5, 0.5, 0.5, 0.5)
    u = coeffs.as_matrix()
    assert u[0, 0] == complex(0.5, 0.5)
    assert u[0, 1] == complex(0.5, -0.5)
    assert u[1, 0] == complex(-0.5, -0.5)
    assert u[1, 1] == complex(0.5, -0.5)
    assert np.allclose(u @ u.conj().T, np.eye(2))
    assert coeffs.transition_probability == pytest.approx(0.5)
    assert coeffs.angle == pytest.approx(math.acos(0.5))


@pytest.mark.parametrize("x", [1e-9, math.pi - 1e-9])
def test_angle_keeps_relative_precision_next_to_plus_minus_identity(x):
    # arccos(cos x) would give 0 at x = 1e-9 and lose half the digits of
    # pi - x; the angle is read from the whole quadruple instead
    coeffs = PropagatorCoeffs(math.cos(x), 0.0, 0.0, math.sin(x))
    assert coeffs.angle == pytest.approx(x, rel=1e-15, abs=0.0)


def test_effective_hamiltonian_derived_frequencies():
    h = EffectiveHamiltonian(6.0, 4.0, 0.3, 2.0)
    assert h.omega_eff == math.hypot(4.0, 3.0)
    assert h.omega_t == pytest.approx(math.pi)
    assert h.rotation_angle == pytest.approx(10.0)
    assert h.sideband_plus == pytest.approx(0.5 * math.pi + 5.0)
    assert h.sideband_minus == pytest.approx(0.5 * math.pi - 5.0)
    m = h.as_matrix()
    assert np.allclose(m, m.conj().T)
    assert m[1, 1] == pytest.approx(3.0)


def test_spectral_model_evaluates_offset_plus_cosines():
    model = SpectralModel(
        0.5,
        (
            SpectralComponent(2.0, 0.25, 0.5, "sideband", 0),
            SpectralComponent(3.0, 0.1, -0.2, "harmonic", 1),
        ),
    )
    t = np.array([0.0, 0.7, 1.9])
    want = 0.5 + 0.25 * np.cos(2.0 * t - 0.5) + 0.1 * np.cos(3.0 * t + 0.2)
    assert np.allclose(model.evaluate(t), want)


def test_beat_prediction_evaluates_two_tone_model():
    bp = BeatPrediction(0.9, 1.0, 0.1, 0.3, 1)
    t = np.array([0.0, 1.3, 5.0])
    want = 0.5 * (np.sin(0.9 * (t - 0.3)) ** 2 + np.sin(1.0 * (t - 0.3)) ** 2)
    assert np.allclose(bp.evaluate(t), want)


def test_beat_flag_requires_close_but_distinct_tones():
    assert BeatPrediction(0.9, 1.0, 0.1, 0.0, 1).is_beat
    # a degenerate pair is a single tone, not a beat
    assert not BeatPrediction(1.0, 1.0, 0.0, 0.0, 2).is_beat
    # widely separated tones do not beat
    assert not BeatPrediction(0.2, 1.0, 0.8, 0.0, 1).is_beat


def test_beat_prediction_spectral_form_matches_direct_evaluation():
    bp = BeatPrediction(0.9, 1.0, 0.1, 0.3, 1)
    # sin^2(x) = (1 - cos 2x)/2, so P = 1/2 - sum of cos(2 varpi (t - t_p))/4
    model = SpectralModel(0.5, tuple(
        SpectralComponent(2.0 * w, 0.25, _fold_angle(2.0 * w * bp.t_p + math.pi), "sideband", None)
        for w in (bp.varpi_1, bp.varpi_1_prime)
    ))
    t = np.linspace(0.0, 40.0, 400)
    assert np.allclose(model.evaluate(t), bp.evaluate(t), atol=1e-12)
