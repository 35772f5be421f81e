"""End-to-end checks of exactness, reconstruction, regressions, and speed.

Each test states one headline guarantee of the package and runs it at full
scale, so a green run here is the complete sign-off.
"""

import functools
import math
import time

import numpy as np
import scipy.linalg

from stepdrive import (
    DriveStep,
    PulseSequence,
    SpectralComponent,
    SpectralModel,
    beat_prediction,
    effective_hamiltonian,
    effective_with_jump,
    evolve,
    fourier_closed_form_two_step,
    intra_period,
    jump_sequence,
    micromotion,
    model_error,
    period_propagator,
    phase_from_beat,
    step_propagator,
    transition_probabilities,
    validate,
)
from stepdrive.oracle import brute_force_evolve, envelope_extract
from stepdrive.spectrum import _aligned_signal

from helpers import detuned_pair, quarter_cycle_sequence, resonant_plus_detuned

EVOLUTION_TOL = 1e-10
ENSEMBLE_BUDGET_SECONDS = 30.0
UNITARITY_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
ENVELOPE_SUP_TOL = 0.05
SINGLE_TONE_BOUND = 0.05
MULTI_TONE_BOUND = 0.10
WORKED_EXAMPLE_ABS = 0.01
EIGHT_STEP_BOUND = 0.066
SEVEN_STEP_BOUND = 0.082
PHASE_REL_TOL = 0.05
CDT_CEILING = 0.03
SPEEDUP_FLOOR = 100.0
FLATNESS_FACTOR = 2.0


@functools.lru_cache(maxsize=1)
def _random_ensemble_results():
    """Worst evolve-vs-oracle deviation, worst unitarity defect, runtime."""
    rng = np.random.default_rng(20260819)
    worst_diff = 0.0
    worst_defect = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        eps = np.exp(rng.uniform(np.log(0.01), np.log(100.0), n))
        dmag = np.exp(rng.uniform(np.log(0.01), np.log(100.0), n))
        deltas = dmag * rng.choice([-1.0, 1.0], n)
        thetas = rng.uniform(-np.pi, np.pi, n)
        taus = np.exp(rng.uniform(np.log(0.01), np.log(100.0), n))
        seq = validate(PulseSequence.from_arrays(deltas, eps, thetas, taus))
        t = float(rng.uniform(0.0, 50.0)) * seq.period
        coeffs = evolve(seq, t)
        diff = np.max(np.abs(np.asarray(coeffs.as_matrix()) - brute_force_evolve(seq, t)))
        worst_diff = max(worst_diff, float(diff))
        worst_defect = max(worst_defect, coeffs.unitarity_defect)
    elapsed = time.perf_counter() - start
    return worst_diff, worst_defect, elapsed


def test_evolution_matches_brute_force_on_random_drives():
    worst_diff, _, elapsed = _random_ensemble_results()
    assert worst_diff < EVOLUTION_TOL
    assert elapsed < ENSEMBLE_BUDGET_SECONDS


def test_evolution_stays_unitary_on_random_drives():
    _, worst_defect, _ = _random_ensemble_results()
    assert worst_defect < UNITARITY_TOL


def test_effective_generators_rebuild_the_propagators():
    rng = np.random.default_rng(77)
    worst_period = 0.0
    worst_intra = 0.0
    kept = 0
    while kept < 100:
        n = int(rng.integers(1, 6))
        eps = np.exp(rng.uniform(np.log(0.05), np.log(20.0), n))
        deltas = np.exp(rng.uniform(np.log(0.05), np.log(20.0), n))
        deltas = deltas * rng.choice([-1.0, 1.0], n)
        thetas = rng.uniform(-np.pi, np.pi, n)
        taus = np.exp(rng.uniform(np.log(0.05), np.log(5.0), n))
        seq = validate(PulseSequence.from_arrays(deltas, eps, thetas, taus))
        per = period_propagator(seq)
        # skip rotations too close to the logarithm branch cut
        if math.sqrt(max(0.0, 1.0 - per.a**2)) < 2e-4:
            continue
        h = effective_hamiltonian(seq)
        rebuilt = scipy.linalg.expm(-1j * h.as_matrix() * seq.period)
        worst_period = max(
            worst_period, float(np.max(np.abs(rebuilt - per.as_matrix())))
        )
        tprime = float(rng.uniform(0.0, 1.0)) * seq.period
        if tprime == 0.0:
            tprime = 0.5 * seq.period
        m = micromotion(seq, tprime)
        rebuilt = scipy.linalg.expm(-1j * m.as_matrix())
        worst_intra = max(
            worst_intra,
            float(np.max(np.abs(rebuilt - intra_period(seq, tprime).as_matrix()))),
        )
        kept += 1
    assert worst_period < RECONSTRUCTION_TOL
    assert worst_intra < RECONSTRUCTION_TOL


def test_jump_family_envelopes_follow_the_effective_drive():
    base = detuned_pair()
    per_step = 96
    for lam in (0.0, 0.33, 0.66):
        heff = effective_with_jump(base, lam, branch="positive_a")
        seq = jump_sequence(base, lam)
        envelope_period = math.pi / heff.omega_eff
        n_periods = int(math.ceil(10.0 * envelope_period / seq.period))
        times = _aligned_signal(seq, n_periods * seq.period, per_step)[0][1:]
        probs = transition_probabilities(seq, times)
        model_step = DriveStep(heff.delta_eff, heff.epsilon_eff, heff.theta_eff, 1.0)
        model = np.array(
            [step_propagator(model_step, t).transition_probability for t in times]
        )
        # block maxima over one drive period track the envelope of each signal
        per_window = len(seq.steps) * per_step
        n_windows = times.size // per_window
        env = probs[: n_windows * per_window].reshape(n_windows, per_window).max(axis=1)
        env_model = (
            model[: n_windows * per_window].reshape(n_windows, per_window).max(axis=1)
        )
        assert float(np.max(np.abs(env - env_model))) < ENVELOPE_SUP_TOL


def _two_step(delta1, delta2, tau1, tau2):
    return validate(
        PulseSequence.from_arrays(
            (delta1, delta2), (1.0, 1.0), (0.0, 0.0), (tau1, tau2)
        )
    )


def _row_model(sequence, offset, rows):
    """Spectral model from printed rows of amp*cos(W*t + arg) terms."""
    h = effective_hamiltonian(sequence, branch="positive_a")
    w = h.omega_eff
    wt = sequence.omega_t
    frequency = {
        "2w": 2.0 * w,
        "2w-": wt - 2.0 * w,
        "2w+": wt + 2.0 * w,
        "2wT": 2.0 * wt,
        "2w+2wT": 2.0 * w + 2.0 * wt,
    }
    components = []
    for label, amp, arg in rows:
        phase = -arg
        if amp < 0.0:
            amp = -amp
            phase += math.pi
        phase = math.remainder(phase, 2.0 * math.pi)
        if phase <= -math.pi:
            phase = math.pi
        components.append(
            SpectralComponent(frequency[label], amp, phase, "row", None)
        )
    return SpectralModel(offset, tuple(components))


# ten reduced models over two-step drives: (sequence, offset, rows, bound)
TABLE_ROWS = (
    (_two_step(30.0, 40.0, 0.0627, 0.1092), 0.25,
     (("2w", -0.25, 0.0),), SINGLE_TONE_BOUND),
    (_two_step(20.0, 25.0, 0.0938, 0.1748), 0.4,
     (("2w", -0.4, 0.0),), SINGLE_TONE_BOUND),
    (_two_step(20.0, 30.0, 0.0938, 0.1464), 0.5,
     (("2w", -0.5, 0.0),), SINGLE_TONE_BOUND),
    (_two_step(3.0, 2.19, 0.2066, 1.6729), 0.346,
     (("2w", -0.1368, -0.3628), ("2w-", -0.28, -0.1416), ("2wT", -0.06, -0.9692)),
     MULTI_TONE_BOUND),
    (_two_step(3.0, 1.0, 1.6461, 0.3), 0.5,
     (("2w", -0.3465, -0.1942), ("2w-", 0.0727, 0.54), ("2w+", -0.2256, 0.3038)),
     MULTI_TONE_BOUND),
    (_two_step(3.0, 2.0, 2.1439, 0.1535), 0.1972,
     (("2w", 0.05357, 0.3389), ("2wT", -0.1, -0.22), ("2w+", -0.1524, 0.237)),
     MULTI_TONE_BOUND),
    (_two_step(0.0, 40.0, 0.3142, 3.1377), 0.5,
     (("2w", -0.4919, 0.2887), ("2w-", 0.05268, -0.5747), ("2w+", -0.04523, 0.0)),
     MULTI_TONE_BOUND),
    (_two_step(0.0, 30.0, 0.4126, 2.5279), 0.3375,
     (("2w", -0.3241, 0.4284), ("2w-", -0.05774, -4.016), ("2w+", -0.04869, 0.0)),
     MULTI_TONE_BOUND),
    (_two_step(0.0, 50.0, 0.2328, 1.5191), 0.1916,
     (("2w", -0.1873, 0.3242), ("2w-", 0.02425, -0.7375), ("2w+", -0.02175, 0.0)),
     MULTI_TONE_BOUND),
    (_two_step(0.0, 40.0, 1.5708, 3.1377), 0.5,
     (("2w", -0.6189, 1.048), ("2w+2wT", -0.06237, -1.044), ("2w+", -0.1667, 0.0)),
     MULTI_TONE_BOUND),
)


def test_tabulated_reduced_models_stay_accurate():
    for sequence, offset, rows, bound in TABLE_ROWS:
        model = _row_model(sequence, offset, rows)
        assert model_error(sequence, model).value <= bound


def test_worked_example_recovers_quarter_amplitudes():
    model = fourier_closed_form_two_step(resonant_plus_detuned())
    assert abs(model.offset - 0.5) < WORKED_EXAMPLE_ABS
    lines = {c.index: c for c in model.components if c.family == "sideband"}
    assert abs(lines[0].amplitude - 0.25) < WORKED_EXAMPLE_ABS
    assert abs(lines[-1].amplitude - 0.25) < WORKED_EXAMPLE_ABS


def test_many_step_beat_models_meet_their_bounds():
    eps8 = (1.0, 1.8, 1.5, 1.1, 1.2, 1.6, 1.9, 1.3)
    d8 = (0.0, 67.0, 60.0, 46.0, 83.0, 36.0, 40.0, 91.0)
    d8b = (0.0, 67.0, 60.0, 46.0, 83.0, 0.0, 40.0, 91.0)
    for deltas, n_resonant in ((d8, 1), (d8b, 2)):
        seq = quarter_cycle_sequence(eps8, deltas)
        prediction = beat_prediction(seq)
        assert prediction.n_resonant == n_resonant
        assert model_error(seq, prediction).value <= EIGHT_STEP_BOUND

    eps9 = (1.0, 1.8, 1.5, 1.1, 1.2, 1.6, 1.9)
    d9b = (0.0, 55.0, 62.0, 47.0, 88.0, 35.0, 0.0)
    d9c = (0.0, 0.0, 62.0, 47.0, 88.0, 35.0, 0.0)
    for deltas, n_resonant in ((d9b, 2), (d9c, 3)):
        seq = quarter_cycle_sequence(eps9, deltas, half_cycle=(0,))
        prediction = beat_prediction(seq)
        assert prediction.n_resonant == n_resonant
        assert model_error(seq, prediction).value <= SEVEN_STEP_BOUND


def test_phase_metrology_round_trip_recovers_the_phase():
    for theta2 in (0.0, math.pi / 8, math.pi / 6, math.pi / 4, math.pi / 3):
        seq = resonant_plus_detuned(theta2=theta2)
        times = _aligned_signal(seq, 400.0 * seq.period, 8)[0]
        probs = transition_probabilities(seq, times)
        fit = envelope_extract(times, probs)
        candidates = phase_from_beat(fit.omega_b, seq)
        best = min(candidates, key=lambda c: abs(abs(c) - theta2))
        # a zero phase difference is judged against the metrology range
        scale = theta2 if theta2 > 0.0 else 0.5 * math.pi
        assert abs(abs(best) - theta2) / scale < PHASE_REL_TOL


def test_opposed_phases_suppress_transitions_for_long_times():
    seq = PulseSequence.from_arrays(
        [0.0, 0.0], [1.0, 1.0], [0.0, math.pi], [0.05 * math.pi, 0.05 * math.pi]
    )
    times = _aligned_signal(seq, 100.0 * seq.period, 64)[0]
    assert float(transition_probabilities(seq, times).max()) < CDT_CEILING


def _best_of(repetitions, calls, func):
    best = math.inf
    for _ in range(repetitions):
        start = time.perf_counter()
        for _ in range(calls):
            func()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def test_evolution_cost_beats_brute_force_and_stays_flat():
    seq = validate(
        PulseSequence.from_arrays(
            (3.0, -11.0, 0.0, 27.0),
            (1.0, 2.5, 0.6, 4.0),
            (0.0, 1.1, -2.0, 2.9),
            (0.7, 0.23, 1.9, 0.11),
        )
    )
    t_mid = (1.0e5 + 0.3) * seq.period
    fast = _best_of(7, 100, lambda: evolve(seq, t_mid))
    start = time.perf_counter()
    brute_force_evolve(seq, t_mid)
    brute = time.perf_counter() - start
    assert brute / fast >= SPEEDUP_FLOOR

    t_small = (10.0 + 0.3) * seq.period
    t_large = (1.0e6 + 0.3) * seq.period
    small = _best_of(7, 100, lambda: evolve(seq, t_small))
    large = _best_of(7, 100, lambda: evolve(seq, t_large))
    assert max(small, large) < FLATNESS_FACTOR * min(small, large)
