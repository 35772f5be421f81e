"""Line spectra: closed form vs quadrature, reduced models, model error."""

import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from stepdrive import (
    PulseSequence,
    SpectralComponent,
    SpectralModel,
    dominant_model,
    effective_hamiltonian,
    fourier_closed_form_two_step,
    fourier_numeric,
    model_error,
    piecewise_coefficients,
    period_propagator,
    transition_probabilities,
    two_step_empirical_model,
    write_csv,
)
from stepdrive.oracle import numeric_fourier
from stepdrive import spectrum
from stepdrive.spectrum import _aligned_signal, _comb, _line_table, _window_integral

from helpers import (
    large_phase_drive,
    mp_propagator,
    oracle_projection,
    quarter_cycle_sequence,
    random_sequence,
    resonant_plus_detuned,
)

# frozen infinite-window lines of the resonant-plus-detuned pair
RPD_OFFSET = 0.49999999999999994
RPD_LINES = (
    # (family, index, frequency, amplitude, phase)
    ("sideband", -1, 1.9654586822323394, 0.2597714949420412, 3.114463966053745),
    ("sideband", 0, 1.8442914738226523, 0.2515920499872366, 3.019299463104781),
    ("sideband", 1, 5.654041629877645, 0.00944674621769675, -0.27171506850607385),
)

CLOSED_VS_NUMERIC_AMP = 1e-5
CLOSED_VS_NUMERIC_PHASE = 1e-4
STRONG_LINE = 1e-3

# an infinite-window line against the oracle's projection over this many
# periods; leakage from the neighbouring lines falls like 1/(K*T*spacing)
LONG_WINDOW = 65536
LONG_WINDOW_TOL = 1e-3

# a finite-window spectrum against the oracle's projection over the same window
SAME_WINDOW_TOL = 1e-6


def _aligned_bound(seq, t_end):
    # the line tables evaluate the exact points k*T + s_j, the propagator
    # the rounded times fl(s_j + k*T): they differ by the slope of P, at
    # most 2*E_max, times that rounding
    e_max = max(step.energy for step in seq.steps)
    return 2e-13 + 4.0 * e_max * math.ulp(t_end)


def _three_half_turns():
    # three steps of area pi each: U(T) = -1 up to rounding, Theta next to pi
    seq = quarter_cycle_sequence([1.0, 2.0, 0.5], [0.0, 4.0, 1.0], half_cycle=(0, 1, 2))
    assert period_propagator(seq).a < -1.0 + 1e-12
    return seq


@pytest.mark.parametrize("seq", [
    PulseSequence.from_arrays([2.0], [1.0], [0.3], [1.1]),
    PulseSequence.from_arrays([0.0, 30.0, -1.5], [1.0, 2.0, 0.7], [0.0, 0.4, -1.1],
                              [0.9, 0.5, 1.3]),
    PulseSequence.from_arrays(np.linspace(-6.0, 8.0, 8), np.linspace(0.3, 3.0, 8),
                              np.linspace(-2.0, 2.5, 8), np.linspace(0.2, 1.6, 8)),
    PulseSequence.from_arrays([1.0, 0.0, -3.0], [1.0, 0.0, 2.0], [0.0, 0.0, 0.5],
                              [0.8, 0.6, 0.3]),
    _three_half_turns(),
    PulseSequence.from_arrays([0.0], [1.0], [0.0], [math.pi]),
], ids=["one_step", "three_steps", "eight_steps", "null_step", "minus_one", "half_turn"])
def test_piecewise_model_reconstructs_any_step_count(seq):
    K = 9
    coeffs = piecewise_coefficients(seq, K)
    assert coeffs.shape == (len(seq.steps), 3, K)
    # the line tables on the aligned grid against the propagator
    times, got = _aligned_signal(seq, K, 8)
    bound = _aligned_bound(seq, K * seq.period)
    assert np.max(np.abs(got - transition_probabilities(seq, times))) <= bound


def test_aligned_signal_matches_the_propagator_on_its_grid():
    rng = np.random.default_rng(41)
    for i in range(60):
        seq = random_sequence(rng, lo=0.1, hi=10.0)
        periods = 40 if i % 2 else 17 + round(rng.uniform(0.05, 0.95))
        times, got = _aligned_signal(seq, periods, 16)
        bound = _aligned_bound(seq, periods * seq.period)
        assert np.max(np.abs(got - transition_probabilities(seq, times))) <= bound


def test_aligned_signal_matches_mpmath_at_the_grid_points():
    # sample j of period k is P at the exact point k*T + s_j, and the end of
    # a period is offset 0 of the next one; the offsets are rebuilt here as
    # _aligned_signal lays them out
    rng = np.random.default_rng(43)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(8):
            seq = random_sequence(rng, lo=0.1, hi=10.0)
            bounds = seq.boundaries
            pairs = list(zip(bounds, bounds[1:]))
            base = np.concatenate([np.linspace(t0, t1, 5)[1:] for t0, t1 in pairs])
            points = [(0, 0.0)]
            for k in range(3):
                points += [(k, s) for s in base[:-1]] + [(k + 1, 0.0)]
            _, got = _aligned_signal(seq, 3, 4)
            assert len(points) == got.size
            for (k, offset), value in zip(points, got):
                _, _, c, d = mp_propagator(seq, k, offset)
                worst = max(worst, abs(float(value - (c**2 + d**2))))
    assert worst < 1e-13


def test_resonant_single_step_has_one_exact_line():
    # P12(t) = sin(eps*t)^2 = 1/2 - cos(2*eps*t)/2: one tone, amplitude 1/2
    seq = PulseSequence.from_arrays([0.0], [1.0], [0.0], [0.5 * math.pi])
    model = fourier_numeric(seq, l_range=(-2, 2), K=256)
    assert model.offset == pytest.approx(0.5, abs=1e-12)
    line = model.components[0]
    assert line.frequency == pytest.approx(2.0, abs=1e-12)
    assert line.amplitude == pytest.approx(0.5, abs=1e-10)
    assert line.phase == pytest.approx(math.pi, abs=1e-9)
    assert line.family == "sideband"
    # every other retained line is noise-level
    assert all(c.amplitude < 1e-10 for c in model.components[1:])


def test_resonant_detuned_pair_frozen_lines():
    model = fourier_closed_form_two_step(resonant_plus_detuned())
    assert model.offset == pytest.approx(RPD_OFFSET, abs=1e-12)
    for want, got in zip(RPD_LINES, model.components):
        family, index, freq, amp, phase = want
        assert got.family == family
        assert got.index == index
        assert got.frequency == pytest.approx(freq, rel=1e-14)
        assert got.amplitude == pytest.approx(amp, rel=1e-12)
        assert got.phase == pytest.approx(phase, rel=1e-10)


def test_resonant_detuned_pair_lines_match_a_long_oracle_window():
    # independent of the frozen values above: the brute-force signal
    # projected over a window long enough to separate the lines
    seq = resonant_plus_detuned()
    model = fourier_closed_form_two_step(seq)
    top = model.components[:3]
    z = oracle_projection(seq, [0.0] + [c.frequency for c in top], LONG_WINDOW)
    assert model.offset == pytest.approx(0.5 * z[0].real, abs=LONG_WINDOW_TOL)
    for comp, zz in zip(top, z[1:]):
        assert comp.amplitude == pytest.approx(abs(zz), abs=LONG_WINDOW_TOL)


def test_slow_two_step_drive_top_line_matches_a_long_oracle_window():
    # a slow drive whose strongest line needs about 200 periods for one
    # oscillation, so windows of a few hundred periods are far from the limit
    seq = PulseSequence.from_arrays(
        [-0.12182876106764555, -0.11519778135206327],
        [0.019069523424595395, 0.12227882206084136],
        [0.2093887759383418, 2.5171675618001754],
        [0.014059490937753867, 0.11702189369386991],
    )
    model = fourier_closed_form_two_step(seq)
    top = model.components[0]
    z = oracle_projection(seq, [0.0, top.frequency], LONG_WINDOW)
    assert model.offset == pytest.approx(0.5 * z[0].real, abs=LONG_WINDOW_TOL)
    assert top.amplitude == pytest.approx(abs(z[1]), abs=LONG_WINDOW_TOL)


def test_large_phase_step_matches_the_oracle_window():
    # one step turns by E*tau = 300 rad; the projection has no sampling
    # grid that could alias it
    seq = large_phase_drive()
    model = fourier_numeric(seq)
    z = oracle_projection(seq, [0.0] + [c.frequency for c in model.components], 256)
    assert model.offset == pytest.approx(0.5 * z[0].real, abs=SAME_WINDOW_TOL)
    for comp, zz in zip(model.components, z[1:]):
        assert comp.amplitude == pytest.approx(abs(zz), abs=SAME_WINDOW_TOL)


def test_closed_form_matches_quadrature():
    seq = resonant_plus_detuned()
    closed = fourier_closed_form_two_step(seq, l_range=(-3, 3), K=256)
    times = np.linspace(0.0, 256 * seq.period, 256 * 2000 + 1)
    values = transition_probabilities(seq, times)
    offset = 0.5 * numeric_fourier(times, values, 0.0).real
    assert closed.offset == pytest.approx(offset, abs=1e-12)
    matched = 0
    for comp in closed.components:
        z = numeric_fourier(times, values, comp.frequency)
        assert comp.amplitude == pytest.approx(abs(z), abs=CLOSED_VS_NUMERIC_AMP)
        if comp.amplitude > STRONG_LINE:
            phase = math.atan2(z.imag, z.real)
            assert comp.phase == pytest.approx(phase, abs=CLOSED_VS_NUMERIC_PHASE)
            matched += 1
    assert matched >= 3


def test_spectral_weight_matches_signal_variance():
    seq = resonant_plus_detuned()
    model = fourier_closed_form_two_step(seq, l_range=(-6, 6))
    weight = 0.5 * sum(c.amplitude**2 for c in model.components)
    # a probability signal can carry at most variance 1/4
    assert weight <= 0.25 + 1e-9
    times = np.linspace(0.0, 4096 * seq.period, 2_000_001)
    signal = transition_probabilities(seq, times)
    variance = float(np.mean((signal - np.mean(signal)) ** 2))
    assert weight == pytest.approx(variance, abs=5e-3)


def test_degenerate_probe_substitutes_window_limit():
    # identical resonant steps: the probe at 2*E lands exactly on the
    # window tone, where omega - 2*E = 0 and the window integral is tau,
    # the removable point sinc(0) = 1 of its one closed form
    seq = PulseSequence.from_arrays(
        [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.25 * math.pi, 0.25 * math.pi]
    )
    model = fourier_closed_form_two_step(seq, l_range=(-2, 2), K=256)
    line = model.components[0]
    assert line.frequency == pytest.approx(2.0, abs=1e-12)
    assert line.amplitude == pytest.approx(0.5, abs=1e-10)


def test_window_integral_matches_mpmath_from_1e_300_to_1e300():
    # G = integral_0^tau exp(1j*x*s) ds against its 50-digit value on the
    # float x and tau, with y = x*tau/2: one form for every x, so the error
    # is the rounding of y and of the closed form, however small x*tau is
    rng = np.random.default_rng(27)
    exponents = range(-300, 301, 25)
    grid = [(x, t) for x in exponents for t in exponents]
    drawn = rng.uniform(-300.0, 300.0, (2000, 2))
    # probes near a window tone at ordinary scales, where cancellation hurt
    near = np.column_stack([rng.uniform(-9.0, 3.0, 2000), rng.uniform(-2.0, 2.0, 2000)])
    cases = 0
    for x_exp, tau_exp in [*grid, *drawn.tolist(), *near.tolist()]:
        tau = 10.0 ** tau_exp
        for x in (10.0 ** x_exp, -(10.0 ** x_exp)):
            y = 0.5 * x * tau
            if not math.isfinite(y):
                continue
            with mpmath.workdps(50):
                half = mpmath.mpf(x) * mpmath.mpf(tau) / 2
                exact = mpmath.mpf(tau) * mpmath.sinc(half) * mpmath.expj(half)
                got = spectrum._phase_integral(x, tau)
                miss = float(abs(mpmath.mpc(got) - exact))
            assert miss <= 4.0 * 2.0**-52 * tau * (1.0 + abs(y)), (x, tau)
            cases += 1
    assert cases > 5000
    for zero in (0.0, -0.0):
        for tau in (1e-300, 1.0, 1e300):
            assert spectrum._phase_integral(zero, tau) == tau


def test_subnormal_rotation_angle_gives_finite_lines():
    # sin(Theta) of U(T) is about 2.5e-322, so 1/sin(Theta) overflows; the
    # line tables normalise the axis of U(T) instead
    seq = PulseSequence.from_arrays([0.0], [1e-323], [math.pi], [25.46])
    tables, theta, _ = _line_table(seq)
    assert np.isfinite(tables).all() and theta > 0.0
    for K in (256, None):
        model = fourier_numeric(seq, (-4, 4), K=K)
        assert model.components
        assert all(
            math.isfinite(x)
            for x in [model.offset] + [v for c in model.components for v in (c.amplitude, c.phase)]
        )
    assert np.isfinite(_aligned_signal(seq, 40, 64)[1]).all()


def test_unresolved_lines_are_merged_not_double_counted():
    # near-degenerate pair: 2*omega_eff almost equals omega_T - 2*omega_eff;
    # the window cannot resolve them, so exactly one merged line survives
    # and the spectral weight stays physical
    seq = PulseSequence.from_arrays(
        [0.0, 40.0], [1.0, 1.0], [0.0, 0.0], [1.5708, 3.1377]
    )
    model = fourier_closed_form_two_step(seq)
    freqs = sorted(c.frequency for c in model.components)
    min_gap = min(b - a for a, b in zip(freqs, freqs[1:]))
    assert min_gap >= math.pi / (1024 * seq.period)
    weight = 0.5 * sum(c.amplitude**2 for c in model.components)
    assert weight <= 0.25 + 1e-9
    assert 0.19 < weight < 0.22
    amps = [c.amplitude for c in model.components[:3]]
    assert 0.60 < amps[0] < 0.63
    assert amps[1] == pytest.approx(0.1666, abs=2e-3)
    assert amps[2] == pytest.approx(0.0624, abs=2e-3)
    # a line closer to zero frequency than the window resolves is part of
    # the offset: two resonant steps of total area 2*pi - 1e-4 (exact line
    # weight 0.125), and the slow one-step drive library_analysis/28 of
    # bench seed 1, 2*E*tau = 0.0065 over a 256-period window
    slow_pair = PulseSequence.from_arrays(
        [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [math.pi - 5e-5, math.pi - 5e-5]
    )
    slow_step = PulseSequence.from_arrays(
        [-0.01397412042195572], [0.04097946477348664], [2.87756804634639],
        [0.0787674039145761],
    )
    for seq, K in ((slow_pair, None), (slow_pair, 1024), (slow_step, 256)):
        if len(seq.steps) == 2:
            # a sideband probe meets the window tone 2*E of a resonant step
            model = fourier_closed_form_two_step(seq, K=K)
        else:
            model = fourier_numeric(seq, K=K)
        resolution = math.pi / ((K or 1024) * seq.period)
        assert min(c.frequency for c in model.components) >= resolution
        assert 0.5 * sum(c.amplitude**2 for c in model.components) <= 0.25 + 1e-9


def _project_then_assemble(sequence, l_range, K):
    """The line spectrum built the long way, as a reference: every probe is
    projected first, then folded, deduplicated against every kept line in
    turn and sorted.  Returns the offset and (frequency, amplitude, phase,
    family, index) rows."""
    period = sequence.period
    heff = effective_hamiltonian(sequence, branch="positive_a")
    tables, theta, _ = _line_table(sequence)
    starts = sequence.boundaries[:-1]

    def project(omega):
        phi = omega * period
        plus, minus = _comb(phi + 2.0 * theta, K), _comb(phi - 2.0 * theta, K)
        sums = np.array([_comb(phi, K), 0.5 * (plus + minus), -0.5j * (plus - minus)])
        windows = np.array([
            _window_integral(omega, 2.0 * step.energy, step.tau) for step in sequence.steps
        ])
        per_window = np.einsum("nu,nuv,v->n", windows, tables, sums)
        return complex(2.0 / period * (np.exp(1j * omega * starts) @ per_window))

    lmin, lmax = l_range
    omega_t = sequence.omega_t
    probes = [("sideband", l, 2.0 * heff.omega_eff + l * omega_t) for l in range(lmin, lmax + 1)]
    probes += [("harmonic", l + 1, (l + 1) * omega_t) for l in range(lmin, lmax + 1)]
    raw = [(family, l, freq, project(freq)) for family, l, freq in probes if freq != 0.0]
    cap = 2.0 * math.pi / sequence.min_tau
    dedup = (spectrum._RESOLUTION if K is None else math.pi / K) / period
    rows, kept = [], []
    for family, l, freq, z in raw:
        if freq < 0.0:
            freq, z = -freq, z.conjugate()
        if freq < dedup or freq > cap * (1.0 + 1e-12):
            continue
        if any(abs(freq - other) < dedup for other in kept):
            continue
        kept.append(freq)
        rows.append((freq, abs(z), math.atan2(z.imag, z.real), family, l))
    rows.sort(key=lambda row: -row[1])
    return 0.5 * project(0.0).real, rows


def _spectrum_drive(rng, kind):
    if kind == "quarter_cycle":
        n = int(rng.integers(1, 9))
        eps = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
        deltas = rng.choice([0.0, 40.0, -3.0], n)
        return quarter_cycle_sequence(list(eps), list(deltas), list(rng.uniform(-3.0, 3.0, n)))
    seq = random_sequence(rng)
    if kind == "null_step":
        steps = list(seq.steps)
        i = int(rng.integers(len(steps)))
        steps[i] = steps[i]._replace(delta=0.0, epsilon=0.0)
        seq = PulseSequence.from_arrays(*zip(*steps))
    return seq


@seed(29)
@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "null_step", "quarter_cycle"]),
    st.sampled_from(["folded", "above_cap"]),
    st.sampled_from([None, 1, 256, 4096]),
)
def test_line_spectrum_matches_project_then_assemble_bit_for_bit(draw_seed, kind, where, K):
    # lines are chosen by frequency before they are projected; the result
    # is the reference's, every bit of every field, zero signs included
    rng = np.random.default_rng(draw_seed)
    seq = _spectrum_drive(rng, kind)
    width = int(rng.integers(0, 13))
    if where == "folded":
        # negative indices fold sidebands and harmonics onto positive ones
        l_range = (-width - int(rng.integers(0, 4)), width)
    else:
        # every probe above the cap 2*pi/min(tau_n)
        lmin = math.ceil(seq.period / seq.min_tau) + 2
        l_range = (lmin, lmin + width)
    offset, rows = _project_then_assemble(seq, l_range, K)
    model = spectrum._line_spectrum(seq, l_range, K)
    assert model.offset.hex() == offset.hex()
    got = [
        (c.frequency.hex(), c.amplitude.hex(), c.phase.hex(), c.family, c.index)
        for c in model.components
    ]
    assert got == [(f.hex(), a.hex(), p.hex(), family, l) for f, a, p, family, l in rows]
    if where == "above_cap":
        assert model.components == ()


def test_only_probes_that_become_lines_are_projected(monkeypatch):
    # the README drive with tau = (1, 1e-4): of the 32,002 probes of a
    # +-8000 spectrum, the 7,999 harmonics that fold onto others and the
    # zero harmonic are dropped before projection; one window integral per
    # step for each of the 24,002 lines and for the offset
    calls = []

    def counted(omega, tone, tau):
        calls.append(omega)
        return _window_integral(omega, tone, tau)

    monkeypatch.setattr(spectrum, "_window_integral", counted)
    seq = PulseSequence.from_arrays([0.0, 40.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1e-4])
    model = fourier_closed_form_two_step(seq, l_range=(-8000, 8000))
    assert len(model.components) == 24_002
    assert len(calls) == 2 * 24_003


def test_full_model_stays_within_probability_bounds():
    seq = resonant_plus_detuned()
    model = fourier_closed_form_two_step(seq, l_range=(-6, 6))
    times = np.linspace(0.0, 40.0 * seq.period, 20001)
    values = model.evaluate(times)
    assert values.min() > -0.05
    assert values.max() < 1.05


def test_closed_form_input_validation():
    single = PulseSequence.from_arrays([0.0], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="two steps"):
        fourier_closed_form_two_step(single)
    seq = resonant_plus_detuned()
    with pytest.raises(ValueError, match="at least one period"):
        fourier_closed_form_two_step(seq, K=0)
    with pytest.raises(ValueError, match="at least one period"):
        fourier_numeric(seq, K=0)
    with pytest.raises(ValueError, match="at most 1000000 periods"):
        fourier_numeric(seq, K=10**6 + 1)
    with pytest.raises(ValueError, match="at most 1000000 periods"):
        fourier_closed_form_two_step(seq, K=10**6 + 1)
    with pytest.raises(ValueError, match="empty index range"):
        fourier_numeric(seq, l_range=(2, 1))
    with pytest.raises(ValueError, match="at least one period"):
        piecewise_coefficients(seq, 0)


def test_dominant_model_truncates_sorted_components():
    model = SpectralModel(
        0.5,
        (
            SpectralComponent(1.0, 0.4, 0.0, "sideband", 0),
            SpectralComponent(2.0, 0.2, 0.0, "sideband", 1),
            SpectralComponent(3.0, 0.05, 0.0, "harmonic", 1),
            SpectralComponent(4.0, 0.01, 0.0, "harmonic", 2),
        ),
    )
    reduced = dominant_model(model, max_terms=3)
    # the floor drops the 0.01 line even though three terms are allowed
    assert [c.amplitude for c in reduced.components] == [0.4, 0.2, 0.05]
    assert dominant_model(model, max_terms=1).components == model.components[:1]
    assert dominant_model(model, max_terms=0).components == ()
    assert dominant_model(model, floor=0.3).components == model.components[:1]
    with pytest.raises(ValueError, match="non-negative"):
        dominant_model(model, max_terms=-1)


def test_empirical_model_equal_tone_weights():
    # resonant + detuned quarter cycles: dynamical phases 1/2 each, weight
    # p = 1, so lam = 1/2 and the two tones carry 1/4 each
    seq = resonant_plus_detuned()
    h = effective_hamiltonian(seq, branch="positive_a")
    model = two_step_empirical_model(seq)
    assert model.offset == 0.5
    assert len(model.components) == 2
    freqs = sorted(c.frequency for c in model.components)
    assert freqs[0] == pytest.approx(2.0 * h.omega_eff, rel=1e-12)
    assert freqs[1] == pytest.approx(2.0 * h.sideband_minus, rel=1e-12)
    for comp in model.components:
        assert comp.amplitude == pytest.approx(0.25, abs=1e-12)
    assert model_error(seq, model).value < 0.05


def test_empirical_model_collapses_to_single_tone():
    # merged resonant drive with phase product 1/2: lam = 0 and only the
    # primary tone survives
    seq = PulseSequence.from_arrays(
        [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [math.pi, 0.5 * math.pi]
    )
    model = two_step_empirical_model(seq)
    assert len(model.components) == 1
    assert model.components[0].amplitude == pytest.approx(0.5, abs=1e-12)


def test_empirical_model_input_validation():
    single = PulseSequence.from_arrays([0.0], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="two steps"):
        two_step_empirical_model(single)
    biased = PulseSequence.from_arrays(
        [3.0, 2.19], [1.0, 1.0], [0.0, 0.0], [0.2066, 1.6729]
    )
    with pytest.raises(ValueError, match="effective detuning too large"):
        two_step_empirical_model(biased)
    # the default weight p = max(epsilon_n/E_n)**2 has no value on a null
    # step: its limit depends on how the step becomes null
    null = PulseSequence.from_arrays([0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.5 * math.pi])
    with pytest.raises(ValueError, match=r"^step 1 is null: p = \(epsilon/E\)\*\*2 is undefined$"):
        two_step_empirical_model(null)
    # an explicit weight needs no ratio
    assert two_step_empirical_model(null, p=0.5).offset == 0.5


def test_model_error_self_consistency():
    # the full closed-form model is a faithful reduced description
    seq = resonant_plus_detuned()
    model = fourier_closed_form_two_step(seq, l_range=(-6, 6))
    err = model_error(seq, model)
    assert err.value < 1e-2
    assert err.horizon == pytest.approx(40.0 * seq.period)
    # a wrong model scores badly
    flat = SpectralModel(0.5, ())
    assert model_error(seq, flat).value > 0.1


def test_aligned_times_hit_every_step_boundary():
    # 40.0*T/T rounds to 39.99999999999999 on the one-step drive, whose 40th
    # period is whole all the same
    for seq, periods, per_step in (
        (resonant_plus_detuned(), 2, 4),
        (PulseSequence.from_arrays([0.0], [1.0], [0.0], [1.7000000000000002]), 40, 64),
    ):
        times = _aligned_signal(seq, periods, per_step)[0]
        assert times.size == periods * len(seq.steps) * per_step + 1
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0.0)
        for k in range(periods):
            for bound in seq.boundaries[1:]:
                target = k * seq.period + bound
                assert np.min(np.abs(times - target)) <= 2.0 * math.ulp(target)


def test_write_csv_golden_bytes():
    model = SpectralModel(
        0.5,
        (
            SpectralComponent(2.0, 0.25, math.pi, "sideband", 0),
            SpectralComponent(3.0, 0.125, -0.5, "harmonic", None),
        ),
    )
    out = io.StringIO()
    write_csv(model, out)
    assert out.getvalue() == (
        "# offset = 0.5\n"
        "l,frequency,amplitude,phase,family\n"
        "0,2,0.25,3.1415926535897931,sideband\n"
        ",3,0.125,-0.5,harmonic\n"
    )
