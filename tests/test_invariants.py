"""Metamorphic invariants: exact symmetries of the model as test oracles.

A symmetry costs no more to check at 1e12 periods than at one, and it needs
no reference value: the products of a drive and of its transformed copy
must agree.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from stepdrive import (
    PulseSequence,
    beat_prediction,
    classify,
    dominant_model,
    effective_hamiltonian,
    evolve_many,
    fourier_numeric,
    jump_sequence,
    model_error,
    period_propagator,
)
from stepdrive.phenomena import _last_step_root
from stepdrive.spectrum import _aligned_signal

from helpers import quarter_cycle_sequence, random_sequence


def in_time_unit(seq, s):
    """The same drive with times measured in units 1/s of the old ones:
    tau -> s*tau and (delta, epsilon) -> (delta, epsilon)/s."""
    return PulseSequence.from_arrays(
        [step.delta / s for step in seq.steps],
        [step.epsilon / s for step in seq.steps],
        [step.theta for step in seq.steps],
        [step.tau * s for step in seq.steps],
    )


def bits(x):
    """Exact, comparable form of a float (signed zeros and nan included) or
    of anything built from floats."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    return x


def unit_products(seq, s, times):
    """Every product of a drive given in time unit 1/s, with frequencies
    and durations read back in the unit s = 1, at ``times`` of that unit."""
    out = {}
    for K in (256, None):
        model = fourier_numeric(seq, (-4, 4), K=K)
        out["lines", K] = [model.offset] + [
            (c.frequency * s, c.amplitude, c.phase, c.family, c.index)
            for c in model.components
        ]
        out["eps_m", K] = model_error(seq, dominant_model(model)).value
    out["classify"] = classify(seq).lines()
    out["P12max"] = float(_aligned_signal(seq, 40, 64)[1].max())
    duration = _last_step_root(seq, "durations")
    out["durations"] = None if duration is None else duration / s
    out["phase"] = _last_step_root(seq, "phase")
    out["evolve_many"] = evolve_many(seq, times * s)
    return out


def field_root(seq, field, s):
    """The detuning or coupling root read back in the unit s = 1; None for
    no root, and "subnormal" where the root leaves the normal range in
    either unit, so that scaling it is not exact."""
    root = _last_step_root(seq, field)
    if root is None:
        return None
    if 0.0 < min(abs(root), abs(root * s)) < sys.float_info.min:
        return "subnormal"
    return root * s


@seed(27)
@settings(max_examples=60, deadline=None)
@given(drive=st.integers(0, 2**32 - 1), k=st.integers(-40, 40))
def test_a_change_of_time_unit_changes_no_bit(drive, k):
    """tau -> s*tau with (delta, epsilon) -> (delta, epsilon)/s, s = 2**k,
    is exact in binary, and every frequency scales by 1/s while every
    probability, phase and amplitude stays put: no threshold of the program
    may carry a unit."""
    rng = np.random.default_rng(drive)
    seq = random_sequence(rng, max_steps=8)
    s = math.ldexp(1.0, k)
    scaled = in_time_unit(seq, s)
    times = np.sort(rng.uniform(0.0, 60.0 * seq.period, 64))
    want = unit_products(seq, 1.0, times)
    got = unit_products(scaled, s, times)
    for key in want:
        assert bits(got[key]) == bits(want[key]), key
    for field in ("detuning", "coupling"):
        roots = field_root(seq, field, 1.0), field_root(scaled, field, s)
        if "subnormal" not in roots:
            assert bits(roots[1]) == bits(roots[0]), field


@seed(31)
@settings(max_examples=100, deadline=None)
@given(drive=st.integers(0, 2**32 - 1), k=st.integers(-40, 40))
def test_a_change_of_time_unit_moves_no_bit_of_the_beat(drive, k):
    """The beat fit in time unit 1/s, s = 2**k: its tones read back in the
    unit s = 1 and its shift t_p/s move no bit, on quarter-cycle drives of
    2-4 steps with a resonant first step, the others resonant or strongly
    detuned, and one half cycle when the step count is odd."""
    rng = np.random.default_rng(drive)
    n = int(rng.integers(2, 5))
    eps = rng.uniform(0.5, 2.0, n)
    deltas = [0.0] + [
        float(rng.choice([0.0, rng.choice([-1.0, 1.0]) * rng.uniform(12.0, 60.0) * e]))
        for e in eps[1:]
    ]
    half_cycle = (int(rng.integers(0, n)),) if n % 2 else ()
    seq = quarter_cycle_sequence(list(eps), deltas, list(rng.uniform(-math.pi, math.pi, n)),
                                 half_cycle)
    s = math.ldexp(1.0, k)
    want = beat_prediction(seq)
    got = beat_prediction(in_time_unit(seq, s))
    assert bits((got.varpi_1 * s, got.varpi_1_prime * s, got.omega_b * s, got.t_p / s)) \
        == bits((want.varpi_1, want.varpi_1_prime, want.omega_b, want.t_p))
    assert got.n_resonant == want.n_resonant


def gauge(seq, phi):
    """theta_n -> theta_n + phi: the field turned about z by phi, which a
    turn of the frame undoes, so no probability moves."""
    return PulseSequence.from_arrays(
        [step.delta for step in seq.steps],
        [step.epsilon for step in seq.steps],
        [step.theta + phi for step in seq.steps],
        [step.tau for step in seq.steps],
    )


def level_swap(seq, phi):
    """(delta_n, theta_n) -> (-delta_n, pi - theta_n): H -> -H*, so every
    propagator becomes its complex conjugate, (a, b, c, d) -> (a, -b, c, -d),
    and no probability moves (``phi`` is unused)."""
    return PulseSequence.from_arrays(
        [-step.delta for step in seq.steps],
        [step.epsilon for step in seq.steps],
        [math.pi - step.theta for step in seq.steps],
        [step.tau for step in seq.steps],
    )


_WINDOW = 256  # periods of the spectrum window


def invariant_products(seq, times):
    """Each product with the period count n it spans: the P rows of
    evolve_many, classify's cdt, complete_transition and swapping
    residuals (one period), and the K = 256 line amplitudes and offset,
    keyed by family and index."""
    _, _, c, d = evolve_many(seq, times)
    report = classify(seq)
    model = fourier_numeric(seq, (-4, 4), K=_WINDOW)
    return {
        "P": (c * c + d * d, times / seq.period + 1.0),
        "residuals": (np.array([report.cdt.residual, report.complete_transition.residual,
                                report.swapping.residual]), 1.0),
        "amplitudes": ({(line.family, line.index): line.amplitude for line in model.components}
                       | {"offset": model.offset}, float(_WINDOW)),
    }


# c of the bound c * n * max(E tau) * N * eps, one per invariant; about
# three times the largest ratio seen on 2400 drives of up to 8 steps
@pytest.mark.parametrize("transform, c", [(gauge, 8.0), (level_swap, 6.0)],
                         ids=["phase_gauge", "level_swap"])
@seed(28)
@settings(max_examples=100, deadline=None)
@given(drive=st.integers(0, 2**32 - 1), phi=st.floats(-math.pi, math.pi))
def test_a_symmetry_of_the_drive_moves_no_probability_beyond_rounding(
    transform, c, drive, phi
):
    """The transformed drive gives the same probabilities, residuals and
    line amplitudes over 50 periods, within c * n * max(E tau) * N * eps."""
    rng = np.random.default_rng(drive)
    seq = random_sequence(rng, max_steps=8)
    times = np.sort(rng.uniform(0.0, 50.0 * seq.period, 64))
    unit = (c * max(step.energy * step.tau for step in seq.steps) * len(seq.steps)
            * sys.float_info.epsilon)
    want = invariant_products(seq, times)
    got = invariant_products(transform(seq, phi), times)
    for key in ("P", "residuals"):
        (value, n), (expected, _) = got[key], want[key]
        assert np.all(np.abs(value - expected) <= n * unit), key
    (lines, n), (expected, _) = got["amplitudes"], want["amplitudes"]
    assert lines.keys() == expected.keys()
    assert max(abs(lines[key] - expected[key]) for key in lines) <= n * unit


def period_angles(seq):
    """a(T), Theta and the positive-a omega_eff * T of a drive."""
    per = period_propagator(seq)
    heff = effective_hamiltonian(seq, branch="positive_a")
    return np.array([per.a, per.angle, heff.omega_eff * seq.period])


@seed(29)
@settings(max_examples=100, deadline=None)
@given(drive=st.integers(0, 2**32 - 1))
def test_cyclic_entry_keeps_the_period_rotation(drive):
    """Entering the drive at step m, jump_sequence(seq, 0, m), conjugates
    U(T) by the steps before m, which keeps its trace and rotation angle:
    a(T), Theta and the positive-a omega_eff * T agree within
    c * N * max(1, max E tau) * eps, c = 3, about three times the largest
    ratio seen on 20000 drives of up to 8 steps."""
    seq = random_sequence(np.random.default_rng(drive), max_steps=8)
    n = len(seq.steps)
    unit = (3.0 * n * max(1.0, max(step.energy * step.tau for step in seq.steps))
            * sys.float_info.epsilon)
    want = period_angles(seq)
    for m in range(1, n + 1):
        assert np.all(np.abs(period_angles(jump_sequence(seq, 0.0, m)) - want) <= unit), m


@seed(30)
@settings(max_examples=100, deadline=None)
@given(drive=st.integers(0, 2**32 - 1))
def test_doubling_the_sequence_moves_no_probability_beyond_rounding(drive):
    """The drive repeated twice in one period is the same drive, so the P
    rows of evolve_many over 50 periods agree within
    c * (max E * t + n * max(1, max E tau) * N) * eps, c = 4, about three
    times the largest ratio seen on 20000 drives of up to 8 steps.  The
    first term is the rounding of the float t, which the doubled drive
    splits at another multiple of its period."""
    rng = np.random.default_rng(drive)
    seq = random_sequence(rng, max_steps=8)
    times = np.sort(rng.uniform(0.0, 50.0 * seq.period, 64))
    big = max(1.0, max(step.energy * step.tau for step in seq.steps))
    bound = 4.0 * sys.float_info.epsilon * (
        max(step.energy for step in seq.steps) * times
        + (times / seq.period + 1.0) * big * len(seq.steps))
    _, _, c, d = evolve_many(seq, times)
    _, _, c2, d2 = evolve_many(PulseSequence(seq.steps * 2), times)
    assert np.all(np.abs((c2 * c2 + d2 * d2) - (c * c + d * d)) <= bound)
