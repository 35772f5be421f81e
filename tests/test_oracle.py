"""The brute-force reference path: matrix products, quadrature, envelopes."""

import math

import numpy as np
import pytest

from stepdrive import PulseSequence
from stepdrive.oracle import (
    NoEnvelopeError,
    brute_force_evolve,
    brute_force_probability,
    envelope_extract,
    numeric_fourier,
)

from helpers import random_sequence

METHOD_AGREEMENT = 1e-11
SUBSTEP_INVARIANCE = 1e-13


def test_exponentiation_methods_agree():
    rng = np.random.default_rng(11)
    for _ in range(25):
        seq = random_sequence(rng, max_steps=4, lo=0.05, hi=20.0)
        t = float(rng.uniform(0.0, 8.0)) * seq.period
        u_eigh = brute_force_evolve(seq, t, method="eigh")
        u_expm = brute_force_evolve(seq, t, method="expm")
        assert np.max(np.abs(u_eigh - u_expm)) < METHOD_AGREEMENT


def test_substep_splitting_is_invariant():
    rng = np.random.default_rng(12)
    for _ in range(10):
        seq = random_sequence(rng, max_steps=4, lo=0.05, hi=20.0)
        t = float(rng.uniform(0.0, 4.0)) * seq.period
        u1 = brute_force_evolve(seq, t, substeps_per_step=1)
        u8 = brute_force_evolve(seq, t, substeps_per_step=8)
        assert np.max(np.abs(u1 - u8)) < SUBSTEP_INVARIANCE


def test_brute_force_propagator_is_unitary():
    rng = np.random.default_rng(13)
    for _ in range(10):
        seq = random_sequence(rng, max_steps=5, lo=0.05, hi=20.0)
        t = float(rng.uniform(0.0, 6.0)) * seq.period
        u = brute_force_evolve(seq, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-13


def test_brute_force_probability_from_corner_entry():
    seq = PulseSequence.from_arrays([0.0], [1.0], [0.0], [1.0])
    # resonant step: P12(t) = sin(t)^2
    assert brute_force_probability(seq, 0.7) == pytest.approx(math.sin(0.7) ** 2)


def test_brute_force_input_validation():
    seq = PulseSequence.from_arrays([0.0], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="non-negative"):
        brute_force_evolve(seq, -0.1)
    with pytest.raises(ValueError, match="substeps_per_step"):
        brute_force_evolve(seq, 1.0, substeps_per_step=0)
    with pytest.raises(ValueError, match="unknown method"):
        brute_force_evolve(seq, 1.0, method="pade")


def test_numeric_fourier_recovers_known_tone():
    times = np.linspace(0.0, 40.0 * math.pi, 20001)
    values = 0.4 + 0.3 * np.cos(1.0 * times - 0.8)
    z = numeric_fourier(times, values, 1.0)
    assert abs(z) == pytest.approx(0.3, abs=1e-4)
    assert math.atan2(z.imag, z.real) == pytest.approx(0.8, abs=1e-4)
    # zero probe returns twice the mean
    z0 = numeric_fourier(times, values, 0.0)
    assert z0.real == pytest.approx(0.8, abs=1e-4)


def test_numeric_fourier_rejects_bad_grids():
    values = np.zeros(100)
    with pytest.raises(ValueError, match="not uniform"):
        numeric_fourier(np.sqrt(np.arange(100.0)), values, 1.0)
    # coarse grid: fewer than 16 samples per probe period
    times = np.linspace(0.0, 100.0, 101)
    with pytest.raises(ValueError, match="16 samples"):
        numeric_fourier(times, np.zeros(101), 2.0 * math.pi)
    with pytest.raises(ValueError, match="matching 1-d"):
        numeric_fourier(times, np.zeros(50), 0.1)


def test_envelope_extract_recovers_two_tone_beat():
    # tones at omega and 1.1*omega give 0.5 - 0.5*cos(0.1*omega*t)*cos(2.1*omega*t),
    # whose peak envelope is 0.5*(1 + |cos(0.1*omega*t)|): omega_b is the tone difference
    omega = 1.0
    omega_b = 0.1 * omega
    times = np.linspace(0.0, 6.0 * math.pi / omega_b, 60000)
    values = 0.5 * (np.sin(omega * times) ** 2 + np.sin(1.1 * omega * times) ** 2)
    fit = envelope_extract(times, values)
    assert fit.omega_b == pytest.approx(omega_b, rel=0.02)
    assert fit.times.size >= 3
    assert np.all(fit.values <= 1.0 + 1e-12)


def test_envelope_extract_needs_three_peaks():
    times = np.linspace(0.0, 1.0, 1000)
    with pytest.raises(NoEnvelopeError):
        envelope_extract(times, times**2)
