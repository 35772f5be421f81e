"""Effective Hamiltonian, micromotion, and the mid-step entry family."""

import math

import numpy as np
import pytest
import scipy.linalg

from stepdrive import (
    BranchAmbiguityError,
    DriveStep,
    PulseSequence,
    effective_hamiltonian,
    effective_with_jump,
    intra_period,
    jump_sequence,
    micromotion,
    period_propagator,
)
from stepdrive.oracle import brute_force_evolve

from helpers import detuned_pair, random_sequence

RECONSTRUCTION_TOL = 1e-10

# frozen logm-oracle values for the detuned quarter-cycle pair
PAIR_EPS_EFF_PRINCIPAL = 21.86806087218422
PAIR_EPS_EFF_POSITIVE_A = 0.42353829052152098
PAIR_THETA_PRINCIPAL = 3.0819026882219211
PAIR_MICROMOTION_037T = (2.6072361909613968, 0.052144723819227932, 0.0)


def test_detuned_pair_effective_parameters_frozen():
    seq = detuned_pair()
    h = effective_hamiltonian(seq)
    assert abs(h.delta_eff) < 1e-12
    assert h.epsilon_eff == pytest.approx(PAIR_EPS_EFF_PRINCIPAL, rel=1e-14)
    assert h.theta_eff == pytest.approx(-0.5 * math.pi, abs=1e-15)
    assert h.rotation_angle == pytest.approx(PAIR_THETA_PRINCIPAL, rel=1e-14)
    assert h.period == seq.period


def test_positive_a_branch_folds_the_rotation_angle():
    seq = detuned_pair()
    assert period_propagator(seq).a < 0.0
    h = effective_hamiltonian(seq, branch="positive_a")
    assert abs(h.delta_eff) < 1e-12
    assert h.epsilon_eff == pytest.approx(PAIR_EPS_EFF_POSITIVE_A, rel=1e-14)
    # the flipped quadruple negates the axis, shifting the phase by pi
    assert h.theta_eff == pytest.approx(0.5 * math.pi, abs=1e-15)
    assert h.rotation_angle <= 0.5 * math.pi + 1e-12
    # both branches fold to the same angle when a(T) > 0
    single = PulseSequence.from_arrays([0.0], [1.0], [0.0], [0.3])
    assert effective_hamiltonian(single) == effective_hamiltonian(
        single, branch="positive_a"
    )


def test_unknown_branch_is_rejected():
    with pytest.raises(ValueError, match="unknown branch"):
        effective_hamiltonian(detuned_pair(), branch="negative_a")


def test_single_step_effective_equals_step_parameters():
    # one constant segment: H_eff is the segment Hamiltonian itself
    # whenever the rotation stays below the branch cut
    step = DriveStep(3.0, 1.2, 0.4, 0.5)
    h = effective_hamiltonian(PulseSequence((step,)))
    assert h.delta_eff == pytest.approx(3.0, rel=1e-13)
    assert h.epsilon_eff == pytest.approx(1.2, rel=1e-13)
    assert h.theta_eff == pytest.approx(0.4, rel=1e-13)


def test_effective_reconstructs_period_propagator():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 20:
        seq = random_sequence(rng, max_steps=5, lo=0.05, hi=20.0)
        per = period_propagator(seq)
        if math.sqrt(max(0.0, 1.0 - per.a**2)) < 2e-4:
            continue  # too close to the branch cut for the principal log
        checked += 1
        h = effective_hamiltonian(seq)
        got = scipy.linalg.expm(-1j * np.asarray(h.as_matrix()) * seq.period)
        assert np.max(np.abs(got - np.asarray(per.as_matrix()))) < RECONSTRUCTION_TOL


def test_micromotion_frozen_value_inside_first_step():
    seq = detuned_pair()
    m = micromotion(seq, 0.37 * seq.period)
    # inside one constant segment M(t') = H_1 * t' exactly
    assert m == pytest.approx(PAIR_MICROMOTION_037T, rel=1e-14, abs=1e-15)


def test_micromotion_at_full_period_equals_effective_times_t():
    seq = detuned_pair()
    m = micromotion(seq, seq.period)
    h = effective_hamiltonian(seq)
    assert m.delta_m == pytest.approx(h.delta_eff * seq.period, abs=1e-12)
    assert m.epsilon_m == pytest.approx(h.epsilon_eff * seq.period, rel=1e-13)
    assert m.theta_m == h.theta_eff


def test_micromotion_reconstructs_intra_period_propagator():
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 20:
        seq = random_sequence(rng, max_steps=4, lo=0.05, hi=10.0)
        tp = float(rng.uniform(0.1, 1.0)) * seq.period
        inner = intra_period(seq, tp)
        if math.sqrt(max(0.0, 1.0 - inner.a**2)) < 2e-4 or inner.a < 0.0:
            continue
        checked += 1
        m = micromotion(seq, tp)
        got = scipy.linalg.expm(-1j * np.asarray(m.as_matrix()))
        assert np.max(np.abs(got - np.asarray(inner.as_matrix()))) < RECONSTRUCTION_TOL


def test_micromotion_rejects_times_outside_period():
    seq = detuned_pair()
    with pytest.raises(ValueError, match="outside"):
        micromotion(seq, 0.0)
    with pytest.raises(ValueError, match="outside"):
        micromotion(seq, seq.period * 1.001)
    with pytest.raises(ValueError, match="outside"):
        micromotion(seq, math.nan)


def test_branch_cut_raises_ambiguity_error():
    # a half-cycle step makes U(T) = -1: the generator sign is undefined
    seq = PulseSequence.from_arrays([0.0], [1.0], [0.0], [math.pi])
    with pytest.raises(BranchAmbiguityError):
        effective_hamiltonian(seq)
    # ... on both branches: negating -1 gives a norm-zero generator, but
    # the principal log is what raises; positive_a resolves it
    h = effective_hamiltonian(seq, branch="positive_a")
    assert h.epsilon_eff == pytest.approx(0.0, abs=1e-12)


def test_jump_endpoints_reduce_to_cyclic_rotations():
    seq = random_sequence(np.random.default_rng(33), max_steps=4, lo=0.1, hi=5.0)
    steps = seq.steps
    assert jump_sequence(seq, 0.0).steps == steps
    n = len(steps)
    for m in range(1, n + 1):
        assert jump_sequence(seq, 0.0, m).steps == steps[m - 1:] + steps[:m - 1]
        assert jump_sequence(seq, 1.0, m).steps == steps[m:] + steps[:m]


def test_jump_sequence_splits_one_step():
    seq = detuned_pair()
    lam = 0.3
    out = jump_sequence(seq, lam)
    assert len(out.steps) == 3
    tau1 = seq.steps[0].tau
    assert out.steps[0].tau == pytest.approx((1.0 - lam) * tau1)
    assert out.steps[1] == seq.steps[1]
    assert out.steps[2].tau == pytest.approx(lam * tau1)
    assert out.period == pytest.approx(seq.period)
    # the split pieces keep the parent step's fields
    assert out.steps[0]._replace(tau=1.0) == seq.steps[0]._replace(tau=1.0)


def test_jump_sequence_input_validation():
    seq = detuned_pair()
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        jump_sequence(seq, -0.1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        jump_sequence(seq, 1.1)
    with pytest.raises(ValueError, match="step index"):
        jump_sequence(seq, 0.5, m=3)
    with pytest.raises(ValueError, match="step index"):
        jump_sequence(seq, 0.5, m=0)


def test_jump_family_reconstructs_entered_drive():
    # H_eff(lambda) must exponentiate to the one-period propagator of the
    # repartitioned sequence, for every entry fraction
    seq = detuned_pair()
    for lam in np.linspace(0.0, 1.0, 11):
        h = effective_with_jump(seq, float(lam))
        got = scipy.linalg.expm(-1j * np.asarray(h.as_matrix()) * h.period)
        want = brute_force_evolve(jump_sequence(seq, float(lam)), seq.period)
        assert np.max(np.abs(got - want)) < 1e-12


def test_quasienergy_is_invariant_under_entry_point():
    # repartitions are similarity transformations: omega_eff cannot move
    seq = detuned_pair()
    base = effective_hamiltonian(seq).omega_eff
    for lam in np.linspace(0.0, 1.0, 11):
        for m in (1, 2):
            h = effective_with_jump(seq, float(lam), m)
            assert abs(h.omega_eff - base) < 1e-10


def test_jump_second_step_entry():
    seq = detuned_pair()
    lam = 0.4
    out = jump_sequence(seq, lam, m=2)
    assert len(out.steps) == 3
    assert out.steps[0].tau == pytest.approx((1.0 - lam) * seq.steps[1].tau)
    assert out.steps[1] == seq.steps[0]
    assert out.steps[2].tau == pytest.approx(lam * seq.steps[1].tau)
