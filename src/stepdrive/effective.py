"""Effective Hamiltonian, micromotion, and mid-step entry points.

The one-period propagator of any piecewise-constant drive is an SU(2)
rotation, so it equals exp(-1j * H_eff * T) for a unique traceless
Hermitian H_eff once the rotation angle branch is fixed.  The same
logarithm taken at an intra-period time t' defines the micromotion
generator M(t'), whose parameters interpolate from zero to H_eff * T over
one period.

Entering the drive partway through a step produces a cyclically
repartitioned sequence with one step split in two; its effective
Hamiltonian is a function of the entry fraction lambda and sweeps out a
family H_eff(lambda).
"""

import math

from .core import (
    BranchAmbiguityError,
    EffectiveHamiltonian,
    MicromotionParams,
    PulseSequence,
)
from .propagator import intra_period, period_propagator

# Rotations within this distance of the identity use the series limit of
# phi/sin(phi); below it the quotient is 1 to double precision.
_NORM_FLOOR = 1e-8

# logarithm branch-cut guard: a propagator with a <= -1 + _BRANCH_TOL is a
# rotation by pi to within 1e-4 in angle and its axis sign is ambiguous.
_BRANCH_TOL = 1e-8


def _log_params(coeffs):
    """Micromotion parameters of a single SU(2) element.

    Writes U = exp(-1j*M) with M traceless Hermitian and rotation angle
    phi = ``coeffs.angle`` = atan2(|(b, c, d)|, a) in [0, pi).  Using the
    actual coefficient norm rather than sqrt(1 - a**2) keeps the
    reconstruction exact even in the presence of a small unitarity defect.
    """
    a, b, c, d = coeffs
    if a <= -1.0 + _BRANCH_TOL:
        raise BranchAmbiguityError(
            "rotation angle at the pi branch cut (a = %r); "
            "the generator sign is undefined" % (a,)
        )
    norm = math.hypot(b, c, d)
    ratio = 1.0 if norm < _NORM_FLOOR else coeffs.angle / norm
    return MicromotionParams(
        2.0 * b * ratio, math.hypot(c, d) * ratio, math.atan2(c, d)
    )


def micromotion(sequence, tprime):
    """Micromotion generator parameters at intra-period time t'.

    Parameters
    ----------
    sequence : PulseSequence
    tprime : float
        Time inside the period, 0 < t' <= T.

    Returns
    -------
    MicromotionParams
        Action-valued parameters (delta_m, epsilon_m, theta_m) with
        exp(-1j*M(t')) equal to the intra-period propagator.

    Raises
    ------
    ValueError
        If t' lies outside (0, T] or is nan.
    BranchAmbiguityError
        If the intra-period propagator is a rotation by pi, where the
        generator is defined only up to a sign.
    """
    if not 0.0 < tprime <= sequence.period:
        raise ValueError(
            "micromotion time %r outside (0, %r]" % (tprime, sequence.period)
        )
    return _log_params(intra_period(sequence, tprime))


def effective_hamiltonian(sequence, branch="principal"):
    """Effective Hamiltonian of one drive period.

    Parameters
    ----------
    sequence : PulseSequence
    branch : {'principal', 'positive_a'}
        'principal' takes the rotation angle of U(T), Theta =
        atan2(|(b, c, d)|, a) in [0, pi], as is.  'positive_a' flips the
        sign of the whole coefficient quadruple when a(T) < 0 before
        taking the logarithm; the resulting generator reproduces the
        period propagator only up to a global sign but keeps Theta in
        [0, pi/2], which is the folding used by the spectral-line labels.

    Returns
    -------
    EffectiveHamiltonian

    Raises
    ------
    BranchAmbiguityError
        On the principal branch when a(T) is at the branch cut near -1.
    """
    if branch not in ("principal", "positive_a"):
        raise ValueError("unknown branch %r" % (branch,))
    per = period_propagator(sequence)
    if branch == "positive_a" and per.a < 0.0:
        per = per._make(-x for x in per)
    params = _log_params(per)
    period = sequence.period
    return EffectiveHamiltonian(
        params.delta_m / period,
        params.epsilon_m / period,
        params.theta_m,
        period,
    )


def jump_sequence(sequence, lam, m=1):
    """Sequence seen when the drive is entered mid-step.

    Skipping the first ``lam`` fraction of step ``m`` and wrapping around
    periodically yields an (N+1)-step sequence: the remaining (1-lam) piece
    of step m, the other steps in cyclic order, then the skipped piece.
    Zero-duration pieces at lam = 0 or 1 are dropped, so those endpoints
    reduce to plain cyclic rotations.

    Parameters
    ----------
    sequence : PulseSequence
    lam : float
        Entry fraction in [0, 1].
    m : int
        1-based index of the step being entered.

    Returns
    -------
    PulseSequence
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("entry fraction must lie in [0, 1], got %r" % (lam,))
    n = len(sequence.steps)
    if not 1 <= m <= n:
        raise ValueError("step index %r outside 1..%d" % (m, n))
    step = sequence.steps[m - 1]
    rest = sequence.steps[m:] + sequence.steps[: m - 1]
    pieces = [step._replace(tau=(1.0 - lam) * step.tau)]
    pieces.extend(rest)
    pieces.append(step._replace(tau=lam * step.tau))
    return PulseSequence(tuple(p for p in pieces if p.tau > 0.0))


def effective_with_jump(sequence, lam, m=1, branch="principal"):
    """Effective Hamiltonian of the drive entered mid-step.

    Equivalent to ``effective_hamiltonian(jump_sequence(sequence, lam, m))``;
    sweeping lam from 0 to 1 traces the one-parameter family H_eff(lambda)
    that connects the cyclic repartitions of the sequence.
    """
    return effective_hamiltonian(jump_sequence(sequence, lam, m), branch=branch)
