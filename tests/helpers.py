"""Shared factories for the test suite.

Energies are always built with math.hypot, matching the library, so frozen
reference values are reproduced bit for bit.
"""

import math

import mpmath
import numpy as np

from stepdrive import PulseSequence
from stepdrive.oracle import brute_force_evolve


def quarter_cycle_sequence(epsilons, deltas, thetas=None, half_cycle=()):
    """Sequence with every dynamical phase E_n*tau_n = pi/2.

    Indices listed in ``half_cycle`` get a full pi instead.
    """
    if thetas is None:
        thetas = [0.0] * len(epsilons)
    taus = []
    for i, (eps, delta) in enumerate(zip(epsilons, deltas)):
        energy = math.hypot(eps, 0.5 * delta)
        area = math.pi if i in half_cycle else 0.5 * math.pi
        taus.append(area / energy)
    return PulseSequence.from_arrays(deltas, epsilons, thetas, taus)


def detuned_pair():
    """Two strongly detuned quarter-cycle steps, eps = {1, 2}, delta = {50, 40}."""
    return quarter_cycle_sequence([1.0, 2.0], [50.0, 40.0])


def resonant_plus_detuned(theta2=0.0):
    """Resonant quarter-cycle step followed by a strongly detuned one.

    The canonical beat configuration: eps = {1, 1}, delta = {0, 40}.
    """
    return quarter_cycle_sequence([1.0, 1.0], [0.0, 40.0], [0.0, theta2])


def large_phase_drive():
    """Three steps, the middle one turning by E*tau = 300 rad."""
    return PulseSequence.from_arrays(
        [0.0, 30.0, -1.5], [1.0, 2.0, 0.7], [0.0, 0.4, -1.1],
        [0.9, 300.0 / math.hypot(2.0, 15.0), 1.3],
    )


def random_sequence(rng, max_steps=8, lo=0.01, hi=100.0):
    """Log-uniform random sequence in the style of the oracle comparisons."""
    n = int(rng.integers(1, max_steps + 1))
    eps = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    dmag = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    deltas = dmag * rng.choice([-1.0, 1.0], n)
    thetas = rng.uniform(-np.pi, np.pi, n)
    taus = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return PulseSequence.from_arrays(deltas, eps, thetas, taus)


def mp_propagator(seq, periods=1, offset=0.0):
    """(a, b, c, d) of U(periods*T + offset) composed in mpmath at the
    working precision from the float step fields: ``periods`` full periods,
    then the steps up to the exact ``offset`` < T into the next one, each
    segment applied on the left in the library's recursion order.  The
    default is U(T).  A null step is the identity."""
    zero = mpmath.mpf(0)
    a, b, c, d = mpmath.mpf(1), zero, zero, zero
    spans = [step.tau for step in seq.steps] * periods
    rest = mpmath.mpf(offset)
    for step in seq.steps:
        spans.append(min(mpmath.mpf(step.tau), rest))
        rest -= mpmath.mpf(step.tau)
    for step, s in zip(seq.steps * (periods + 1), spans):
        if s <= 0:
            break
        delta, eps, theta, _ = (mpmath.mpf(x) for x in step)
        energy = mpmath.sqrt(eps**2 + delta**2 / 4)
        if energy == 0:
            continue
        ax = eps * mpmath.cos(theta) / energy
        ay = eps * mpmath.sin(theta) / energy
        az = delta / 2 / energy
        cn, sn = mpmath.cos(energy * s), mpmath.sin(energy * s)
        a, b, c, d = (
            a * cn - (d * ax + c * ay + b * az) * sn,
            b * cn + (c * ax - d * ay + a * az) * sn,
            c * cn + (-b * ax + a * ay + d * az) * sn,
            d * cn + (a * ax + b * ay - c * az) * sn,
        )
    return a, b, c, d


def coeffs_from_unitary(u):
    """Map a 2x2 SU(2) matrix to its (a, b, c, d) coefficient quadruple."""
    return (u[0, 0].real, u[0, 0].imag, u[0, 1].real, -u[0, 1].imag)


def oracle_projection(sequence, omegas, K):
    """(2/KT) * integral over K periods of P12(t) exp(1j*omega*t), by brute force.

    Independent of the library's spectral route: P12 comes from
    `stepdrive.oracle.brute_force_evolve` at Gauss-Legendre nodes inside
    each window of one period, carried to period k by repeated products
    with the brute-force U(T).  Each window gets enough nodes to integrate
    its fastest oscillation to rounding.  Returns one complex amplitude per
    omega; half the real part at omega = 0 is the windowed mean.
    """
    omegas = np.asarray(omegas, dtype=float)
    fastest = float(np.max(np.abs(omegas)))
    times, weights = [], []
    t0 = 0.0
    for step in sequence.steps:
        m = int(0.5 * (2.0 * step.energy + fastest) * step.tau) + 40
        x, w = np.polynomial.legendre.leggauss(m)
        times.append(t0 + 0.5 * step.tau * (x + 1.0))
        weights.append(0.5 * step.tau * w)
        t0 += step.tau
    times = np.concatenate(times)
    weights = np.concatenate(weights)
    inner = np.array([brute_force_evolve(sequence, t) for t in times])
    u_period = brute_force_evolve(sequence, sequence.period)
    powers = np.empty((K, 2, 2), dtype=complex)
    powers[0] = np.eye(2)
    for k in range(1, K):
        powers[k] = u_period @ powers[k - 1]
    nodes = np.exp(1j * np.outer(omegas, times)) * weights
    shifts = np.exp(1j * np.outer(omegas, sequence.period * np.arange(K)))
    total = np.zeros(omegas.size, dtype=complex)
    chunk = 4096  # periods per block, bounds the node-by-period arrays
    for lo in range(0, K, chunk):
        block = powers[lo:lo + chunk]
        # entry [1, 0] of inner @ U(T)^k, for every node and k in the block
        u10 = np.outer(block[:, 0, 0], inner[:, 1, 0]) + np.outer(block[:, 1, 0], inner[:, 1, 1])
        probs = np.abs(u10) ** 2
        total += np.sum((shifts[:, lo:lo + chunk] @ probs) * nodes, axis=1)
    return 2.0 / (K * sequence.period) * total
