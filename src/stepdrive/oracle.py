"""Brute-force reference implementations.

Everything here recomputes the physics from first principles: propagators
as chronological products of per-segment matrix exponentials, Fourier
amplitudes by plain quadrature of a sampled signal, beat frequencies by
least squares on extracted envelope points.  None of it shares code with
the closed-form modules; agreement between the two paths is the
correctness argument for both.
"""

import cmath
import math
from collections import namedtuple

import numpy as np

# SciPy is imported by the two routes that need it (the 'expm' method and
# envelope_extract), so the rest of the oracle runs on the runtime install


class NoEnvelopeError(RuntimeError):
    """Raised when a signal has too few extrema to define a beat envelope."""


def _segment_hamiltonian(step):
    off = step.epsilon * cmath.exp(1j * step.theta)
    return np.array(
        [[-0.5 * step.delta, off], [off.conjugate(), 0.5 * step.delta]]
    )


def _segment_unitary(step, s, method):
    h = _segment_hamiltonian(step)
    if method == "expm":
        import scipy.linalg

        return scipy.linalg.expm(-1j * s * h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * s * w)) @ v.conj().T


def brute_force_evolve(sequence, t, substeps_per_step=1, method="eigh"):
    """Propagator at time t by direct chronological matrix products.

    Cost is proportional to the number of elapsed segments, so this is
    deliberately slow at large period counts; it exists to check the
    closed-form path, not to replace it.

    Parameters
    ----------
    sequence : PulseSequence
    t : float
    substeps_per_step : int
        Each traversed segment is split into this many equal pieces, each
        exponentiated separately.  The result must not depend on it beyond
        rounding; that invariance is itself a useful test.
    method : {'eigh', 'expm'}
        Exponentiate via eigendecomposition of the 2x2 Hermitian generator
        or via scipy's scaling-and-squaring.  Two genuinely different
        numerical routes.

    Returns
    -------
    ndarray
        The 2x2 unitary propagator.
    """
    if t < 0.0:
        raise ValueError("time must be non-negative, got %r" % (t,))
    if substeps_per_step < 1:
        raise ValueError("substeps_per_step must be >= 1")
    if method not in ("eigh", "expm"):
        raise ValueError("unknown method %r" % (method,))
    period = sequence.period
    n_full = int(math.floor(t / period))
    remainder = t - n_full * period
    if remainder < 0.0:
        n_full -= 1
        remainder = t - n_full * period
    if period - remainder <= math.ulp(period):
        n_full += 1
        remainder = 0.0

    def segment(step, s):
        u = np.eye(2, dtype=complex)
        piece = _segment_unitary(step, s / substeps_per_step, method)
        for _ in range(substeps_per_step):
            u = piece @ u
        return u

    u_period = np.eye(2, dtype=complex)
    for step in sequence.steps:
        u_period = segment(step, step.tau) @ u_period

    u = np.eye(2, dtype=complex)
    for _ in range(n_full):
        u = u_period @ u
    left = remainder
    for step in sequence.steps:
        if left <= 0.0:
            break
        s = min(step.tau, left)
        u = segment(step, s) @ u
        left -= s
    return u


def brute_force_probability(sequence, t, **kwargs):
    """Transition probability |U_21(t)|**2 by brute force."""
    u = brute_force_evolve(sequence, t, **kwargs)
    return abs(u[1, 0]) ** 2


def numeric_fourier(times, values, omega):
    """Complex Fourier amplitude (2/T_span) * integral of P(t) e^{i w t}.

    Plain trapezoidal quadrature on a uniform grid.  The real part is the
    cosine quadrature, the imaginary part the sine quadrature, so the
    amplitude and phase of a cosine component b*cos(w t - phi) present in
    the signal are abs(z) and atan2(z.imag, z.real).

    Parameters
    ----------
    times : array_like
        Uniformly spaced sample times spanning whole oscillation periods.
    values : array_like
        Signal samples.
    omega : float
        Probe angular frequency.  Nonzero probes need at least 16 samples
        per oscillation period.

    Returns
    -------
    complex
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape or times.size < 2:
        raise ValueError("need matching 1-d sample arrays")
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("sample grid is not uniform")
    if omega != 0.0 and dt[0] > (2.0 * math.pi / abs(omega)) / 16.0:
        raise ValueError("fewer than 16 samples per probe period")
    span = times[-1] - times[0]
    integrand = values * np.exp(1j * omega * times)
    return 2.0 / span * np.trapezoid(integrand, times)


EnvelopeFit = namedtuple("EnvelopeFit", ["omega_b", "residual", "times", "values"])


def envelope_extract(times, values):
    """Beat frequency from the upper envelope of an oscillating signal.

    Local maxima of the signal sample the envelope; for a two-tone beat the
    envelope is (1/2)(1 + |cos(w_b t - psi)|), so y = (2U - 1)**2 is a pure
    cosine at 2*w_b and a linear least-squares fit in its quadratures,
    scanned and then refined over w_b, pins the beat frequency.

    Parameters
    ----------
    times, values : array_like
        Densely sampled signal covering at least two envelope periods.

    Returns
    -------
    EnvelopeFit
        Fields (omega_b, residual, times, values); the last two are the
        envelope samples (peak positions and heights).

    Raises
    ------
    NoEnvelopeError
        If fewer than three local maxima exist.
    """
    import scipy.optimize
    import scipy.signal

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    peaks, _ = scipy.signal.find_peaks(values)
    if peaks.size < 3:
        raise NoEnvelopeError("fewer than three local maxima in the signal")
    tp = times[peaks]
    up = values[peaks]
    y = (2.0 * up - 1.0) ** 2

    span = tp[-1] - tp[0]
    spacing = np.median(np.diff(tp))

    def misfit(omega):
        design = np.column_stack(
            [np.ones_like(tp), np.cos(2.0 * omega * tp), np.sin(2.0 * omega * tp)]
        )
        coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        r = y - design @ coef
        return float(r @ r)

    # two envelope periods minimum -> omega_b >= 2*pi/span; peak spacing
    # bounds it above
    lo = 0.5 * math.pi / span
    hi = 0.5 * math.pi / spacing
    grid = np.linspace(lo, hi, 4096)
    costs = [misfit(w) for w in grid]
    best = int(np.argmin(costs))
    wlo = grid[max(best - 1, 0)]
    whi = grid[min(best + 1, grid.size - 1)]
    res = scipy.optimize.minimize_scalar(misfit, bounds=(wlo, whi), method="bounded")
    omega_b = float(res.x)
    rms = math.sqrt(res.fun / y.size)
    return EnvelopeFit(omega_b, rms, tp, up)
