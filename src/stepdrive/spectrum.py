"""Fourier content of the transition probability under periodic driving.

Inside window n of period k, at t = k*T + t_n + s, the propagator is
R_n(s) U(t_n) U(T)^k.  The segment rotation R_n(s) is linear in
(cos E_n*s, sin E_n*s) and the power U(T)^k in (cos k*Theta, sin k*Theta),
so the transition probability, quadratic in the propagator, is exactly

    P = sum_{u,v} C_n[u, v] * h_u(2*E_n*s) * h_v(2*k*Theta),  h = (1, cos, sin),

for any step count and in every parameter regime.  The 3x3 tables C_n are
built once per drive.  They are also the one model of a sampled signal:
on offsets s_j repeated over periods k, P is the product of the window
tones h(2*E_n*s_j) and the period coefficients C_n h(2*k*Theta), which
the model error, the P12max scan metric and the beat fit read.

The projection of P on exp(1j*omega*t) over K periods factorizes into an
analytic window integral over s times a geometric sum over k, so the line
spectrum is exact and its cost does not grow with K.  As K -> infinity
only discrete lines survive, at l*omega_T and +/-2*Theta/T + l*omega_T; a
comb line closer to a probe than pi/(1024*T) counts as that probe's line.

Lines are labelled by their probe: "sideband" components sit at
|2*omega_eff + l*omega_T| with omega_eff on the positive-a branch, and
"harmonic" components at integer multiples of omega_T.
"""

import cmath
import math
import warnings
from collections import namedtuple

import numpy as np

from .core import (
    DegenerateFrequencyWarning,
    SpectralComponent,
    SpectralModel,
)
from .effective import effective_hamiltonian
from .propagator import _combine, _window_starts, rotate

# denominators |probe +/- 2 E_n| below this are treated as exactly resonant
_DEGENERATE_TOL = 1e-10

# frequencies closer than this (in units of omega_T) are one spectral line
_FOLD_TOL = 1e-9

# in the infinite-window limit, comb lines closer than this (in units of
# 1/T) to a probe are that probe's line
_RESOLUTION = math.pi / 1024.0

# x x^T = sum_u h_u(2*angle) * _PAIR[u] for x = (cos angle, sin angle)
_PAIR = 0.5 * np.array([[[1.0, 0.0], [0.0, 1.0]],
                        [[1.0, 0.0], [0.0, -1.0]],
                        [[0.0, 1.0], [1.0, 0.0]]])

ModelError = namedtuple("ModelError", ["value", "horizon"])


def _phase_integral(x, tau):
    """G(x) = integral_0^tau exp(1j*x*s) ds, with the small-x limit."""
    if abs(x) < _DEGENERATE_TOL:
        return tau * (1.0 + 0.5j * x * tau)
    return (cmath.exp(1j * x * tau) - 1.0) / (1j * x)


def _window_integral(omega, tone, tau, warn):
    """Projection of (1, cos(tone*s), sin(tone*s)) on exp(1j*omega*s).

    Returns the three integrals over s in [0, tau].  When omega is within
    the degenerate tolerance of +/-tone the limiting form is used and a
    DegenerateFrequencyWarning is emitted (for probe frequencies only).
    """
    g0 = _phase_integral(omega, tau)
    xp = omega + tone
    xm = omega - tone
    if warn and tone != 0.0 and (abs(xp) < _DEGENERATE_TOL or abs(xm) < _DEGENERATE_TOL):
        warnings.warn(
            "probe frequency %g is resonant with a window tone %g; "
            "using the limiting form of the integral" % (omega, tone),
            DegenerateFrequencyWarning,
            stacklevel=3,
        )
    gp = _phase_integral(xp, tau)
    gm = _phase_integral(xm, tau)
    gc = 0.5 * (gp + gm)
    gs = (gp - gm) / 2j
    return g0, gc, gs


def _probe_list(l_range, omega_eff, omega_t):
    lmin, lmax = l_range
    if lmin > lmax:
        raise ValueError("empty index range %r" % (l_range,))
    probes = []
    for l in range(lmin, lmax + 1):
        probes.append(("sideband", l, 2.0 * omega_eff + l * omega_t))
    for l in range(lmin, lmax + 1):
        probes.append(("harmonic", l + 1, (l + 1) * omega_t))
    return probes


def _assemble_components(raw, omega_t, cap, dedup_tol):
    """Fold, deduplicate, and sort raw (family, l, frequency, z) probes.

    Negative frequencies fold to positive ones with conjugated phasors.
    Probes closer together than dedup_tol are unresolvable by the
    projection window, so each already carries the full merged line;
    keeping more than one would double-count it.  The first probe of such
    a cluster is kept, the rest are dropped (never summed).  Lines above
    the cap are discarded, and so are lines closer to zero frequency than
    dedup_tol: the window cannot tell them from the constant, so the
    offset already carries them.
    """
    dedup_tol = max(dedup_tol, _FOLD_TOL * omega_t)
    comps = []
    kept = []
    for family, l, freq, z in raw:
        if freq < 0.0:
            freq, z = -freq, z.conjugate()
        if freq < dedup_tol or freq > cap * (1.0 + 1e-12):
            continue
        if any(abs(freq - other) < dedup_tol for other in kept):
            continue
        kept.append(freq)
        comps.append(
            SpectralComponent(
                freq, abs(z), math.atan2(z.imag, z.real), family, l
            )
        )
    comps.sort(key=lambda comp: -comp.amplitude)
    return tuple(comps)


def _line_table(sequence):
    """Tables C_n of every window and the per-period rotation angle Theta.

    In window n, U(k*T + t_n + s) = (cos(E_n*s) X + sin(E_n*s) Y) U(T)^k
    with X = U(t_n) and Y its quarter turn about the step axis, and
    U(T)^k = cos(k*Theta) + sin(k*Theta) G with G = (U(T) - a) / sin(Theta).
    The (c, d) coefficients are therefore bilinear in the two cosine/sine
    pairs, and P = c**2 + d**2 folds into the 3x3 table of h_u x h_v.  A
    null rotation, U(T) = +/-1, leaves P independent of k; it gets Theta = 0
    and no G part.

    Returns
    -------
    (ndarray, float, float)
        Tables of shape (N, 3, 3), Theta in [0, pi], and turn = 2*Theta
        modulo 2*pi, read as -2*atan2(sin(Theta), -a) when a < 0, so that
        h(k*turn) = h(2*k*Theta) never scales a rounded Theta near pi.
    """
    starts, per = _window_starts(sequence)
    sin_theta = math.hypot(per.b, per.c, per.d)
    theta = per.angle if sin_theta > 0.0 else 0.0
    turn = math.copysign(2.0 * math.atan2(sin_theta, abs(per.a)), per.a)
    # (c, d) of X, X G, Y, Y G for every window; _combine(X, U(T), 0, r)
    # is r * X (U(T) - a), so a null rotation takes r = 0 and no G part
    ratio = 1.0 / sin_theta if sin_theta > 0.0 else 0.0
    rows = []
    for prefix, step in zip(starts, sequence.steps):
        for left in (prefix, rotate(prefix, 0.0, 1.0, step.axis)):
            turned = _combine(left, per, 0.0, ratio)
            rows += [(left[2], left[3]), (turned.c, turned.d)]
    m = np.array(rows).reshape(len(starts), 2, 2, 2).transpose(0, 3, 1, 2)
    tables = np.einsum("upq,njqr,vrs,njps->nuv", _PAIR, m, _PAIR, m)
    return tables, theta, turn


def _tones(phase):
    """h(phase) = (1, cos, sin) of an array of phases, along a new last axis."""
    return np.stack([np.ones_like(phase), np.cos(phase), np.sin(phase)], axis=-1)


def _window_tones(sequence, windows, offsets):
    """h(2*E_n*(offset - t_n)), shape (m, 3), of m offsets in windows n."""
    energies = np.array([step.energy for step in sequence.steps])
    local = offsets - sequence.boundaries[windows]
    return _tones(2.0 * energies[windows] * local)


def _comb(x, K):
    """(1/K) * sum_{k<K} exp(1j*k*x); K=None gives the limit K -> infinity.

    The phase is reduced to r in [-pi, pi] first, so the closed form of the
    geometric sum stays exact on and near its peaks at multiples of 2*pi.
    The limit is 1 on a peak and 0 elsewhere; a peak within the resolution
    counts as hit.
    """
    r = math.remainder(x, 2.0 * math.pi)
    if K is None:
        return 1.0 if abs(r) < _RESOLUTION else 0.0
    if r == 0.0:
        return 1.0
    return cmath.exp(0.5j * (K - 1) * r) * (math.sin(0.5 * K * r) / (K * math.sin(0.5 * r)))


def _line_spectrum(sequence, l_range, K, warn):
    """Exact line spectrum over K periods, or the infinite window for None."""
    if K is not None and K < 1:
        raise ValueError("need at least one period, got K=%r" % (K,))
    period = sequence.period
    omega_t = sequence.omega_t
    heff = effective_hamiltonian(sequence, branch="positive_a")
    probes = _probe_list(l_range, heff.omega_eff, omega_t)
    tables, theta, _ = _line_table(sequence)
    starts = sequence.boundaries[:-1]

    def project(omega, warn):
        # (2/KT) integral of P(t) exp(1j*omega*t) over the K periods
        phi = omega * period
        plus, minus = _comb(phi + 2.0 * theta, K), _comb(phi - 2.0 * theta, K)
        sums = np.array([_comb(phi, K), 0.5 * (plus + minus), -0.5j * (plus - minus)])
        windows = np.array([
            _window_integral(omega, 2.0 * step.energy, step.tau, warn)
            for step in sequence.steps
        ])
        per_window = np.einsum("nu,nuv,v->n", windows, tables, sums)
        return complex(2.0 / period * (np.exp(1j * omega * starts) @ per_window))

    offset = 0.5 * project(0.0, False).real
    raw = [
        (family, l, freq, project(freq, warn))
        for family, l, freq in probes
        if freq != 0.0
    ]
    cap = 2.0 * math.pi / sequence.min_tau
    dedup = (_RESOLUTION if K is None else math.pi / K) / period
    return SpectralModel(offset, _assemble_components(raw, omega_t, cap, dedup))


def fourier_numeric(sequence, l_range=(-4, 4), K=256, samples_per_step=64):
    """Line spectrum of the transition probability over K periods.

    Projects the exact signal over K periods on the sideband frequencies
    2*omega_eff + l*omega_T (positive-a branch) and the harmonics of
    omega_T.  Valid for any step count; the projection is exact (see the
    module docstring), so nothing is sampled, and a probe resonant with a
    window tone raises no warning.

    Parameters
    ----------
    sequence : PulseSequence
    l_range : (int, int)
        Inclusive range of the summation index l.
    K : int
        Number of periods retained in the projection window.
    samples_per_step : int
        Ignored: the projection needs no samples.  Still accepted so that
        callers written for an earlier sampled version keep working.

    Returns
    -------
    SpectralModel
        Offset (the windowed mean) plus folded, deduplicated components
        sorted by decreasing amplitude.  Frequencies above 2*pi/min(tau_n)
        are discarded.
    """
    return _line_spectrum(sequence, l_range, K, warn=False)


def piecewise_coefficients(sequence, K):
    """Per-window tone coefficients of periods k = 0 .. K-1, any step count.

    Returns
    -------
    ndarray
        Shape (N, 3, K): entry [n, :, k] is C_n @ h(2*k*Theta), the
        weights of (1, cos, sin)(2*E_n*s) in window n of period k; see
        :func:`piecewise_evaluate` for the reconstruction.
    """
    if K < 1:
        raise ValueError("need at least one period, got K=%r" % (K,))
    tables, _, turn = _line_table(sequence)
    return tables @ _tones(turn * np.arange(K)).T


def piecewise_evaluate(sequence, coeffs, times):
    """Evaluate the piecewise window model at the given times.

    Exact reconstruction of the transition probability from
    :func:`piecewise_coefficients`, for any step count and times in
    [0, K*T]; t = K*T is the end of period K-1.

    Raises
    ------
    ValueError
        If a time is negative, non-finite or beyond K periods.
    """
    period = sequence.period
    n_periods = coeffs.shape[2]
    times = np.asarray(times, dtype=float)
    # K*T rounded as a product or as the end of period K-1; nan fails both tests
    end = max(n_periods * period, (n_periods - 1) * period + period)
    if times.size and not (0.0 <= times.min() and times.max() <= end):
        raise ValueError("times must lie in [0, K*T] with K = %d" % (n_periods,))
    flat = times.ravel()
    k = np.minimum(np.floor(flat / period), n_periods - 1).astype(int)
    tprime = flat - k * period
    windows = np.searchsorted(sequence.boundaries[1:-1], tprime, side="right")
    tones = _window_tones(sequence, windows, tprime)
    return np.einsum("mu,mu->m", tones, coeffs[windows, :, k]).reshape(times.shape)


def fourier_closed_form_two_step(sequence, l_range=(-4, 4), K=None):
    """Line spectrum of a two-step drive, by default in the infinite window.

    The same exact projection as :func:`fourier_numeric`; with K=None it
    returns the K -> infinity limit, the discrete lines themselves.  Unlike
    :func:`fourier_numeric` it warns when a probe meets a window tone.

    Parameters
    ----------
    sequence : PulseSequence
        Exactly two steps.
    l_range : (int, int)
        Inclusive range of the summation index l.
    K : int or None
        Number of retained periods; None gives the infinite window, where
        lines closer than pi/(1024*T) merge into one.

    Returns
    -------
    SpectralModel

    Warns
    -----
    DegenerateFrequencyWarning
        When a probe frequency is resonant with a window tone 2*E_n and
        the limiting form of the integral is substituted.
    """
    if len(sequence.steps) != 2:
        raise ValueError("closed form requires exactly two steps")
    return _line_spectrum(sequence, l_range, K, warn=True)

def dominant_model(model, max_terms=3, floor=0.02):
    """Reduced model keeping at most max_terms components above the floor.

    Components are already amplitude-sorted, so this truncates the list;
    max_terms=0 yields the offset-only model.
    """
    if max_terms < 0:
        raise ValueError("max_terms must be non-negative")
    kept = tuple(c for c in model.components if c.amplitude >= floor)[:max_terms]
    return SpectralModel(model.offset, kept)


def two_step_empirical_model(sequence, p=None):
    """Two-tone model of a resonant-plus-detuned two-step drive.

    For sequences with vanishing effective detuning the transition
    probability is approximately

        1/2 - (1 - lam)/2 * cos(2*omega_eff*t) - lam/2 * cos(2*omega_minus*t)

    with lam = p * (1 - 2*theta_1*theta_2), theta_n = E_n*tau_n/pi the
    dynamical phases in units of pi, and p defaulting to max(eps_n/E_n)**2.

    Parameters
    ----------
    sequence : PulseSequence
        Exactly two steps with |delta_eff| * T < 1e-6 on the positive-a
        branch.
    p : float or None
        Weight of the secondary tone; None uses the default above.

    Returns
    -------
    SpectralModel
    """
    if len(sequence.steps) != 2:
        raise ValueError("empirical model requires exactly two steps")
    heff = effective_hamiltonian(sequence, branch="positive_a")
    if abs(heff.delta_eff) * sequence.period >= 1e-6:
        raise ValueError(
            "effective detuning too large for the empirical model: "
            "|delta_eff|*T = %g" % (abs(heff.delta_eff) * sequence.period)
        )
    if p is None:
        p = max((s.epsilon / s.energy) ** 2 for s in sequence.steps)
    phases = [s.energy * s.tau / math.pi for s in sequence.steps]
    lam = p * (1.0 - 2.0 * phases[0] * phases[1])
    comps = [
        SpectralComponent(
            2.0 * heff.omega_eff, 0.5 * (1.0 - lam), math.pi, "sideband", 0
        ),
        SpectralComponent(
            2.0 * heff.sideband_minus, 0.5 * lam, math.pi, "sideband", -1
        ),
    ]
    comps = [c for c in comps if abs(c.amplitude) > 1e-15]
    comps.sort(key=lambda comp: -comp.amplitude)
    return SpectralModel(0.5, tuple(comps))


def _aligned_times(sequence, t_end, per_step):
    """Boundary-aligned sample times on [0, t_end], >= per_step per step."""
    return _aligned_signal(sequence, t_end, per_step)[0]


def _aligned_signal(sequence, t_end, per_step):
    """Boundary-aligned sample times on [0, t_end] and the exact P on them.

    A full period holds per_step samples per step, the last on the step's
    upper boundary; a partial last period at least per_step (and two) per
    step it reaches.  Sample j of period k is P at the exact point
    k*T + s_j, and the end of a period is offset 0 of the next one.  All
    periods are one product of the window tones and the coefficients of
    :func:`piecewise_coefficients`, so no time is split back into (k, s).
    """
    period = sequence.period
    bounds = sequence.boundaries
    n_full = int(math.floor(t_end / period))
    full = [np.linspace(t0, t1, per_step + 1)[1:] for t0, t1 in zip(bounds[:-1], bounds[1:])]
    tail = []
    left = t_end - n_full * period
    if left > 1e-12 * period:
        for t0, t1 in zip(bounds[:-1], bounds[1:]):
            if t0 >= left:
                break
            hi = min(t1, left)
            n = max(2, int(math.ceil(per_step * (hi - t0) / (t1 - t0))))
            tail.append(np.linspace(t0, hi, n + 1)[1:])
    base = np.concatenate(full)
    times = np.concatenate(
        [[0.0]] + [base + k * period for k in range(n_full)] + [n_full * period + o for o in tail]
    )
    coeffs = piecewise_coefficients(sequence, n_full + 1)
    # each window opens on its lower boundary; T is offset 0 of the next period
    heads = [np.concatenate(([t0], offsets[:-1])) for t0, offsets in zip(bounds, full)]
    grid = np.concatenate([
        _window_tones(sequence, n, offsets) @ coeffs[n] for n, offsets in enumerate(heads)
    ]).T
    last = [_window_tones(sequence, n, o) @ coeffs[n, :, n_full] for n, o in enumerate(tail)]
    return times, np.concatenate([grid[:n_full].ravel(), grid[n_full, :1]] + last)


def model_error(sequence, model, t_s=None, per_step=64):
    """Time-averaged absolute deviation of a model from the exact signal.

    eps = (1/t_s) * integral_0^t_s |P_exact(t) - P_model(t)| dt, by
    trapezoidal quadrature on a boundary-aligned grid with at least 64
    samples per step; P_exact comes from the line tables.

    Parameters
    ----------
    sequence : PulseSequence
    model : SpectralModel or BeatPrediction
        Anything with an ``evaluate(times)`` method.
    t_s : float or None
        Averaging horizon; None uses 40 periods.
    per_step : int
        Samples per step, at least 64.

    Returns
    -------
    ModelError
        Fields (value, horizon).
    """
    if t_s is None:
        t_s = 40.0 * sequence.period
    if t_s <= 0.0:
        raise ValueError("horizon must be positive")
    times, exact = _aligned_signal(sequence, t_s, max(64, per_step))
    approx = model.evaluate(times)
    value = float(np.trapezoid(np.abs(exact - approx), times)) / t_s
    return ModelError(value, t_s)


def write_csv(model, stream):
    """Write a spectral model as CSV: offset comment plus component rows.

    Columns are (l, frequency, amplitude, phase, family); all floats are
    rendered with %.17g so the output is byte-reproducible.
    """
    stream.write("# offset = %.17g\n" % model.offset)
    stream.write("l,frequency,amplitude,phase,family\n")
    for comp in model.components:
        index = "" if comp.index is None else str(comp.index)
        stream.write(
            "%s,%.17g,%.17g,%.17g,%s\n"
            % (index, comp.frequency, comp.amplitude, comp.phase, comp.family)
        )
