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
spectrum is exact and its cost does not grow with K.  No threshold has a
unit, so a time unit changed by a power of two scales each frequency and
moves no other bit.  As K -> infinity only discrete lines survive, at
l*omega_T and +/-2*Theta/T + l*omega_T; a comb line closer to a probe
than pi/(4096*T), the resolution of a 4096-period window, counts as that
probe's line.

Lines are labelled by their probe: "sideband" components sit at
|2*omega_eff + l*omega_T| with omega_eff on the positive-a branch, and
"harmonic" components at integer multiples of omega_T.  Which probes
become lines depends on their frequency alone, so they are chosen before
any is projected, and only the kept ones cost a projection.
"""

import cmath
import math
from collections import namedtuple

from .core import SpectralComponent, SpectralModel
from .effective import effective_hamiltonian
from .propagator import _window_starts, rotate

# numpy is imported by the functions that build arrays (see the package __init__)

# longest projection window: the comb sums carry K times the rounding of a
# probe phase, about ulp(omega*T), which moves line phases by about 2e-4 at
# 1e12 periods and passes one radian near 1e15
_MAX_PERIODS = 1_000_000

# in the infinite-window limit, comb lines closer than this (in units of
# 1/T) to a probe are that probe's line: the resolution of 4096 periods,
# the one horizon that decides which K=None lines are distinct
_RESOLUTION = math.pi / 4096.0

ModelError = namedtuple("ModelError", ["value", "horizon"])


def _phase_integral(x, tau):
    """G(x) = integral_0^tau exp(1j*x*s) ds = tau*sinc(y)*exp(1j*y), y = x*tau/2."""
    y = 0.5 * x * tau
    return tau * (math.sin(y) / y if y else 1.0) * cmath.exp(1j * y)


def _window_integral(omega, tone, tau):
    """Projection of (1, cos(tone*s), sin(tone*s)) on exp(1j*omega*s).

    Returns the three integrals over s in [0, tau].
    """
    gp = _phase_integral(omega + tone, tau)
    gm = _phase_integral(omega - tone, tau)
    return _phase_integral(omega, tau), 0.5 * (gp + gm), (gp - gm) / 2j


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
    import numpy as np

    starts, per = _window_starts(sequence)
    sin_theta = math.hypot(per.b, per.c, per.d)
    theta = per.angle if sin_theta > 0.0 else 0.0
    turn = math.copysign(2.0 * math.atan2(sin_theta, abs(per.a)), per.a)
    # (c, d) of X, X G, Y, Y G for every window; X G is X (U(T) - a) r,
    # the product on the right with cosine 0 and sine r about (d, c, b) of
    # U(T), so a null rotation takes r = 0 and no G part
    ratio = 1.0 / sin_theta if sin_theta > 0.0 else 0.0
    axis = (per.d, per.c, per.b)
    if ratio == math.inf:  # a subnormal sin(Theta): normalise the axis instead
        ratio, axis = 1.0, tuple(x / sin_theta for x in axis)
    rows = []
    for prefix, step in zip(starts, sequence.steps):
        for left in (prefix, rotate(prefix, 0.0, 1.0, step.axis)):
            turned = rotate(left, 0.0, ratio, axis, -1)
            rows += [(left[2], left[3]), turned[2:]]
    m = np.array(rows).reshape(len(starts), 2, 2, 2).transpose(0, 3, 1, 2)
    # x x^T = sum_u h_u(2*angle) * pair[u] for x = (cos angle, sin angle)
    pair = 0.5 * np.array([[[1.0, 0.0], [0.0, 1.0]],
                           [[1.0, 0.0], [0.0, -1.0]],
                           [[0.0, 1.0], [1.0, 0.0]]])
    tables = np.einsum("upq,njqr,vrs,njps->nuv", pair, m, pair, m)
    return tables, theta, turn


def _tones(phase):
    """h(phase) = (1, cos, sin) of an array of phases, along a new last axis."""
    import numpy as np

    return np.stack([np.ones_like(phase), np.cos(phase), np.sin(phase)], axis=-1)


def _window_tones(step, start, offsets):
    """h(2*E*(offset - start)), shape (m, 3), of m offsets in the window of
    ``step`` that opens at ``start``."""
    return _tones(2.0 * step.energy * (offsets - start))


def _comb(x, K):
    """(1/K) * sum_{k<K} exp(1j*k*x); K=None gives the limit K -> infinity.

    The phase is reduced to r in [-pi, pi] first, so the closed form of the
    geometric sum stays exact on and near its peaks at multiples of 2*pi.
    The limit is 1 on a peak and 0 elsewhere; a peak within the resolution
    pi/4096 counts as hit.
    """
    r = math.remainder(x, 2.0 * math.pi)
    if K is None:
        return 1.0 if abs(r) < _RESOLUTION else 0.0
    if r == 0.0:
        return 1.0
    return cmath.exp(0.5j * (K - 1) * r) * (math.sin(0.5 * K * r) / (K * math.sin(0.5 * r)))


def _line_spectrum(sequence, l_range, K):
    """Exact line spectrum over K periods, or the infinite window for None.

    The probes are the sidebands 2*omega_eff + l*omega_T (positive-a
    branch), then the harmonics (l + 1)*omega_T, for l over the inclusive
    range.  Which probes become lines depends on frequency alone, so each
    is folded to |omega| and chosen before it is projected, with tol =
    pi/(K*T), or pi/(4096*T) for K=None.  A probe is dropped below tol (the
    window cannot tell it from the constant, which the offset carries),
    above the cap 2*pi/min(tau_n), or within tol of a kept line: the window
    cannot resolve the two, so each carries the full merged line, and the
    first in probe order is kept, never summed with the rest.  Kept lines
    are bucketed by freq // tol, so one within tol of a probe lies in its
    bucket or a neighbour, and the cost grows with the probe count rather
    than its square.
    """
    if K is not None and K < 1:
        raise ValueError("need at least one period, got K=%r" % (K,))
    if K is not None and K > _MAX_PERIODS:
        raise ValueError("at most %d periods, got K=%r" % (_MAX_PERIODS, K))
    import numpy as np

    period = sequence.period
    heff = effective_hamiltonian(sequence, branch="positive_a")
    lmin, lmax = l_range
    if lmin > lmax:
        raise ValueError("empty index range %r" % (l_range,))
    tables, theta, _ = _line_table(sequence)
    starts = sequence.boundaries[:-1]

    def project(omega):
        # (2/KT) integral of P(t) exp(1j*omega*t) over the K periods
        phi = omega * period
        plus, minus = _comb(phi + 2.0 * theta, K), _comb(phi - 2.0 * theta, K)
        sums = np.array([_comb(phi, K), 0.5 * (plus + minus), -0.5j * (plus - minus)])
        windows = np.array([
            _window_integral(omega, 2.0 * step.energy, step.tau)
            for step in sequence.steps
        ])
        per_window = np.einsum("nu,nuv,v->n", windows, tables, sums)
        return complex(2.0 / period * (np.exp(1j * omega * starts) @ per_window))

    offset = 0.5 * project(0.0).real
    cap = 2.0 * math.pi / sequence.min_tau * (1.0 + 1e-12)
    tol = (_RESOLUTION if K is None else math.pi / K) / period
    omega_t = sequence.omega_t
    kept = {}
    comps = []
    for family, shift, base in (("sideband", 0, 2.0 * heff.omega_eff), ("harmonic", 1, 0.0)):
        for l in range(lmin + shift, lmax + shift + 1):
            omega = base + l * omega_t
            freq = abs(omega)
            if freq < tol or freq > cap:
                continue
            key = freq // tol
            nearby = (kept.get(near, ()) for near in (key - 1.0, key, key + 1.0))
            if any(abs(freq - other) < tol for bucket in nearby for other in bucket):
                continue
            kept.setdefault(key, []).append(freq)
            # a negative probe folds onto |omega| with the conjugate phasor
            z = project(omega)
            z = z.conjugate() if omega < 0.0 else z
            comps.append(SpectralComponent(freq, abs(z), math.atan2(z.imag, z.real), family, l))
    comps.sort(key=lambda comp: -comp.amplitude)
    return SpectralModel(offset, tuple(comps))


def fourier_numeric(sequence, l_range=(-4, 4), K=256, samples_per_step=64):
    """Line spectrum of the transition probability, the route for any window.

    Projects the exact signal over K periods on the sideband frequencies
    2*omega_eff + l*omega_T (positive-a branch) and the harmonics of
    omega_T.  Valid for any step count and in every regime, a probe on a
    window tone included; the projection is exact (see the module
    docstring), so nothing is sampled.  K=None gives the discrete lines of
    the infinite window.

    Parameters
    ----------
    sequence : PulseSequence
    l_range : (int, int)
        Inclusive range of the summation index l.
    K : int or None
        Number of periods retained in the projection window, 1 to
        1,000,000; None gives the infinite window, where lines closer than
        pi/(4096*T) merge into one.
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
    return _line_spectrum(sequence, l_range, K)


def piecewise_coefficients(sequence, K):
    """Per-window tone coefficients of periods k = 0 .. K-1, any step count.

    Returns
    -------
    ndarray
        Shape (N, 3, K): entry [n, :, k] is C_n @ h(2*k*Theta), the
        weights of h = (1, cos, sin) in window n of period k, so that
        P(k*T + t_n + s) = h(2*E_n*s) @ coeffs[n, :, k] for 0 <= s <= tau_n.
    """
    if K < 1:
        raise ValueError("need at least one period, got K=%r" % (K,))
    import numpy as np

    tables, _, turn = _line_table(sequence)
    return tables @ _tones(turn * np.arange(K)).T


def fourier_closed_form_two_step(sequence, l_range=(-4, 4), K=None):
    """Line spectrum of a two-step drive, by default in the infinite window.

    The two-step form of :func:`fourier_numeric`: the same projection,
    with K=None, the discrete lines themselves, as its default.

    Parameters
    ----------
    sequence : PulseSequence
        Exactly two steps.
    l_range : (int, int)
        Inclusive range of the summation index l.
    K : int or None
        Number of retained periods, 1 to 1,000,000; None gives the infinite
        window, where lines closer than pi/(4096*T) merge into one.

    Returns
    -------
    SpectralModel
    """
    if len(sequence.steps) != 2:
        raise ValueError("closed form requires exactly two steps")
    return _line_spectrum(sequence, l_range, K)


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
        for n, step in enumerate(sequence.steps, 1):
            if step.energy == 0.0:
                raise ValueError("step %d is null: p = (epsilon/E)**2 is undefined" % n)
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


def _aligned_signal(sequence, t_end, per_step):
    """Boundary-aligned sample times on [0, t_end] and the exact P on them.

    A full period holds per_step samples per step, the last on the step's
    upper boundary; a partial last period at least per_step (and two) per
    step it reaches.  Sample j of period k is P at the exact point
    k*T + s_j, and the end of a period is offset 0 of the next one.  All
    periods are one product of the window tones and the coefficients of
    :func:`piecewise_coefficients`, so no time is split back into (k, s).
    """
    import numpy as np

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
    steps = sequence.steps
    grid = np.concatenate([
        _window_tones(steps[n], bounds[n], o) @ coeffs[n] for n, o in enumerate(heads)
    ]).T
    last = [_window_tones(steps[n], bounds[n], o) @ coeffs[n, :, n_full] for n, o in enumerate(tail)]
    return times, np.concatenate([grid[:n_full].ravel(), grid[n_full, :1]] + last)


def model_error(sequence, model, t_s=None):
    """Time-averaged absolute deviation of a model from the exact signal.

    eps = (1/t_s) * integral_0^t_s |P_exact(t) - P_model(t)| dt, by
    trapezoidal quadrature on a boundary-aligned grid with 64 samples per
    step; P_exact comes from the line tables.

    Parameters
    ----------
    sequence : PulseSequence
    model : SpectralModel or BeatPrediction
        Anything with an ``evaluate(times)`` method.
    t_s : float or None
        Averaging horizon; None uses 40 periods.

    Returns
    -------
    ModelError
        Fields (value, horizon).
    """
    if t_s is None:
        t_s = 40.0 * sequence.period
    if t_s <= 0.0:
        raise ValueError("horizon must be positive")
    import numpy as np

    times, exact = _aligned_signal(sequence, t_s, 64)
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
