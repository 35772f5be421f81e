"""Dynamical phenomena: classification, beats, and sequence design.

The one-period propagator coefficients decide the long-time character of
the dynamics: vanishing (c, d) freezes the population (coherent
destruction of tunneling), vanishing b allows complete transitions, and
rational rotation angles make the stroboscopic evolution periodic or
stepwise.  For drives built from quarter-cycle pulses the spectrum
collapses onto two neighboring lines and the signal beats; the beat
frequency is predicted in closed form from the effective Hamiltonian and,
in a metrology setting, inverted for the relative phase of the two pulses.
"""

import itertools
import math
from collections import namedtuple

from .core import BeatPrediction, PulseSequence, validate
from .effective import effective_hamiltonian
from .propagator import _window_starts, compose, period_propagator
from .spectrum import _line_spectrum, _phase_integral, _projector, dominant_model

# numpy is imported by the functions that build arrays (see the package __init__)

# dynamical-phase tolerance when recognizing quarter- and half-cycle pulses
_AREA_TOL = 1e-6


class PhenomenonFlag(namedtuple("PhenomenonFlag", ["name", "active", "residual", "index"])):
    """One classified phenomenon.

    ``residual`` is the quantity compared against the tolerance;
    ``index`` carries the period multiple for the periodic and stepwise
    flags and is None elsewhere.
    """

    __slots__ = ()

    def line(self):
        text = "%s: %s residual=%.17g" % (
            self.name,
            "yes" if self.active else "no",
            self.residual,
        )
        if self.index is not None:
            text += " index=%d" % self.index
        return text


class PhenomenaReport(
    namedtuple(
        "PhenomenaReport",
        ["cdt", "complete_transition", "periodic", "stepwise", "swapping", "beat"],
    )
):
    """Classification flags for one sequence, one per phenomenon."""

    __slots__ = ()

    @property
    def active(self):
        return tuple(f.name for f in self if f.active)

    def lines(self):
        return [f.line() for f in self]


def classify(sequence, tol=1e-3, max_index=64):
    """Flag the dynamical phenomena of a periodic drive.

    The first four flags test the one-period propagator coefficients
    (a, b, c, d) and the rotation angle Theta = atan2(|(b, c, d)|, a):

    * cdt: sqrt(c**2 + d**2) < tol, the drive never moves population;
    * complete_transition: |b| < tol, some time reaches unit transfer;
    * periodic: the smallest index with n*Theta within tol of a multiple
      of 2*pi, where the stroboscopic evolution returns to the identity;
    * stepwise: the smallest index with |cos(n*Theta)| < tol, where the
      stroboscopic population is pinned at its extreme;
    * swapping: |cos(Theta)| = |a| < tol, stepwise already at one period;
    * beat: the two dominant spectral lines are close in frequency
      (difference below a tenth of the sum) and comparable in amplitude
      (within a factor 3).  The lines are the infinite window's discrete
      lines (see :func:`fourier_numeric` with K=None), so no window
      leakage makes a second line; a pair closer than pi/(4096*T) merges
      into one line, shows no beat within 4096 periods and is not flagged.

    Parameters
    ----------
    sequence : PulseSequence
    tol : float
        Residual tolerance shared by all flags; finite and positive.
    max_index : int
        Largest period multiple searched for periodic/stepwise returns; at
        least 1, since an empty search would report every return as absent.

    Returns
    -------
    PhenomenaReport
    """
    if max_index < 1:
        raise ValueError("max_index must be at least 1, got %r" % (max_index,))
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive, got %r" % (tol,))
    per = period_propagator(sequence)
    theta = per.angle

    cdt_res = math.hypot(per.c, per.d)
    ct_res = abs(per.b)
    swap_res = abs(per.a)

    periodic = PhenomenonFlag("periodic", False, math.inf, None)
    stepwise = PhenomenonFlag("stepwise", False, math.inf, None)
    for n in range(1, max_index + 1):
        res = abs(math.remainder(n * theta, 2.0 * math.pi))
        if not periodic.active and res < tol:
            periodic = PhenomenonFlag("periodic", True, res, n)
        res = abs(math.cos(n * theta))
        if not stepwise.active and res < tol:
            stepwise = PhenomenonFlag("stepwise", True, res, n)
        if periodic.active and stepwise.active:
            break

    beat = PhenomenonFlag("beat", False, math.inf, None)
    strong = dominant_model(_line_spectrum(sequence, (-3, 3), None), 2).components
    if len(strong) == 2:
        first, second = strong
        diff = abs(first.frequency - second.frequency)
        total = abs(first.frequency + second.frequency)
        if total > 0.0:
            res = diff / total
            comparable = second.amplitude >= first.amplitude / 3.0
            beat = PhenomenonFlag("beat", res < 0.1 and comparable, res, None)

    return PhenomenaReport(
        PhenomenonFlag("cdt", cdt_res < tol, cdt_res, None),
        PhenomenonFlag("complete_transition", ct_res < tol, ct_res, None),
        periodic,
        stepwise,
        PhenomenonFlag("swapping", swap_res < tol, swap_res, None),
        beat,
    )


def _beat_frequencies(n, heff):
    # two-line rules for quarter-cycle drives with n resonant steps
    omega = heff.omega_eff
    omega_m = heff.sideband_minus
    if n % 2:
        varpi = 0.5 * ((n - 1) * omega_m + (n + 1) * omega)
        varpi_prime = 0.5 * ((n + 1) * omega_m + (n - 1) * omega)
    else:
        varpi = 0.5 * (n * omega_m + (n - 2) * omega)
        varpi_prime = 0.5 * (n * omega_m + (n + 2) * omega)
    return varpi, varpi_prime


def _split_regimes(sequence, resonant_tol):
    resonant = []
    detuned = []
    for i, step in enumerate(sequence.steps):
        if abs(step.delta) < resonant_tol * step.epsilon:
            resonant.append(i)
        elif abs(step.delta) > 10.0 * step.epsilon:
            detuned.append(i)
        else:
            raise ValueError(
                "step %d is neither resonant nor strongly detuned "
                "(|delta| = %g, epsilon = %g)" % (i + 1, abs(step.delta), step.epsilon)
            )
    return resonant, detuned


def beat_prediction(sequence, resonant_tol=0.01):
    """Predicted beat of a drive built from quarter-cycle pulses.

    Every step must be either resonant (|delta| < resonant_tol * epsilon)
    or strongly detuned (|delta| > 10 * epsilon), and every dynamical
    phase E_n*tau_n must equal pi/2, with one half-cycle (pi) step allowed
    when the step count is odd.  The two model tones follow from the
    effective frequencies; a resonant half-cycle step shifts the line
    rules by one index, while a detuned one drops out of the sequence
    entirely and the rules apply to the remaining steps.

    The time shift t_p minimises the time integral of the squared misfit
    over K = ceil(min(max(4*pi/(omega_b*T), 10), 2000)) whole periods, or
    40 when omega_b = 0, from the exact projection of the line tables
    without samples (see :func:`_fit_time_shift`).

    Parameters
    ----------
    sequence : PulseSequence
    resonant_tol : float
        Relative detuning bound below which a step counts as resonant, in
        (0, 10]: above 10 it would reach into the strongly detuned regime.

    Returns
    -------
    BeatPrediction
        Fields (varpi_1, varpi_1_prime, omega_b, t_p, n_resonant).

    Raises
    ------
    ValueError
        If resonant_tol lies outside (0, 10] or is nan, a step is in
        neither regime, the dynamical phases are not quarter/half cycles,
        or no step is resonant.
    """
    if not 0.0 < resonant_tol <= 10.0:
        raise ValueError("resonant_tol must lie in (0, 10], got %r" % (resonant_tol,))
    resonant, _ = _split_regimes(sequence, resonant_tol)
    if not resonant:
        raise ValueError("no resonant step; nothing beats")
    areas = [s.energy * s.tau for s in sequence.steps]
    n_steps = len(sequence.steps)

    half_cycle = [
        i for i, a in enumerate(areas) if abs(a - math.pi) < _AREA_TOL
    ]
    quarter = [
        i for i, a in enumerate(areas) if abs(a - 0.5 * math.pi) < _AREA_TOL
    ]
    heff = effective_hamiltonian(sequence, branch="positive_a")
    n1 = len(resonant)
    if n_steps % 2 == 0:
        if len(quarter) != n_steps:
            raise ValueError("even step counts need all E_n tau_n = pi/2")
        varpi, varpi_prime = _beat_frequencies(n1, heff)
    else:
        if len(half_cycle) != 1 or len(quarter) != n_steps - 1:
            raise ValueError(
                "odd step counts need one E_n tau_n = pi and the rest pi/2"
            )
        # A half-cycle step contributes exactly minus the identity, so it
        # shifts the frequency rules without touching the physical period:
        # resonant, it doubles the usual dynamical phase and the rules apply
        # at n1 + 1; detuned, it drops out and the remaining even-count
        # rules apply at n1 unchanged.
        if half_cycle[0] in resonant:
            varpi, varpi_prime = _beat_frequencies(n1 + 1, heff)
        else:
            varpi, varpi_prime = _beat_frequencies(n1, heff)

    # Each tone is half a sum of two non-negative products, which rounds it
    # by at most 1.5 ulps: equal tones may come out up to 3 ulps of the
    # larger apart, so a difference within 4 ulps is read as one tone.
    if abs(varpi_prime - varpi) <= 4.0 * math.ulp(max(abs(varpi), abs(varpi_prime))):
        varpi_prime = varpi
    omega_b = abs(varpi_prime - varpi)
    t_p = _fit_time_shift(sequence, varpi, varpi_prime, omega_b)
    return BeatPrediction(varpi, varpi_prime, omega_b, t_p, n1)


def _fit_moments(sequence, rates, periods):
    """Correlations integral f*(1/2 - P) dt and Gram matrix integral f f^T dt
    over K = ``periods`` periods, f = (cos(r*t) for r in rates, then sin(r*t)).
    With G(x) = integral exp(1j*x*t) dt, the correlations are the parts of
    G(r)/2 - (K*T/2)*project(r) (see :func:`spectrum._projector`), and the
    Gram entries those of (G(r - q) +/- G(r + q))/2."""
    import numpy as np

    horizon = periods * sequence.period
    project = _projector(sequence, periods)
    z = np.array([0.5 * _phase_integral(r, horizon) - 0.5 * horizon * project(r) for r in rates])
    plus, minus = (np.array([[_phase_integral(r + sign * q, horizon) for q in rates]
                             for r in rates]) for sign in (1.0, -1.0))
    # cos(r*t)*sin(q*t) = (sin((r + q)*t) - sin((r - q)*t))/2, and so on
    gram = 0.5 * np.block([[(minus + plus).real, (plus - minus).imag],
                           [(plus + minus).imag, (minus - plus).real]])
    return np.concatenate((z.real, z.imag)), gram


def _fit_time_shift(sequence, varpi, varpi_prime, omega_b):
    """Least-squares time shift of the two-tone model against the signal.

    The model is 1/2 - w.f/4, with f the waveforms of :func:`_fit_moments`
    at the rates 2*varpi, 2*varpi_prime and w their values at t_p, so over
    the horizon of :func:`beat_prediction` the misfit is
    integral (1/2 - P)**2 dt - w.c/2 + w.G.w/16 and a candidate costs O(1).
    Both tones are phase-locked at t_p, so matching the two tone phases of
    the signal can take a shift of up to a beat period: a dense scan covers
    that range, Newton steps refine each of its local minima, and the
    lowest point wins.
    """
    import numpy as np

    period = sequence.period
    periods = (math.ceil(min(max(4.0 * math.pi / omega_b / period, 10.0), 2000.0))
               if omega_b > 0.0 else 40)
    rates = np.array([2.0 * varpi, 2.0 * varpi_prime])
    corr, gram = _fit_moments(sequence, rates, periods)

    def tones(t):
        phases = np.multiply.outer(rates, t)
        return np.concatenate((np.cos(phases), np.sin(phases)))

    def cost(w):
        return -0.5 * (corr @ w) + np.sum(w * (gram @ w), axis=0) / 16.0

    mean_tone = 0.5 * abs(varpi + varpi_prime)
    half_range = max(math.pi / omega_b if omega_b > 0.0 else 0.0, math.pi / mean_tone, period)
    step = math.pi / mean_tone / 40.0
    count = min(int(2.0 * half_range / step) + 1, 400001)
    shifts = np.linspace(-half_range, half_range, count)
    costs = cost(tones(shifts))
    index = np.flatnonzero((np.diff(costs, prepend=math.inf) <= 0.0)
                           & (np.diff(costs, append=math.inf) >= 0.0))
    lo, hi = shifts[np.maximum(index - 1, 0)], shifts[np.minimum(index + 1, count - 1)]
    # Newton from each local minimum of the scan, kept between its neighbours,
    # on w' = rate*(-sin, cos) and w'' = -rate**2*w.  A tone near sqrt(float
    # max) (one resonant step of epsilon = 1e153) overflows the curvature;
    # an inf or nan curvature leaves the point as it is.
    rate = np.tile(rates, 2)[:, None]
    t_p = shifts[index]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(6):
            w = tones(t_p)
            dw = rate * np.concatenate((-w[2:], w[:2]))
            gw = gram @ w
            ddw = -rate * rate * w
            slope = -0.5 * (corr @ dw) + np.sum(dw * gw, axis=0) / 8.0
            curve = -0.5 * (corr @ ddw) + np.sum(ddw * gw + dw * (gram @ dw), axis=0) / 8.0
            ok = (0.0 < curve) & (curve < math.inf)
            t_p = np.where(ok, np.clip(t_p - slope / np.where(ok, curve, 1.0), lo, hi), t_p)
    return float(t_p[np.argmin(cost(tones(t_p)))])


def phase_from_beat(omega_b, sequence):
    """Relative pulse phase recovered from a measured beat frequency.

    For a resonant first pulse and a strongly detuned second pulse with
    quarter-cycle areas, the beat frequency is approximately
    (2*eps_2 / (T*E_2)) * cos(theta_1 - theta_2); this inverts that
    relation.  Both sign branches of the arccos are returned.

    Parameters
    ----------
    omega_b : float
        Measured beat frequency, in [0, 2*eps_2/(T*E_2)].
    sequence : PulseSequence
        Two steps in the metrology configuration.

    Returns
    -------
    (float, float)
        The two candidate values of theta_1 - theta_2.
    """
    if len(sequence.steps) != 2:
        raise ValueError("phase recovery needs exactly two steps")
    step1, step2 = sequence.steps
    if abs(step1.delta) >= 0.01 * step1.epsilon:
        raise ValueError("first step must be resonant")
    if abs(step2.delta) <= 10.0 * step2.epsilon:
        raise ValueError("second step must be strongly detuned")
    for step in sequence.steps:
        if abs(step.energy * step.tau - 0.5 * math.pi) > _AREA_TOL:
            raise ValueError("both dynamical phases must equal pi/2")
    if omega_b < 0.0:
        raise ValueError("beat frequency must be non-negative")
    scale = 2.0 * step2.epsilon / (sequence.period * step2.energy)
    x = omega_b / scale
    # the linearized inversion misses the true range edge by up to
    # (eps_2/E_2)^2/6 < 1%, so a measured beat slightly above the scale is
    # still a phase difference of zero, not an input error
    if x > 1.01:
        raise ValueError(
            "beat frequency %g exceeds the invertible range %g" % (omega_b, scale)
        )
    diff = math.acos(min(x, 1.0))
    return diff, -diff


def complete_transition_time(eps1, eps2, tau1, tau2):
    """First time a resonant two-step drive reaches unit transfer.

    Valid for resonant steps shorter than a quarter cycle each; the
    population then climbs stepwise and first touches 1 at
    pi*(tau1 + tau2) / (2*(eps1*tau1 + eps2*tau2)).
    """
    for eps, tau in ((eps1, tau1), (eps2, tau2)):
        if tau >= 0.5 * math.pi / eps:
            raise ValueError("steps must be shorter than a quarter cycle")
    return 0.5 * math.pi * (tau1 + tau2) / (eps1 * tau1 + eps2 * tau2)


# free parameter of the design problems -> DriveStep field of the last step
_FREE_FIELDS = {
    "detuning": "delta",
    "coupling": "epsilon",
    "phase": "theta",
    "durations": "tau",
}


def _with_field(sequence, field, value):
    *head, last = sequence.steps
    return PulseSequence((*head, last._replace(**{_FREE_FIELDS[field]: value})))


def _last_step_root(sequence, field):
    """Root of b(T) in one field of the last step; None if there is none.

    U(T) = U_N P, with P the product of the earlier steps (1 for N = 1).
    For detuning and coupling, the first sign change of b(T) on a
    2048-point grid scaled by the largest |delta| or epsilon is bisected
    to two neighbouring floats, the root being the one of smaller |b(T)|.
    With g the b of P and of its unit turns about the three axes, g_0 = b
    and (g_x, g_y, g_z) = (c, -d, a) of P,
    b(T) = cos(phi) g_0 + sin(phi) (axis . g), phi = E_N tau_N.
    The duration root is the first zero not lost in the rounding of T.  The
    axis is linear in (1, cos theta_N, sin theta_N): b(T) = A + B cos +
    C sin, and the smaller of its two zeros in [-pi, pi] is the phase root.
    A null last step (E_N = 0) leaves b(T) fixed in both and has no root.
    """
    last = sequence.steps[-1]
    (*_, prefix), _ = _window_starts(sequence)
    if field in ("detuning", "coupling"):
        def point(x):
            # (x, sign of b(T), |b(T)|), b(T) rounded as period_propagator rounds it
            step = last._replace(**{_FREE_FIELDS[field]: x})
            b = compose(prefix, step, step.tau).b
            return x, (b > 0.0) - (b < 0.0), abs(b)

        import numpy as np

        scale = max(max(abs(s.delta), s.epsilon) for s in sequence.steps)
        low, high = (-10.0, 10.0) if field == "detuning" else (1e-6, 20.0)
        grid = np.linspace(low * scale, high * scale, 2048).tolist()
        for lo, hi in itertools.pairwise(map(point, grid)):
            if lo[1] != hi[1]:
                break
        else:
            return None
        # halving each end cannot overflow; the loop ends at neighbouring floats
        while lo[0] < (x := 0.5 * lo[0] + 0.5 * hi[0]) < hi[0]:
            mid = point(x)
            lo, hi = (mid, hi) if mid[1] == lo[1] else (lo, mid)
        return (lo if lo[2] <= hi[2] else hi)[0]
    energy = last.energy
    if energy == 0.0:
        return None
    gx, gy, gz = prefix.c, -prefix.d, prefix.a
    if field == "durations":
        ax, ay, az = last.axis
        phi = math.atan2(-prefix.b, ax * gx + ay * gy + az * gz) % math.pi
        head = PulseSequence(sequence.steps[:-1]).period
        if head + phi / energy == head:
            phi += math.pi
        return phi / energy
    cn, sn = math.cos(energy * last.tau), math.sin(energy * last.tau)
    const = cn * prefix.b + sn * (0.5 * last.delta / energy) * gz
    turn = sn * last.epsilon / energy
    amp = math.hypot(turn * gx, turn * gy)
    # |A| >= hypot(B, C) leaves no sign change, only a tangent zero
    if not abs(const) < amp:
        return None
    centre = math.atan2(turn * gy, turn * gx)
    half = math.acos(-const / amp)
    return min(math.remainder(centre + s, 2.0 * math.pi) for s in (-half, half))


def design_manipulation(sequence, target, free_parameter):
    """Tune one field of the last step to reach a target phenomenon.

    target = 'cdt' freezes the population of a two-step drive: it requires
    resonant steps, |delta_n| <= 1e-12 epsilon_n, and sets the second phase
    opposite to the first with matched pulse areas, adjusting the requested
    free parameter (phase, coupling, or durations).

    target = 'complete_transition' zeroes the b coefficient of the period
    propagator U(T) = U_N P of N steps by tuning the free parameter
    (detuning, coupling, phase, or durations) of step N; a sequence
    already satisfying the target is returned unchanged.  Durations and
    phase roots are closed forms, detuning and coupling roots a bisection
    on a grid (see :func:`_last_step_root`).  A ValueError reports a
    target with no root.

    Parameters
    ----------
    sequence : PulseSequence
        All steps but the last are left untouched.
    target : {'cdt', 'complete_transition'}
    free_parameter : {'detuning', 'coupling', 'phase', 'durations'}

    Returns
    -------
    PulseSequence
    """
    if target == "cdt":
        if len(sequence.steps) != 2:
            raise ValueError("cdt design operates on two-step sequences")
        step1, step2 = sequence.steps
        if any(abs(step.delta) > 1e-12 * step.epsilon for step in sequence.steps):
            raise ValueError("cdt design requires resonant steps (delta = 0)")
        opposite = step1.theta + math.pi
        if free_parameter == "phase":
            if not math.isclose(
                step1.epsilon * step1.tau, step2.epsilon * step2.tau, rel_tol=1e-9
            ):
                raise ValueError("cdt by phase alone needs matched pulse areas")
            out = _with_field(sequence, "phase", opposite)
        elif free_parameter == "coupling":
            _require_opposite(step1, step2)
            out = _with_field(
                sequence, "coupling", step1.epsilon * step1.tau / step2.tau
            )
        elif free_parameter == "durations":
            _require_opposite(step1, step2)
            out = _with_field(
                sequence, "durations", step1.epsilon * step1.tau / step2.epsilon
            )
        else:
            raise ValueError(
                "cdt design supports phase, coupling, or durations, got %r"
                % (free_parameter,)
            )
        return validate(out)

    if target == "complete_transition":
        if free_parameter not in _FREE_FIELDS:
            raise ValueError("unknown free parameter %r" % (free_parameter,))
        if abs(period_propagator(sequence).b) < 1e-12:
            return sequence

        root = _last_step_root(sequence, free_parameter)
        if root is None:
            raise ValueError("no sign change of the target residual in the search bracket")
        return validate(_with_field(sequence, free_parameter, root))

    raise ValueError("unknown target %r" % (target,))


def _require_opposite(step1, step2):
    gap = math.remainder(step2.theta - step1.theta - math.pi, 2.0 * math.pi)
    if abs(gap) > 1e-9:
        raise ValueError("cdt design needs opposite phases, theta2 = theta1 + pi")
