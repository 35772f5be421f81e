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

import math
from collections import namedtuple

import numpy as np

from .core import BeatPrediction, PulseSequence, validate
from .effective import effective_hamiltonian
from .propagator import period_propagator, rotate, step_propagator
from .spectrum import _aligned_signal, fourier_numeric

# dynamical-phase tolerance when recognizing quarter- and half-cycle pulses
_AREA_TOL = 1e-6

# spectral components below this amplitude are ignored by the beat flag
_BEAT_FLOOR = 0.02


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
      (within a factor 3).  The probing window is sized to resolve the
      predicted line spacing; a pair too close to resolve within 4096
      periods shows no beat on any practical horizon and is not flagged.

    Parameters
    ----------
    sequence : PulseSequence
    tol : float
        Residual tolerance shared by all flags.
    max_index : int
        Largest period multiple searched for periodic/stepwise returns.

    Returns
    -------
    PhenomenaReport
    """
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
    # the canonical beat pair (2*omega_eff, omega_T - 2*omega_eff) must be
    # resolved by the projection window, so size K to its predicted spacing;
    # pairs still unresolved at the cap have no beat within any practical
    # horizon and merge into a single line instead
    theta_pos = theta if per.a >= 0.0 else math.pi - theta
    spacing = abs(sequence.omega_t - 4.0 * theta_pos / sequence.period)
    K = 64
    if spacing > 0.0:
        needed = 4.0 * math.pi / (spacing * sequence.period)
        K = int(min(4096.0, max(64.0, math.ceil(needed))))
    spectral = fourier_numeric(sequence, l_range=(-3, 3), K=K)
    strong = [c for c in spectral.components if c.amplitude >= _BEAT_FLOOR]
    if len(strong) >= 2:
        first, second = strong[0], strong[1]
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

    The time shift t_p is fitted by least squares against the exact signal
    of the line tables over max(4*pi/omega_b, 10 T), at most 2000 T, by a
    dense scan refined with Newton steps on the closed-form derivatives.

    Parameters
    ----------
    sequence : PulseSequence
    resonant_tol : float
        Relative detuning bound below which a step counts as resonant.

    Returns
    -------
    BeatPrediction
        Fields (varpi_1, varpi_1_prime, omega_b, t_p, n_resonant).

    Raises
    ------
    ValueError
        If a step is in neither regime, the dynamical phases are not
        quarter/half cycles, or no step is resonant.
    """
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

    omega_b = abs(varpi_prime - varpi)
    t_p = _fit_time_shift(sequence, varpi, varpi_prime, omega_b)
    return BeatPrediction(varpi, varpi_prime, omega_b, t_p, n1)


def _fit_time_shift(sequence, varpi, varpi_prime, omega_b):
    """Least-squares time shift of the two-tone model against the signal.

    Both model tones are phase-locked at t = t_p, so aligning them with
    the two independent tone phases of the signal can require shifts up
    to a full beat period; the search must cover that whole range.  The
    misfit is quadratic in the four phase factors cos/sin(2 varpi t_p),
    which makes a dense global scan cheap: the data inner products are
    accumulated once and each candidate costs O(1).
    """
    period = sequence.period
    if omega_b > 0.0:
        horizon = min(max(4.0 * math.pi / omega_b, 10.0 * period), 2000.0 * period)
    else:
        horizon = 40.0 * period
    times, exact = _aligned_signal(sequence, horizon, 16)

    def tones(t):
        # cos/sin of both model tones at t, a float or an array
        return np.stack([np.cos(2.0 * varpi * t), np.sin(2.0 * varpi * t),
                         np.cos(2.0 * varpi_prime * t), np.sin(2.0 * varpi_prime * t)])

    # misfit(t_p) = sum_t (g - w.f/4)^2 with g = 1/2 - P12, f the four
    # tone waveforms, and w the t_p phase factors
    basis = tones(times)
    corr = basis @ (0.5 - exact)
    gram = basis @ basis.T

    mean_tone = 0.5 * abs(varpi + varpi_prime)
    if mean_tone == 0.0:
        return 0.0
    half_range = max(math.pi / omega_b if omega_b > 0.0 else 0.0,
                     math.pi / mean_tone, period)
    step = math.pi / mean_tone / 40.0
    count = min(int(2.0 * half_range / step) + 1, 400001)
    shifts = np.linspace(-half_range, half_range, count)
    w_all = tones(shifts)
    costs = -0.5 * (corr @ w_all) + np.sum(w_all * (gram @ w_all), axis=0) / 16.0
    best = int(np.argmin(costs))
    lo = shifts[max(best - 1, 0)]
    hi = shifts[min(best + 1, count - 1)]
    # Newton on the closed-form derivatives, w' = rate * (-sin, cos) and
    # w'' = -rate**2 w per tone, kept inside the scan's bracket
    rate = 2.0 * np.array([varpi, varpi, varpi_prime, varpi_prime])
    t_p = shifts[best]
    for _ in range(6):
        w = tones(t_p)
        dw = rate * np.array([-w[1], w[0], -w[3], w[2]])
        ddw = -rate * rate * w
        slope = -0.5 * (corr @ dw) + (dw @ gram @ w) / 8.0
        curve = -0.5 * (corr @ ddw) + (ddw @ gram @ w + dw @ gram @ dw) / 8.0
        if not curve > 0.0:
            break
        t_p = min(max(t_p - slope / curve, lo), hi)
    return float(t_p)


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


# free parameter of the design problems -> DriveStep field of step 2
_FREE_FIELDS = {
    "detuning": "delta",
    "coupling": "epsilon",
    "phase": "theta",
    "durations": "tau",
}


def _with_field(sequence, field, value):
    if field not in _FREE_FIELDS:
        raise ValueError("unknown free parameter %r" % (field,))
    step = sequence.steps[1]._replace(**{_FREE_FIELDS[field]: value})
    return PulseSequence((sequence.steps[0], step))


def _closed_form_root(sequence, field):
    """Root of b(T) in step 2's duration or phase; None if there is none.

    U(T) = U_2 U_1, so with g the b of U_1 and of its unit turns about the
    three axes, b(T) = cos(phi) g_0 + sin(phi) (axis . g), phi = E_2 tau_2.
    The duration root is the first zero at phi >= 1e-9 E_2.  The axis is
    linear in (1, cos theta_2, sin theta_2): b(T) = A + B cos + C sin, and
    the smaller of its two zeros in [-pi, pi] is the phase root.  A null
    step 2 (E_2 = 0) leaves b(T) fixed and has no root.
    """
    step1, step2 = sequence.steps
    energy = step2.energy
    if energy == 0.0:
        return None
    first = step_propagator(step1, step1.tau)
    gx, gy, gz = (rotate(first, 0.0, 1.0, e)[1] for e in np.eye(3).tolist())
    if field == "durations":
        ax, ay, az = step2.axis
        phi = math.atan2(-first.b, ax * gx + ay * gy + az * gz) % math.pi
        if phi < 1e-9 * energy:
            phi += math.pi
        return phi / energy
    cn, sn = math.cos(energy * step2.tau), math.sin(energy * step2.tau)
    const = cn * first.b + sn * (0.5 * step2.delta / energy) * gz
    turn = sn * step2.epsilon / energy
    amp = math.hypot(turn * gx, turn * gy)
    # |A| >= hypot(B, C) leaves no sign change, only a tangent zero
    if not abs(const) < amp:
        return None
    centre = math.atan2(turn * gy, turn * gx)
    half = math.acos(-const / amp)
    return min(math.remainder(centre + s, 2.0 * math.pi) for s in (-half, half))


def design_manipulation(sequence, target, free_parameter):
    """Tune one field of the second step to reach a target phenomenon.

    target = 'cdt' freezes the population: it requires resonant steps and
    sets the second phase opposite to the first with matched pulse areas,
    adjusting the requested free parameter (phase, coupling, or
    durations).

    target = 'complete_transition' zeroes the b coefficient of the period
    propagator by tuning the free parameter (detuning, coupling, phase, or
    durations); a sequence already satisfying the target is returned
    unchanged.  Durations and phase have closed-form roots (see
    :func:`_closed_form_root`): the first duration root, and the smaller
    of the two phase roots in [-pi, pi].  Detuning and coupling enter
    through the step energy and have none: their root is bracketed by the
    first sign change of b on a 2048-point grid and refined by brentq,
    which imports scipy.optimize.  A ValueError reports a target with no
    root.

    Parameters
    ----------
    sequence : PulseSequence
        Two steps; the first is left untouched.
    target : {'cdt', 'complete_transition'}
    free_parameter : {'detuning', 'coupling', 'phase', 'durations'}

    Returns
    -------
    PulseSequence
    """
    if len(sequence.steps) != 2:
        raise ValueError("design operates on two-step sequences")
    step1, step2 = sequence.steps

    if target == "cdt":
        if abs(step1.delta) > 1e-12 or abs(step2.delta) > 1e-12:
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

        def residual(x):
            return period_propagator(_with_field(sequence, free_parameter, x)).b

        if abs(residual(getattr(step2, _FREE_FIELDS[free_parameter]))) < 1e-12:
            return sequence

        if free_parameter in ("durations", "phase"):
            root = _closed_form_root(sequence, free_parameter)
        else:
            scale = max(abs(step2.delta), step1.epsilon, step2.epsilon, abs(step1.delta))
            lo, hi = (-10.0, 10.0) if free_parameter == "detuning" else (1e-6, 20.0)
            grid = np.linspace(lo * scale, hi * scale, 2048)
            sign = np.sign([residual(x) for x in grid])
            flips = np.nonzero(np.diff(sign) != 0)[0]
            root = None
            if flips.size:
                import scipy.optimize

                i = flips[0]
                root = scipy.optimize.brentq(residual, grid[i], grid[i + 1], xtol=1e-14)
        if root is None:
            raise ValueError("no sign change of the target residual in the search bracket")
        return validate(_with_field(sequence, free_parameter, root))

    raise ValueError("unknown target %r" % (target,))


def _require_opposite(step1, step2):
    gap = math.remainder(step2.theta - step1.theta - math.pi, 2.0 * math.pi)
    if abs(gap) > 1e-9:
        raise ValueError("cdt design needs opposite phases, theta2 = theta1 + pi")
