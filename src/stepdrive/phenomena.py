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

from .core import BeatPrediction, DriveStep, PropagatorCoeffs, PulseSequence, validate
from .effective import effective_hamiltonian
from .propagator import compose, period_propagator, rotate
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
    of the line tables over max(4*pi/omega_b, 10 T), at most 2000 T.  The
    fit uses scipy.optimize, which the first call imports.

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

    def misfit(t_p):
        w = tones(t_p)
        return float(-0.5 * (corr @ w) + (w @ gram @ w) / 16.0)

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
    import scipy.optimize

    res = scipy.optimize.minimize_scalar(misfit, bounds=(lo, hi), method="bounded")
    return float(res.x)


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

# a bracket residual below this, times the largest step phase E*tau (at
# least 1), is recomputed on the scalar path before its sign is read:
# numpy's hypot/cos/sin may round differently from math's, by about 1e-16
# times that phase
_BRACKET_RECHECK = 1e-9


def _with_field(sequence, field, value):
    if field not in _FREE_FIELDS:
        raise ValueError("unknown free parameter %r" % (field,))
    step = sequence.steps[1]._replace(**{_FREE_FIELDS[field]: value})
    return PulseSequence((sequence.steps[0], step))


def _bracket_residuals(sequence, field, grid):
    """b(T) of ``_with_field(sequence, field, x)`` for every x in grid.

    Returns the array of b(T) and the bound below which a value is to be
    recomputed on the scalar path.  The batched form of design_manipulation's scalar residual
    ``period_propagator(_with_field(sequence, field, x)).b``, in one numpy
    pass: the varied step is not validated, its phase is E*tau as
    _window_starts composes it, and a null step (E = 0) rotates about the
    zero axis.  Durations must be positive.
    """
    step1, step2 = sequence.steps
    values = step2._asdict()
    values[_FREE_FIELDS[field]] = grid
    delta, eps, theta, tau = (values[k] for k in DriveStep._fields)
    energy = np.hypot(eps, 0.5 * delta)
    # unit denominators on null steps leave their zero numerators zero
    norm = np.where(energy == 0.0, 1.0, energy)
    axis = (eps * np.cos(theta) / norm, eps * np.sin(theta) / norm, 0.5 * delta / norm)
    first = compose(PropagatorCoeffs.identity(), step1, step1.tau)
    phase = energy * tau
    bound = _BRACKET_RECHECK * max(1.0, float(np.abs(phase).max()))
    return rotate(first, np.cos(phase), np.sin(phase), axis)[1], bound


def design_manipulation(sequence, target, free_parameter):
    """Tune one field of the second step to reach a target phenomenon.

    target = 'cdt' freezes the population: it requires resonant steps and
    sets the second phase opposite to the first with matched pulse areas,
    adjusting the requested free parameter (phase, coupling, or
    durations).

    target = 'complete_transition' zeroes the b coefficient of the period
    propagator by a bracketed root search over the free parameter
    (detuning, coupling, phase, or durations); a sequence already
    satisfying the target is returned unchanged.  The sign bracket (1024
    or 2048 grid points) is evaluated in one batched numpy call; grid
    points with |b| below 1e-9 (times the largest step phase E*tau when
    that exceeds 1) are recomputed on the scalar path before their sign
    is read, and brentq refines the root on the scalar path, so the
    result is the one a point-by-point scalar search gives.  The first
    root search imports scipy.optimize.

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

        def residual(x):
            return period_propagator(_with_field(sequence, free_parameter, x)).b

        if free_parameter not in _FREE_FIELDS:
            raise ValueError("unknown free parameter %r" % (free_parameter,))
        if abs(residual(getattr(step2, _FREE_FIELDS[free_parameter]))) < 1e-12:
            return sequence

        scale = max(
            abs(step2.delta), step1.epsilon, step2.epsilon, abs(step1.delta)
        )
        grids = {
            "detuning": np.linspace(-10.0 * scale, 10.0 * scale, 2048),
            "coupling": np.linspace(1e-6 * scale, 20.0 * scale, 2048),
            "phase": np.linspace(-math.pi, math.pi, 1024),
            "durations": np.linspace(
                1e-9, step2.tau + 2.0 * math.pi / step2.energy, 2048
            ),
        }
        grid = grids[free_parameter]
        vals, bound = _bracket_residuals(sequence, free_parameter, grid)
        # the negated test also sends nan to the scalar path, which raises
        for i in np.flatnonzero(~(np.abs(vals) >= bound)):
            vals[i] = residual(grid[i])
        sign = np.sign(vals)
        flips = np.nonzero(np.diff(sign) != 0)[0]
        if flips.size == 0:
            raise ValueError(
                "no sign change of the target residual in the search bracket"
            )
        i = flips[0]
        import scipy.optimize

        root = scipy.optimize.brentq(residual, grid[i], grid[i + 1], xtol=1e-14)
        return validate(_with_field(sequence, free_parameter, root))

    raise ValueError("unknown target %r" % (target,))


def _require_opposite(step1, step2):
    gap = math.remainder(step2.theta - step1.theta - math.pi, 2.0 * math.pi)
    if abs(gap) > 1e-9:
        raise ValueError("cdt design needs opposite phases, theta2 = theta1 + pi")
