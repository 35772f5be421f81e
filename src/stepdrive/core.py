"""Domain types and validation for periodically driven two-level systems.

A drive sequence is a period-T waveform that is piecewise constant over N
segments.  Segment n carries a detuning `delta`, a coupling `epsilon` with
phase `theta`, and a duration `tau`.  All quantities are dimensionless: pick
a reference coupling as the frequency unit and measure times in its inverse.
The segment Hamiltonian in the |1>, |2> basis is taken traceless,

    H = [[-delta/2,                epsilon*exp(1j*theta)],
         [epsilon*exp(-1j*theta),  delta/2              ]],

because a common level shift only contributes a global phase that no
population measurement can see.  With this convention every propagator in
the package is an SU(2) element and matrix identities hold entrywise, with
no global-phase bookkeeping anywhere.
"""

import math
from collections import namedtuple

# numpy is imported by the functions that build arrays (see the package __init__)


class EmptySequenceError(ValueError):
    """Raised when a pulse sequence contains no steps."""


class BranchAmbiguityError(ArithmeticError):
    """Raised when a matrix logarithm sits on its branch cut.

    A propagator with A close to -1 is a rotation by an angle near pi; the
    rotation axis, and with it the generating Hamiltonian, is then defined
    only up to a sign.  Callers must decide which branch they want.
    """


class DriveStep(namedtuple("DriveStep", ["delta", "epsilon", "theta", "tau"])):
    """One constant segment of the driving field.

    Parameters
    ----------
    delta : float
        Detuning between the levels (angular frequency).
    epsilon : float
        Coupling strength (angular frequency).  Normalized steps have
        ``epsilon >= 0``; a negative value is folded into the phase by
        :func:`validate`.
    theta : float
        Phase of the coupling, in radians.
    tau : float
        Duration of the segment; must be positive.
    """

    __slots__ = ()

    @property
    def energy(self):
        """Rabi-like angular frequency sqrt(epsilon**2 + delta**2/4)."""
        return math.hypot(self.epsilon, 0.5 * self.delta)

    @property
    def axis(self):
        """Unit field axis (eps*cos(theta), eps*sin(theta), delta/2)/E.

        Returns the zero vector for a null segment (E = 0); the propagator
        formulas then reduce to the identity with no special casing.
        """
        e = self.energy
        if e == 0.0:
            return (0.0, 0.0, 0.0)
        return (
            self.epsilon * math.cos(self.theta) / e,
            self.epsilon * math.sin(self.theta) / e,
            0.5 * self.delta / e,
        )

    def hamiltonian(self):
        """The 2x2 Hermitian matrix of this segment (traceless convention)."""
        import numpy as np

        off = self.epsilon * complex(math.cos(self.theta), math.sin(self.theta))
        return np.array(
            [[-0.5 * self.delta, off], [off.conjugate(), 0.5 * self.delta]],
            dtype=complex,
        )


class PulseSequence(namedtuple("PulseSequence", ["steps"])):
    """An ordered, periodically repeated list of :class:`DriveStep`.

    The waveform runs through ``steps`` in order and then repeats, so the
    period is the sum of the step durations.
    """

    __slots__ = ()

    @classmethod
    def from_arrays(cls, delta, epsilon, theta, tau):
        """Build and validate a sequence from four equal-length arrays."""
        fields = [list(map(float, a)) for a in (delta, epsilon, theta, tau)]
        lengths = {len(a) for a in fields}
        if len(lengths) != 1:
            raise ValueError(
                "delta, epsilon, theta, tau must have equal lengths, got %s"
                % sorted(len(a) for a in fields)
            )
        steps = tuple(DriveStep(*row) for row in zip(*fields))
        return validate(cls(steps))

    @property
    def boundaries(self):
        """Cumulative segment boundaries tau'_0 = 0 < tau'_1 < ... < tau'_N."""
        import numpy as np

        taus = np.array([s.tau for s in self.steps], dtype=float)
        bounds = np.empty(len(taus) + 1)
        bounds[0] = 0.0
        np.cumsum(taus, out=bounds[1:])
        return bounds

    @property
    def period(self):
        """Period T, the sequential sum of the durations.

        Summed left to right in plain Python, so it equals the last
        :attr:`boundaries` entry bit for bit without building that array.
        """
        total = 0.0
        for step in self.steps:
            total += step.tau
        return float(total)

    @property
    def omega_t(self):
        """Fundamental angular frequency 2*pi/T."""
        return 2.0 * math.pi / self.period

    @property
    def min_tau(self):
        return min(s.tau for s in self.steps)


def _fold_angle(angle):
    # canonical fold to (-pi, pi]; remainder() alone may return -pi exactly
    r = math.remainder(angle, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


def validate(sequence):
    """Check a pulse sequence and return its normalized form.

    Negative couplings are folded into the phase, (epsilon, theta) ->
    (-epsilon, theta + pi), and phases are reduced to (-pi, pi].  The
    operation is idempotent.

    Parameters
    ----------
    sequence : PulseSequence

    Returns
    -------
    PulseSequence
        A new sequence with normalized steps.

    Raises
    ------
    EmptySequenceError
        If the step list is empty.
    ValueError
        If any duration is non-positive or any field is not finite; if a
        step's doubled phase 2*E*tau is not finite; if a duration is lost in
        the rounding of the running sum T; or if the period T or the
        frequency 2*pi/T is not finite.
    """
    if len(sequence.steps) == 0:
        raise EmptySequenceError("pulse sequence has no steps")
    steps = []
    total = 0.0  # the running sum of :attr:`PulseSequence.period`
    for i, step in enumerate(sequence.steps):
        for name, value in zip(step._fields, step):
            if not math.isfinite(value):
                raise ValueError("step %d: %s is not finite" % (i + 1, name))
        if step.tau <= 0.0:
            raise ValueError("step %d: duration must be positive" % (i + 1))
        if not math.isfinite((2.0 * step.energy) * step.tau):
            raise ValueError("step %d: 2*E*tau is not finite" % (i + 1))
        if total + step.tau == total and total < math.inf:  # inf fails below
            raise ValueError("step %d: duration %r is lost in the rounding of T"
                             % (i + 1, step.tau))
        total += step.tau
        eps, theta = step.epsilon, step.theta
        if eps < 0.0:
            eps, theta = -eps, theta + math.pi
        steps.append(DriveStep(step.delta, eps, _fold_angle(theta), step.tau))
    result = PulseSequence(tuple(steps))
    if not (math.isfinite(result.period) and math.isfinite(result.omega_t)):
        raise ValueError("period T = %r: T and 2*pi/T must be finite" % (result.period,))
    return result


class PropagatorCoeffs(namedtuple("PropagatorCoeffs", ["a", "b", "c", "d"])):
    """Four real coefficients parametrizing an SU(2) propagator.

    The corresponding matrix is

        U = [[ a + 1j*b,  c - 1j*d],
             [-c - 1j*d,  a - 1j*b]],

    with a**2 + b**2 + c**2 + d**2 = 1.  The transition probability between
    the basis states is c**2 + d**2.
    """

    __slots__ = ()

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 0.0)

    @property
    def transition_probability(self):
        return self.c * self.c + self.d * self.d

    @property
    def unitarity_defect(self):
        """|a^2+b^2+c^2+d^2 - 1|; zero for exact SU(2) elements."""
        return abs(self.a**2 + self.b**2 + self.c**2 + self.d**2 - 1.0)

    @property
    def angle(self):
        """Rotation angle atan2(|(b, c, d)|, a) in [0, pi]; unlike arccos(a)
        it keeps full relative precision next to a = +/-1."""
        return math.atan2(math.hypot(self.b, self.c, self.d), self.a)

    def as_matrix(self):
        """The complex 2x2 matrix of these coefficients."""
        import numpy as np

        return np.array(
            [
                [complex(self.a, self.b), complex(self.c, -self.d)],
                [complex(-self.c, -self.d), complex(self.a, -self.b)],
            ]
        )


class EffectiveHamiltonian(
    namedtuple(
        "EffectiveHamiltonian", ["delta_eff", "epsilon_eff", "theta_eff", "period"]
    )
):
    """Time-independent generator of the stroboscopic dynamics.

    ``exp(-1j * H_eff * T)`` reproduces the one-period propagator.  The
    ``period`` field records the T the parameters were extracted from, so
    the derived frequencies below need no extra context.
    """

    __slots__ = ()

    @property
    def omega_eff(self):
        """Rabi-like frequency sqrt(epsilon_eff**2 + delta_eff**2/4)."""
        return math.hypot(self.epsilon_eff, 0.5 * self.delta_eff)

    @property
    def omega_t(self):
        return 2.0 * math.pi / self.period

    @property
    def rotation_angle(self):
        """Per-period rotation angle Theta = omega_eff * T."""
        return self.omega_eff * self.period

    @property
    def sideband_plus(self):
        """Upper sideband omega_T/2 + omega_eff."""
        return 0.5 * self.omega_t + self.omega_eff

    @property
    def sideband_minus(self):
        """Lower sideband omega_T/2 - omega_eff."""
        return 0.5 * self.omega_t - self.omega_eff

    def as_matrix(self):
        """The 2x2 Hermitian matrix of H_eff (traceless convention)."""
        return DriveStep(self.delta_eff, self.epsilon_eff, self.theta_eff, 1.0).hamiltonian()


class MicromotionParams(
    namedtuple("MicromotionParams", ["delta_m", "epsilon_m", "theta_m"])
):
    """Parameters of the micromotion generator M(t').

    The fields are actions (frequency times time): exp(-1j*M) equals the
    intra-period propagator at t', and at t' = T they equal the effective
    Hamiltonian parameters multiplied by T.
    """

    __slots__ = ()

    def as_matrix(self):
        return DriveStep(self.delta_m, self.epsilon_m, self.theta_m, 1.0).hamiltonian()


class SpectralComponent(
    namedtuple(
        "SpectralComponent", ["frequency", "amplitude", "phase", "family", "index"]
    )
):
    """One cosine term amplitude*cos(frequency*t - phase).

    ``family`` is ``"sideband"`` for frequencies |2*omega_eff + l*omega_T|
    and ``"harmonic"`` for |l*omega_T|; ``index`` stores that integer l.
    """

    __slots__ = ()


class SpectralModel(namedtuple("SpectralModel", ["offset", "components"])):
    """A transition-probability model: offset plus a sum of cosines."""

    __slots__ = ()

    def evaluate(self, t):
        """Evaluate offset + sum_i b_i*cos(w_i*t - phi_i) at times t."""
        import numpy as np

        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.offset)
        for comp in self.components:
            out += comp.amplitude * np.cos(comp.frequency * t - comp.phase)
        return out


class BeatPrediction(
    namedtuple(
        "BeatPrediction", ["varpi_1", "varpi_1_prime", "omega_b", "t_p", "n_resonant"]
    )
):
    """Predicted two-tone beat of the transition probability.

    The model is P(t) = (1/2)[sin^2(varpi_1*(t-t_p)) +
    sin^2(varpi_1_prime*(t-t_p))]; its envelope oscillates at the beat
    frequency omega_b = |varpi_1_prime - varpi_1|.
    """

    __slots__ = ()

    @property
    def is_beat(self):
        """True when the two tones are close but distinct.

        Requires |sum| > 10 |difference| with a nonzero difference; a
        degenerate pair is a single tone, not a beat.
        """
        diff = abs(self.varpi_1_prime - self.varpi_1)
        return diff > 0.0 and abs(self.varpi_1 + self.varpi_1_prime) > 10.0 * diff

    def evaluate(self, t):
        """Evaluate the two-tone model at times t."""
        import numpy as np

        t = np.asarray(t, dtype=float) - self.t_p
        return 0.5 * (
            np.sin(self.varpi_1 * t) ** 2 + np.sin(self.varpi_1_prime * t) ** 2
        )
