"""Closed-form propagators for periodic N-step driving.

A single constant segment rotates the Bloch vector about its field axis.
Every composition is one SU(2) product on the coefficients (a, b, c, d),
:func:`rotate`, taken on one of two sides: a segment acts from the left on
the propagator accumulated so far, and whole periods act from the right on
the intra-period propagator through a Chebyshev-style power identity in
the per-period rotation angle Theta of U(T), so the cost of the propagator
at t' + script_N * T does not grow with the period count script_N.  On a
time array, each time costs one cos/sin pair for its rotation inside the
current step plus N comparisons to find that step, and the power factors
are computed once per run of times with equal script_N.

The power identity needs cos(script_N*Theta) and the ratio
sin(script_N*Theta)/sin(Theta).  Theta is read with atan2 from the whole
quadruple, sin(Theta) = |(b, c, d)| against cos(Theta) = a, which keeps
full relative precision next to U(T) = +/-1, where arccos(a) has a relative
error of about eps/sin(Theta)**2.  When a(T) < 0 the angle is reflected,
Theta = pi - s with s = atan2(|(b, c, d)|, -a): a float Theta near pi
carries an absolute rounding of about ulp(pi) that script_N multiplies,
while the small s keeps its relative precision.
"""

import math

from .core import PropagatorCoeffs

# numpy is imported by the functions that build arrays (see the package __init__)

# times per block of evolve_many: its float64 temporaries (64 KB) stay below
# the default malloc mmap threshold (128 KB), so they are reused across calls
_BLOCK = 8192


def step_propagator(step, s):
    """Propagator coefficients of one constant segment after time s.

    Parameters
    ----------
    step : DriveStep
    s : float
        Elapsed time inside the segment, 0 <= s <= step.tau.

    Returns
    -------
    PropagatorCoeffs
        a = cos(E s), (b, c, d) = (z, y, x) components of the field axis
        times sin(E s), with E the segment energy: the left-side product of
        :func:`rotate` on the identity.
    """
    return compose(PropagatorCoeffs.identity(), step, s)


def rotate(left, cn, sn, axis, side=1):
    """The one SU(2) product behind every propagator path.

    Returns, as a plain tuple, the (a, b, c, d) of R @ U_left for ``side``
    = 1 and of U_left @ R for ``side`` = -1, where R has the coefficients
    (cn, sn az, sn ay, sn ax): a turn about the unit ``axis`` (ax, ay, az).
    Segments act from the left (cn, sn = cos, sin of E s, the field axis),
    whole periods from the right (cn = cos(n Theta), sn = sin(n Theta) /
    sin(Theta), the axis (d, c, b) of U(T)).  The side negates the axis
    only in the three cross terms of each coefficient, w = side * axis;
    negation is exact, so each side rounds as its own expanded product
    would, signed zeros included.  Operands may be floats or broadcastable
    arrays; scalar and array callers get the same bits from the same inputs.
    """
    a, b, c, d = left
    ax, ay, az = axis
    wx, wy, wz = side * ax, side * ay, side * az
    return (
        a * cn - (d * ax + c * ay + b * az) * sn,
        b * cn + (c * wx - d * wy + a * az) * sn,
        c * cn + (-b * wx + a * ay + d * wz) * sn,
        d * cn + (a * ax + b * wy - c * wz) * sn,
    )


def compose(left, step, s):
    """Apply a segment rotation on top of an existing propagator.

    Returns the coefficients of U_step(s) @ U_left, the left-side product
    of :func:`rotate` with the segment axis; the power identity of
    :func:`evolve_many` is the same product on the right.

    Parameters
    ----------
    left : PropagatorCoeffs
        Propagator accumulated so far (applied first in time).
    step : DriveStep
    s : float
        Duration spent in the new segment.

    Returns
    -------
    PropagatorCoeffs
    """
    phase = step.energy * s
    return PropagatorCoeffs(*rotate(left, math.cos(phase), math.sin(phase), step.axis))


def intra_period(sequence, tprime):
    """Propagator from the period start to 0 <= t' <= T.

    At t' = T this is U(T) as :func:`_window_starts` composes it from the
    step durations; below T it is the intra-period part of
    :func:`evolve_many` on one time.

    Parameters
    ----------
    sequence : PulseSequence
    tprime : float

    Returns
    -------
    PropagatorCoeffs

    Raises
    ------
    ValueError
        If t' lies outside [0, T] or is nan.
    """
    period = sequence.period
    if not 0.0 <= tprime <= period:
        raise ValueError(
            "intra-period time %r outside [0, %r]" % (tprime, period)
        )
    starts, per = _window_starts(sequence)
    if tprime == period:
        return per
    import numpy as np

    inner = _intra_block(sequence, starts, np.array([float(tprime)]))
    return PropagatorCoeffs(*(float(x[0]) for x in inner))


def period_propagator(sequence):
    """Propagator over one full period; its ``angle`` property is Theta."""
    return intra_period(sequence, sequence.period)


def _power_factors(per, ns):
    """cos(n*Theta) and sin(n*Theta)/sin(Theta) for the rotation U(T) = per.

    ``ns`` is a float or an array of period counts.  Theta is read with
    atan2 from sin(Theta) = |(b, c, d)|; for a < 0 the computation is
    reflected, s = pi - Theta = atan2(sin(Theta), -a), using
    cos(n*Theta) = (-1)**n cos(n*s) and sin(n*Theta) = (-1)**(n+1) sin(n*s),
    so a Theta near pi is never rounded to a float before it is multiplied
    by n.  A null rotation, U(T) = +/-1, has s = 0 and gets the ratio 0,
    which :func:`rotate` multiplies by zeros.
    """
    import numpy as np

    sin_theta = math.hypot(per.b, per.c, per.d)
    ang = math.atan2(sin_theta, abs(per.a))
    cos_n = np.cos(ns * ang)
    ratio = np.sin(ns * ang) / (sin_theta or 1.0)
    if per.a >= 0.0:
        return cos_n, ratio
    parity = 1.0 - 2.0 * np.mod(ns, 2.0)
    return parity * cos_n, -parity * ratio


def _split_time(t, period):
    # decompose t = n*T + t' with 0 <= t' < T, for a float or an array t;
    # n comes back as a float.  A t' within one ulp of T is promoted to the
    # next period boundary.
    import numpy as np

    n = np.floor(t / period)
    n -= t - n * period < 0.0  # floor rounding at exact multiples
    tprime = t - n * period
    wrap = period - tprime <= math.ulp(period)
    return n + wrap, np.where(wrap, 0.0, tprime)


def _window_starts(sequence):
    """U(t_n) at the start of every step, and U(T), composed step by step."""
    starts = []
    prefix = PropagatorCoeffs.identity()
    for step in sequence.steps:
        starts.append(prefix)
        prefix = compose(prefix, step, step.tau)
    return starts, prefix


def evolve(sequence, t):
    """Propagator coefficients at an arbitrary time t >= 0.

    The scalar form of :func:`evolve_many`: the same operations on one
    time, returned as Python floats.

    Parameters
    ----------
    sequence : PulseSequence
    t : float

    Returns
    -------
    PropagatorCoeffs
    """
    return PropagatorCoeffs(*(float(x) for x in evolve_many(sequence, t)))


def transition_probability(sequence, t):
    """Population transferred between the basis states at time t."""
    return evolve(sequence, t).transition_probability


def evolve_many(sequence, times):
    """Propagator coefficients on an array of times.

    Returns four arrays (a, b, c, d) with the shape of ``times``.  Each
    time t = n*T + t' gets U(t') combined with U(T)**n through the power
    identity, so the cost does not grow with the period count.  It is
    O(N * len(times)): finding the step of each t' and selecting the times
    of each step pass over the times once per step, and each time takes
    one cos/sin pair for its rotation inside its step.  cos(n*Theta) and
    sin(n*Theta)/sin(Theta) are computed once per run of neighbouring times
    with equal n, so a sorted grid pays for them about once per period.
    Long arrays are processed in blocks of _BLOCK times, so the temporaries
    stay small and the allocator reuses them instead of mapping fresh pages
    on every call.  :func:`evolve` is the scalar form.

    Parameters
    ----------
    sequence : PulseSequence
    times : array_like
        Finite non-negative times, any shape.

    Returns
    -------
    tuple of ndarray

    Raises
    ------
    ValueError
        If a time is negative, infinite or nan, or so long that its period
        count times pi/2 is not finite.
    """
    import numpy as np

    times = np.asarray(times, dtype=float)
    if times.size:
        t_max = float(times.max())
        # a nan minimum fails the first comparison
        if not (0.0 <= times.min() and t_max < math.inf):
            raise ValueError("times must be finite and non-negative")
        # the power identity turns by n*Theta, Theta <= pi/2 after the
        # reflection; Python floats overflow to inf here without a warning
        if not math.isfinite(t_max / sequence.period * (0.5 * math.pi)):
            raise ValueError(
                "time %r spans too many periods of T = %r: the period count "
                "times pi/2 is not finite" % (t_max, sequence.period)
            )
    ts = times.ravel()
    # prefix propagators at the segment starts are scalars, shared by all blocks
    starts, per = _window_starts(sequence)
    out = np.empty((4, ts.size))
    for lo in range(0, ts.size, _BLOCK):
        n_per, tp = _split_time(ts[lo:lo + _BLOCK], sequence.period)
        # one factor pair per run of equal period counts, in any time order;
        # `cuts` holds the first index of each run and the block end
        cuts = np.flatnonzero(np.concatenate(([True], n_per[1:] != n_per[:-1], [True])))
        lengths = np.diff(cuts)
        cos_n, ratio = _power_factors(per, n_per[cuts[:-1]])
        # U(t') U(T)**n, the power identity
        block = rotate(
            _intra_block(sequence, starts, tp),
            np.repeat(cos_n, lengths), np.repeat(ratio, lengths),
            (per.d, per.c, per.b), -1,
        )
        for row, coeff in zip(out, block):
            row[lo:lo + _BLOCK] = coeff
    return tuple(row.reshape(times.shape) for row in out)


def _step_index(bounds, tp):
    """Index of the step containing each 0 <= t' of the array ``tp``: the
    number of interior boundaries ``bounds[1:-1]`` at or below t'.  A t' on
    a boundary opens the next step; one beyond T stays in the last.  The
    counts are kept in the smallest unsigned type that holds N - 1, since
    adding a bool array into an intp one costs more than the comparison."""
    import numpy as np

    idx = np.zeros(tp.shape, dtype=np.min_scalar_type(len(bounds) - 2))
    for edge in bounds[1:-1]:
        idx += tp >= edge
    return idx


def _intra_block(sequence, starts, tp):
    """(a, b, c, d) of U(t') on a flat array of times 0 <= t' < T, from the
    segment-start propagators ``starts``; the partial rotation inside the
    containing segment is vectorized."""
    import numpy as np

    bounds = sequence.boundaries
    a = np.empty_like(tp)
    b = np.empty_like(tp)
    c = np.empty_like(tp)
    d = np.empty_like(tp)
    idx = _step_index(bounds, tp)
    for k, (step, prefix) in enumerate(zip(sequence.steps, starts)):
        sel = idx == k
        if sel.any():
            phase = step.energy * (tp[sel] - bounds[k])
            a[sel], b[sel], c[sel], d[sel] = rotate(
                prefix, np.cos(phase), np.sin(phase), step.axis
            )
    return a, b, c, d


def transition_probabilities(sequence, times):
    """Transition probability on an array of times (vectorized)."""
    _, _, c, d = evolve_many(sequence, times)
    return c * c + d * d
