"""Closed-form propagators for periodic N-step driving.

A single constant segment rotates the Bloch vector about its field axis.
Every composition is one SU(2) product on the coefficients (a, b, c, d),
:func:`rotate`, taken on one of two sides: a segment acts from the left on
the propagator accumulated so far, and whole periods act from the right on
the intra-period propagator through a Chebyshev-style power identity in
the per-period rotation angle Theta of U(T), so the cost of the propagator
at t' + script_N * T does not grow with the period count script_N.  One
time inside the period is one :func:`compose` on Python floats
(:func:`intra_period`); :func:`evolve_many` writes the same products in
place, in rotate's order, for a whole array of times.

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

# times per block of evolve_many: the call's one workspace holds nine
# float64 rows of this length (576 KB), reused by every block
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
    arrays; :func:`_cross_sums` writes the same sums, in place, for arrays.
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
    step durations.  Below T it is one :func:`compose` on Python floats of
    the step holding t' on the prefix U(t_n), with t_n the running sum of
    :attr:`PulseSequence.period`: a t' on a boundary opens the next step,
    as in :func:`evolve_many`, whose intra-period product rounds alike.

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
        raise ValueError("intra-period time %r outside [0, %r]" % (tprime, period))
    starts, per = _window_starts(sequence)
    if tprime == period:
        return per
    start = 0.0
    for prefix, step in zip(starts, sequence.steps):
        if start + step.tau > tprime:
            break
        start += step.tau
    return compose(prefix, step, tprime - start)


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


def _split_time(t, period, n=None, tprime=None):
    # decompose t = n*T + t' with 0 <= t' < T, for a float or an array t,
    # into the arrays n and tprime if given; n comes back as a float.  A t'
    # within one ulp of T (T - t' is exact above T/2) goes to the next period.
    import numpy as np

    n = np.floor(np.divide(t, period, out=n), out=n)
    # floor rounding at exact multiples
    n -= np.subtract(t, np.multiply(n, period, out=tprime), out=tprime) < 0.0
    tprime = np.subtract(t, np.multiply(n, period, out=tprime), out=tprime)
    wrap = tprime >= period - math.ulp(period)
    n += wrap
    tprime *= ~wrap
    return n, tprime


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
    O(N * len(times)): finding the step of each t' passes over the times
    once per step, each time reads its step from per-step tables and takes
    one cos/sin pair for its rotation inside its step.  cos(n*Theta) and
    sin(n*Theta)/sin(Theta) are computed once per run of neighbouring times
    with equal n, so a sorted grid pays for them about once per period.
    Blocks of _BLOCK times share one workspace per call, and each time gets
    the bits of :func:`rotate`.  :func:`evolve` is the scalar form.

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
    starts, per = _window_starts(sequence)
    energy, start, *columns = _step_tables(sequence, starts)
    out = np.empty((4, ts.size))
    # period counts, t', a scratch row, cos/sin in the step, the power sums
    work = np.empty((9, min(ts.size, _BLOCK)))
    idx = np.empty(work.shape[1], dtype=np.intp)
    # rotate's a row subtracts its sum, the b, c, d rows add theirs
    combines = (np.subtract, np.add, np.add, np.add)
    for lo in range(0, ts.size, _BLOCK):
        rows = out[:, lo:lo + _BLOCK]
        n, tp, scratch, cn, sn, *sums = work[:, :rows.shape[1]]
        at = idx[:rows.shape[1]]
        _split_time(ts[lo:lo + _BLOCK], sequence.period, n, tp)
        # the step of t': the starts at or below it, in the smallest unsigned type
        count = np.zeros(tp.shape, dtype=np.min_scalar_type(len(start) - 1))
        for edge in start[1:]:
            count += tp >= edge
        np.copyto(at, count)
        # U(t') = U_step(t' - t_n) U(t_n) from the step's table columns;
        # mode "clip" takes into out= unbuffered
        np.subtract(tp, np.take(start, at, out=scratch, mode="clip"), out=scratch)
        np.multiply(np.take(energy, at, out=cn, mode="clip"), scratch, out=scratch)
        np.cos(scratch, out=cn)
        np.sin(scratch, out=sn)
        for row, coeff, total, combine in zip(rows, columns[:4], columns[4:], combines):
            np.multiply(np.take(total, at, out=row, mode="clip"), sn, out=row)
            np.multiply(np.take(coeff, at, out=scratch, mode="clip"), cn, out=scratch)
            combine(scratch, row, out=row)
        # one factor pair per run of equal period counts, in any time order;
        # `cuts` holds the first index of each run and the block end
        cuts = np.flatnonzero(np.concatenate(([True], n[1:] != n[:-1], [True])))
        lengths = np.diff(cuts)
        cos_n, ratio = (np.repeat(f, lengths) for f in _power_factors(per, n[cuts[:-1]]))
        # U(t') U(T)**n, the power identity, on U(t') in the rows of out
        _cross_sums(sums, rows, (per.d, per.c, per.b), -1, scratch)
        for row, total, combine in zip(rows, sums, combines):
            np.multiply(total, ratio, out=total)
            combine(np.multiply(row, cos_n, out=row), total, out=row)
    return tuple(row.reshape(times.shape) for row in out)


def _cross_sums(sums, left, axis, side, scratch):
    """The four parenthesized sums of :func:`rotate`, in its order, written
    into the rows of ``sums`` for arrays or floats ``left`` and ``axis``;
    x - y*k is taken as x + y*(-k) and -b*wx as b*(-wx), which round alike."""
    import numpy as np

    a, b, c, d = left
    ax, ay, az = axis
    wx, wy, wz = side * ax, side * ay, side * az
    for total, ((x1, k1), (x2, k2), (x3, k3)) in zip(sums, (
            ((d, ax), (c, ay), (b, az)), ((c, wx), (d, -wy), (a, az)),
            ((b, -wx), (a, ay), (d, wz)), ((a, ax), (b, wy), (c, -wz)))):
        np.multiply(x1, k1, out=total)
        np.add(total, np.multiply(x2, k2, out=scratch), out=total)
        np.add(total, np.multiply(x3, k3, out=scratch), out=total)


def _step_tables(sequence, starts):
    """One column per step: energy, start t_n, (a, b, c, d) of U(t_n) and
    the four sums of :func:`rotate`'s left product with the step axis."""
    import numpy as np

    tables = np.empty((10, len(starts)))
    tables[0] = [step.energy for step in sequence.steps]
    tables[1] = sequence.boundaries[:-1]
    tables[2:6] = np.transpose(starts)
    axes = np.transpose([step.axis for step in sequence.steps])
    _cross_sums(tables[6:], tables[2:6], axes, 1, np.empty(len(starts)))
    return tables


def transition_probabilities(sequence, times):
    """Transition probability on an array of times (vectorized)."""
    _, _, c, d = evolve_many(sequence, times)
    return c * c + d * d
