"""Closed-form propagators for periodic N-step driving.

A single constant segment rotates the Bloch vector about its field axis;
segments compose through a four-term real recursion on the SU(2)
coefficients (a, b, c, d).  Whole periods enter through a Chebyshev-style
power identity in the per-period rotation angle Theta of U(T), so
evaluating the propagator at t' + script_N * T costs O(N) regardless of the
period count script_N.

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

import numpy as np

from .core import PropagatorCoeffs

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
        times sin(E s), with E the segment energy.
    """
    return compose(PropagatorCoeffs.identity(), step, s)


def rotate(left, cn, sn, axis):
    """The bilinear composition update shared by every propagator path.

    Returns the (a, b, c, d) of U @ U_left as a plain tuple, where U is the
    rotation with cos(E s) = cn and sin(E s) = sn about the unit ``axis``
    (ax, ay, az).  The entries of ``left``, ``cn``, ``sn`` and the axis
    components may be floats or broadcastable arrays; the operation order
    per coefficient is fixed, so scalar and array callers get the same bits
    from the same inputs.
    """
    a, b, c, d = left
    ax, ay, az = axis
    return (
        a * cn - (d * ax + c * ay + b * az) * sn,
        b * cn + (c * ax - d * ay + a * az) * sn,
        c * cn + (-b * ax + a * ay + d * az) * sn,
        d * cn + (a * ax + b * ay - c * az) * sn,
    )


def compose(left, step, s):
    """Apply a segment rotation on top of an existing propagator.

    Returns the coefficients of U_step(s) @ U_left.  This is the
    elementary recursion: each new segment mixes (a, b, c, d) through
    fixed bilinear combinations with the segment axis (see :func:`rotate`).

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

    Full segments before t' are folded in order; the segment containing t'
    contributes a partial rotation.

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
        If t' lies outside [0, T].
    """
    period = sequence.period
    if tprime < 0.0 or tprime > period:
        raise ValueError(
            "intra-period time %r outside [0, %r]" % (tprime, period)
        )
    # running boundaries, summed in the order of PulseSequence.boundaries
    coeffs = PropagatorCoeffs.identity()
    t0 = 0.0
    for step in sequence.steps:
        if tprime <= t0:
            break
        t1 = t0 + step.tau
        coeffs = compose(coeffs, step, min(tprime, t1) - t0)
        t0 = t1
    return coeffs


def period_propagator(sequence):
    """Propagator over one full period; its ``angle`` property is Theta."""
    return intra_period(sequence, sequence.period)


def _combine(inner, per, cos_n, ratio):
    # power identity: U(t' + nT) from U(t'), U(T), cos(n*Theta) and
    # sin(n*Theta)/sin(Theta); linear in `inner`, so it also serves the
    # spectral module with array-valued factors
    aw, bw, cw, dw = inner
    ap, bp, cp, dp = per
    return PropagatorCoeffs(
        aw * cos_n - (dw * dp + cw * cp + bw * bp) * ratio,
        bw * cos_n + (-cw * dp + dw * cp + aw * bp) * ratio,
        cw * cos_n + (bw * dp + aw * cp - dw * bp) * ratio,
        dw * cos_n + (aw * dp - bw * cp + cw * bp) * ratio,
    )


def _power_factors(per, ns):
    """cos(n*Theta) and sin(n*Theta)/sin(Theta) for the rotation U(T) = per.

    ``ns`` is a float or an array of period counts.  Theta is read with
    atan2 from sin(Theta) = |(b, c, d)|; for a < 0 the computation is
    reflected, s = pi - Theta = atan2(sin(Theta), -a), using
    cos(n*Theta) = (-1)**n cos(n*s) and sin(n*Theta) = (-1)**(n+1) sin(n*s),
    so a Theta near pi is never rounded to a float before it is multiplied
    by n.  A null rotation, U(T) = +/-1, has s = 0 and gets the ratio 0,
    which _combine multiplies by zeros.
    """
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

    Splits t into full periods plus an intra-period remainder and combines
    the two propagators through the power identity; the cost does not grow
    with the number of elapsed periods.

    Parameters
    ----------
    sequence : PulseSequence
    t : float

    Returns
    -------
    PropagatorCoeffs
    """
    if t < 0.0:
        raise ValueError("time must be non-negative, got %r" % (t,))
    n, tprime = _split_time(t, sequence.period)
    inner = intra_period(sequence, float(tprime))
    if n == 0:
        return inner
    per = period_propagator(sequence)
    cos_n, ratio = _power_factors(per, n)
    return _combine(inner, per, float(cos_n), float(ratio))


def transition_probability(sequence, t):
    """Population transferred between the basis states at time t."""
    return evolve(sequence, t).transition_probability


def evolve_many(sequence, times):
    """Propagator coefficients on an array of times.

    Vectorized equivalent of :func:`evolve`: returns four arrays
    (a, b, c, d) with the shape of ``times``.  Times are grouped by the
    segment their intra-period remainder falls in, so the cost is O(N +
    len(times)).  Long arrays are processed in blocks of _BLOCK times, so
    the temporaries stay small and the allocator reuses them instead of
    mapping fresh pages on every call.

    Parameters
    ----------
    sequence : PulseSequence
    times : array_like
        Non-negative times, any shape.

    Returns
    -------
    tuple of ndarray
    """
    times = np.asarray(times, dtype=float)
    if times.size and times.min() < 0.0:
        raise ValueError("times must be non-negative")
    ts = times.ravel()
    # prefix propagators at the segment starts are scalars, shared by all blocks
    starts, per = _window_starts(sequence)
    out = np.empty((4, ts.size))
    for lo in range(0, ts.size, _BLOCK):
        block = _evolve_block(sequence, starts, per, ts[lo:lo + _BLOCK])
        for row, coeff in zip(out, block):
            row[lo:lo + _BLOCK] = coeff
    return tuple(row.reshape(times.shape) for row in out)


def _evolve_block(sequence, starts, per, ts):
    """(a, b, c, d) on a flat block of times, from the segment-start
    propagators ``starts`` and the period propagator ``per``."""
    bounds = sequence.boundaries
    n_per, tp = _split_time(ts, sequence.period)

    # intra-period part: the partial rotation inside the containing
    # segment is vectorized
    a = np.empty_like(tp)
    b = np.empty_like(tp)
    c = np.empty_like(tp)
    d = np.empty_like(tp)
    idx = np.searchsorted(bounds, tp, side="right") - 1
    np.clip(idx, 0, len(sequence.steps) - 1, out=idx)
    for k, (step, prefix) in enumerate(zip(sequence.steps, starts)):
        sel = idx == k
        if sel.any():
            phase = step.energy * (tp[sel] - bounds[k])
            a[sel], b[sel], c[sel], d[sel] = rotate(
                prefix, np.cos(phase), np.sin(phase), step.axis
            )

    # whole-period part: per-time power factors, reflected when a(T) < 0
    cos_n, ratio = _power_factors(per, n_per)
    return _combine((a, b, c, d), per, cos_n, ratio)


def transition_probabilities(sequence, times):
    """Transition probability on an array of times (vectorized)."""
    _, _, c, d = evolve_many(sequence, times)
    return c * c + d * d
