"""Output checks against the brute-force oracle.

Every check here recomputes the expected answer from `stepdrive.oracle`
(chronological products of per-segment matrix exponentials, quadrature
Fourier projections) and never from the closed-form fast path that the
benchmark times.  Sequences are passed around as plain dicts of the four
parameter arrays, exactly as the generator wrote them into the configs.

A check returns None when the output agrees and a one-line reason when it
does not.  All checks run after the timed loop, outside every metric.
"""

import math

import numpy as np

# |U_program - U_oracle| for propagators over moderate horizons
UNITARY_TOL = 1e-9
# extra absolute slack per elapsed period for long brute-force products
PER_PERIOD_TOL = 1e-13
# reported residuals against the oracle (a, b, c, d)
RESIDUAL_TOL = 1e-9
# offset and line amplitudes: accepts both the Richardson estimate and
# exact infinite-window lines (the README's acceptance check 6)
SPECTRUM_TOL = 0.01
# relative agreement of an independently recomputed scan cell
SCAN_RTOL = 1e-6
# largest quadrature grid a spectrum check may sample
SPECTRUM_SAMPLE_BUDGET = 1_000_000
# oracle window for an infinite-window (K=None) two-step spectrum
LONG_WINDOW_PERIODS = 2048
# the program's Richardson stages for K=None
RICHARDSON_PERIODS = (256, 512, 1024)


class Oracle:
    """Brute-force propagators and signals for one sequence.

    Wraps `stepdrive.oracle.brute_force_evolve` on a `PulseSequence` built
    from the raw arrays.  `PulseSequence` is only the data type the oracle
    reads; no closed-form routine is called.
    """

    def __init__(self, spec):
        from stepdrive.core import DriveStep, PulseSequence
        from stepdrive import oracle

        self._oracle = oracle
        self.steps = [
            DriveStep(*row)
            for row in zip(spec["delta"], spec["epsilon"], spec["theta"], spec["tau"])
        ]
        self.sequence = PulseSequence(tuple(self.steps))
        self.period = math.fsum(s.tau for s in self.steps)

    def unitary(self, t):
        return self._oracle.brute_force_evolve(self.sequence, t)

    def coeffs(self, t):
        return coeffs_from_unitary(self.unitary(t))

    def signal(self, per_period, n_periods):
        """P12 on the uniform grid j*T/per_period, j = 0 .. n_periods*per_period.

        Intra-period propagators come from the oracle; whole periods are
        applied as repeated products with the oracle's U(T).
        """
        dt = self.period / per_period
        times = np.arange(n_periods * per_period + 1) * dt
        inner = np.array([self.unitary(j * dt) for j in range(per_period)])
        u_period = self.unitary(self.period)
        probs = np.empty((n_periods + 1, per_period))
        power = np.eye(2, dtype=complex)
        for k in range(n_periods + 1):
            u = inner @ power
            probs[k] = np.abs(u[:, 1, 0]) ** 2
            power = u_period @ power
        return times, probs.ravel()[: times.size]

    def numeric_fourier(self, times, values, omega):
        return self._oracle.numeric_fourier(times, values, omega)


def coeffs_from_unitary(u):
    """(a, b, c, d) of U = [[a + ib, c - id], [-c - id, a - ib]]."""
    return (u[0, 0].real, u[0, 0].imag, u[0, 1].real, -u[0, 1].imag)


def hermitian_exp(delta, epsilon, theta, s):
    """exp(-1j*s*H) for H = [[-delta/2, eps e^{i theta}], [eps e^{-i theta}, delta/2]]."""
    off = epsilon * complex(math.cos(theta), math.sin(theta))
    h = np.array([[-0.5 * delta, off], [off.conjugate(), 0.5 * delta]])
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * s * w)) @ v.conj().T


def jumped_spec(spec, lam, m):
    """The sequence entered a fraction lam into step m (1-based), rebuilt here."""
    n = len(spec["tau"])
    order = [m - 1] + list(range(m, n)) + list(range(0, m - 1)) + [m - 1]
    fracs = [1.0 - lam] + [1.0] * (n - 1) + [lam]
    out = {k: [] for k in ("delta", "epsilon", "theta", "tau")}
    for i, f in zip(order, fracs):
        tau = f * spec["tau"][i] if f != 1.0 else spec["tau"][i]
        if tau <= 0.0:
            continue
        for k in ("delta", "epsilon", "theta"):
            out[k].append(spec[k][i])
        out["tau"].append(tau)
    return out


def _max_diff(x, y):
    return float(np.max(np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))))


def check_rows(spec, rows):
    """Rows of (t, P12, a, b, c, d) against brute-force evolution."""
    oracle = Oracle(spec)
    for t, p12, a, b, c, d in rows:
        expect = oracle.coeffs(t)
        tol = UNITARY_TOL + PER_PERIOD_TOL * (t / oracle.period)
        diff = _max_diff((a, b, c, d), expect)
        if not diff <= tol:
            return "row t=%r deviates from the oracle by %.3g" % (t, diff)
        if not abs(p12 - (c * c + d * d)) <= 1e-12:
            return "row t=%r: P12 is not c^2 + d^2" % (t,)
    return None


def check_row_invariants(values, times):
    """All rows: t column on the requested grid, unit norm, P12 = c^2 + d^2.

    ``values`` is an (n, 6) array; ``times`` the requested grid.
    """
    if values.shape != (times.size, 6):
        return "expected %d rows of 6 columns, got shape %r" % (times.size, values.shape)
    if not np.array_equal(values[:, 0], times):
        return "t column differs from the requested grid"
    a, b, c, d = values[:, 2], values[:, 3], values[:, 4], values[:, 5]
    norm = np.abs(a * a + b * b + c * c + d * d - 1.0)
    if not float(norm.max()) <= 1e-12:
        return "row %d is not unitary (defect %.3g)" % (int(norm.argmax()), norm.max())
    p = np.abs(values[:, 1] - (c * c + d * d))
    if not float(p.max()) <= 1e-12:
        return "row %d: P12 is not c^2 + d^2" % (int(p.argmax()),)
    return None


def check_heff(spec, params, lam=None, m=1):
    """exp(-i H_eff T) must rebuild the oracle's period propagator."""
    if lam is not None:
        spec = jumped_spec(spec, lam, m)
    oracle = Oracle(spec)
    period = oracle.period
    if not abs(params["period"] - period) <= 1e-12 * period:
        return "period %r differs from the sum of durations %r" % (params["period"], period)
    if not abs(params["omega_t"] - 2.0 * math.pi / period) <= 1e-12 * params["omega_t"]:
        return "omega_t is not 2 pi / T"
    rebuilt = hermitian_exp(
        params["delta_eff"], params["epsilon_eff"], params["theta_eff"], period
    )
    diff = _max_diff(coeffs_from_unitary(rebuilt), oracle.coeffs(period))
    if not diff <= UNITARY_TOL:
        return "exp(-i H_eff T) misses the oracle U(T) by %.3g" % (diff,)
    return None


def check_micromotion(spec, tprime, params):
    """exp(-i M(t')) must equal the oracle's intra-period propagator."""
    rebuilt = hermitian_exp(params[0], params[1], params[2], 1.0)
    diff = _max_diff(coeffs_from_unitary(rebuilt), Oracle(spec).coeffs(tprime))
    if not diff <= UNITARY_TOL:
        return "exp(-i M(t')) misses the oracle U(t') by %.3g" % (diff,)
    return None


def check_classify(spec, residuals):
    """cdt, complete_transition and swapping residuals from the oracle U(T)."""
    oracle = Oracle(spec)
    a, b, c, d = oracle.coeffs(oracle.period)
    expect = {
        "cdt": math.hypot(c, d),
        "complete_transition": abs(b),
        "swapping": abs(a),
    }
    for name, value in expect.items():
        if name not in residuals:
            return "classify report has no %s line" % (name,)
        if not abs(residuals[name] - value) <= RESIDUAL_TOL:
            return "%s residual %r, oracle %r" % (name, residuals[name], value)
    return None


def spectrum_grid(spec, top_frequencies, periods):
    """Samples per period for a quadrature that resolves the signal.

    At least 16 samples per period of the fastest probed line, and a step
    of at most 0.15/E for every segment energy E, so that the trapezoid
    error on each window tone stays far below the tolerance.  Returns
    None when the whole window would exceed the sample budget.
    """
    period = math.fsum(spec["tau"])
    energy = max(math.hypot(e, 0.5 * d) for e, d in zip(spec["epsilon"], spec["delta"]))
    fastest = max([abs(f) for f in top_frequencies] + [2.0 * math.pi / period])
    dt = min(2.0 * math.pi / (16.0 * fastest), 0.15 / max(energy, 1e-12), period / 64.0)
    per_period = int(math.ceil(period / dt))
    if per_period * periods > SPECTRUM_SAMPLE_BUDGET:
        return None
    return per_period


def check_spectrum(spec, offset, lines, periods):
    """Offset and top-line amplitudes against the oracle's quadrature.

    ``lines`` holds (frequency, amplitude) of the program's strongest
    lines and ``periods`` its projection window.  A finite window is
    checked over the same window.  None means an infinite-window estimate:
    it passes when it is within tolerance of either the oracle over
    LONG_WINDOW_PERIODS (exact lines) or the oracle's own Richardson
    combination over RICHARDSON_PERIODS (today's estimate, which can miss
    the exact line by more than the tolerance).

    Returns (reason, status) with status one of "skipped" (the grid
    exceeds the sample budget), "window", "long" or "richardson" (which
    reference the output matched).
    """
    window = LONG_WINDOW_PERIODS if periods is None else periods
    per_period = spectrum_grid(spec, [f for f, _ in lines], window)
    if per_period is None:
        return None, "skipped"
    oracle = Oracle(spec)
    times, values = oracle.signal(per_period, window)

    def projections(n_periods):
        end = n_periods * per_period + 1
        t, v = times[:end], values[:end]
        return [0.5 * oracle.numeric_fourier(t, v, 0.0).real] + [
            abs(oracle.numeric_fourier(t, v, f)) for f, _ in lines
        ]

    program = [offset] + [amp for _, amp in lines]

    def misses(reference):
        return [abs(p - r) for p, r in zip(program, reference)]

    first = misses(projections(window))
    if max(first) <= SPECTRUM_TOL:
        return None, ("window" if periods is not None else "long")
    if periods is None:
        z1, z2, z4 = (projections(k) for k in RICHARDSON_PERIODS)
        extrapolated = [(8.0 * c - 6.0 * b + a) / 3.0 for a, b, c in zip(z1, z2, z4)]
        if max(misses(extrapolated)) <= SPECTRUM_TOL:
            return None, "richardson"
    worst = int(np.argmax(first))
    what = "offset" if worst == 0 else "line at %r" % (lines[worst - 1][0],)
    return "%s misses the oracle by %.3g" % (what, first[worst]), "window"


def aligned_times(oracle, t_end, per_step):
    """Boundary-aligned grid on [0, t_end] with per_step samples per step.

    The same grid the scan metric integrates on, rebuilt from the step
    durations so the quadrature of an independent recomputation matches.
    """
    period = oracle.period
    bounds = np.concatenate([[0.0], np.cumsum([s.tau for s in oracle.steps])])
    n_full = int(math.floor(t_end / period))
    base = np.concatenate(
        [np.linspace(t0, t1, per_step + 1)[1:] for t0, t1 in zip(bounds[:-1], bounds[1:])]
    )
    chunks = [np.array([0.0])] + [base + k * period for k in range(n_full)]
    left = t_end - n_full * period
    if left > 1e-12 * period:
        start = n_full * period
        for t0, t1 in zip(bounds[:-1], bounds[1:]):
            if t0 >= left:
                break
            hi = min(t1, left)
            n = max(2, int(math.ceil(per_step * (hi - t0) / (t1 - t0))))
            chunks.append(start + np.linspace(t0, hi, n + 1)[1:])
    return np.concatenate(chunks)


def _positive_a_log(coeffs, period):
    # omega_eff and delta_eff on the positive-a branch of log U(T)
    a, b, c, d = coeffs
    if a < 0.0:
        a, b, c, d = -a, -b, -c, -d
    norm = math.sqrt(b * b + c * c + d * d)
    ratio = 1.0 if norm < 1e-8 else math.atan2(norm, a) / norm
    omega = norm * ratio / period
    return omega, 2.0 * b * ratio / period


def scan_cell_eps_m(spec, delta2, epsilon2):
    """eps_m of one `scan --resolve-tau 2` cell, recomputed from the oracle.

    Mirrors the cell's recipe: tau2 is re-solved so the period
    propagator's b vanishes (first sign change on the same 2048-point
    bracket, then a root search), and the two-tone empirical model is
    averaged against the oracle signal over 40 periods.  Returns nan where
    the program must report nan.
    """
    import scipy.optimize

    base = {k: list(v) for k, v in spec.items()}
    base["delta"][1] = delta2
    base["epsilon"][1] = epsilon2

    def with_tau2(tau2):
        cell = {k: list(v) for k, v in base.items()}
        cell["tau"][1] = tau2
        return cell

    def residual(tau2):
        oracle = Oracle(with_tau2(tau2))
        return oracle.coeffs(oracle.period)[1]

    tau2 = base["tau"][1]
    if not abs(residual(tau2)) < 1e-12:
        energy2 = math.hypot(epsilon2, 0.5 * delta2)
        grid = np.linspace(1e-9, tau2 + 2.0 * math.pi / energy2, 2048)
        vals = np.array([residual(x) for x in grid])
        flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        if flips.size == 0:
            return math.nan
        i = flips[0]
        tau2 = scipy.optimize.brentq(residual, grid[i], grid[i + 1], xtol=1e-14)
    cell = with_tau2(tau2)
    oracle = Oracle(cell)
    period = oracle.period
    omega, delta_eff = _positive_a_log(oracle.coeffs(period), period)
    if not abs(delta_eff) * period < 1e-6:
        return math.nan
    energies = [math.hypot(e, 0.5 * d) for e, d in zip(cell["epsilon"], cell["delta"])]
    p = max((e / en) ** 2 for e, en in zip(cell["epsilon"], energies))
    phases = [en * t / math.pi for en, t in zip(energies, cell["tau"])]
    lam = p * (1.0 - 2.0 * phases[0] * phases[1])
    omega_minus = math.pi / period - omega

    t_s = 40.0 * period
    times = aligned_times(oracle, t_s, 64)
    n_periods = int(math.ceil(times[-1] / period)) + 1
    u_period = oracle.unitary(period)
    powers = [np.eye(2, dtype=complex)]
    for _ in range(n_periods):
        powers.append(u_period @ powers[-1])
    # the aligned grid repeats the same intra-period times in every period
    inner = {}
    exact = np.empty(times.size)
    for i, t in enumerate(times):
        k = min(int(t // period), n_periods)
        tprime = t - k * period
        if tprime < 0.0:
            k, tprime = k - 1, t - (k - 1) * period
        key = round(tprime / period, 12)
        if key not in inner:
            inner[key] = oracle.unitary(tprime)
        u = inner[key] @ powers[k]
        exact[i] = abs(u[1, 0]) ** 2
    model = (
        0.5
        - 0.5 * (1.0 - lam) * np.cos(2.0 * omega * times)
        - 0.5 * lam * np.cos(2.0 * omega_minus * times)
    )
    return float(np.trapezoid(np.abs(exact - model), times)) / t_s


def check_scan_cell(spec, delta2, epsilon2, reported):
    expect = scan_cell_eps_m(spec, delta2, epsilon2)
    if math.isnan(expect) or math.isnan(reported):
        if math.isnan(expect) != math.isnan(reported):
            return "cell (%r, %r): eps_m %r, recomputed %r" % (delta2, epsilon2, reported, expect)
        return None
    if not abs(reported - expect) <= SCAN_RTOL * abs(expect) + 1e-12:
        return "cell (%r, %r): eps_m %r, recomputed %r" % (delta2, epsilon2, reported, expect)
    return None
