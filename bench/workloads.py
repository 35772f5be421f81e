"""The three stepdrive workloads: seeded inputs, execution, output checks.

Each workload builds a fixed pool of requests from its seed, runs them in
a closed loop (one client; the next request is sent when the previous one
has completed) by cycling through the pool, and checks outputs afterwards.
A request's first output is checked against the oracle; a repeat of the
same request must print the same bytes.

* cli_short: short CLI calls; start-up and import dominate.
* scan_design: `scan --resolve-tau 2`; scalar period propagators dominate.
* library_analysis: one long-lived Python client calling the library;
  spectrum and the vectorized propagator dominate, with no import or
  formatting per request.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REQUEST_TIMEOUT_S = 60.0

SHORT_ROWS = 2001
SCAN_SIDE = 6
LIBRARY_ROUNDS = 16
# candidates drawn per library round, of which one is kept per stratum
LIBRARY_CANDIDATES = 4
ROWS_POINTS = 100_000


def _floats(values):
    return [float(v) for v in values]


def spec_text(spec):
    """Config file text; repr() round-trips every float exactly."""
    return "".join(
        "%s = %s\n" % (key, ", ".join(repr(v) for v in spec[key]))
        for key in ("delta", "epsilon", "theta", "tau")
    )


def moderate_spec(rng, n):
    """n steps with couplings, detunings and durations of order one."""
    return {
        "delta": _floats(np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
                         * rng.choice([-1.0, 1.0], n)),
        "epsilon": _floats(np.exp(rng.uniform(np.log(0.3), np.log(3.0), n))),
        "theta": _floats(rng.uniform(-np.pi, np.pi, n)),
        "tau": _floats(np.exp(rng.uniform(np.log(0.1), np.log(2.0), n))),
    }


def log_uniform_specs(rng, n, rounds, lo=0.01, hi=100.0):
    """`rounds` n-step sequences, each field log-uniform over [lo, hi].

    The distribution of tests/helpers.random_sequence, drawn as a Latin
    hypercube across the rounds: for every step and field each round takes
    a different one of `rounds` equal strata, so the pool of one seed
    covers the range evenly and its cost varies less between seeds.
    """
    span = math.log(hi / lo)

    def stratified():
        strata = rng.permuted(np.tile(np.arange(rounds), (n, 1)), axis=1).T
        return (strata + rng.uniform(size=(rounds, n))) / rounds

    eps, dmag, tau, theta = (stratified() for _ in range(4))
    signs = rng.choice([-1.0, 1.0], (rounds, n))
    return [
        {
            "delta": _floats(lo * np.exp(span * dmag[r]) * signs[r]),
            "epsilon": _floats(lo * np.exp(span * eps[r])),
            "theta": _floats(np.pi * (2.0 * theta[r] - 1.0)),
            "tau": _floats(lo * np.exp(span * tau[r])),
        }
        for r in range(rounds)
    ]


def largest_phase(spec):
    """max over the steps of E*tau, the dynamical phase of one step."""
    return max(math.hypot(e, 0.5 * d) * t
               for e, d, t in zip(spec["epsilon"], spec["delta"], spec["tau"]))


def phase_stratified(rng, specs, rounds):
    """`rounds` of `specs`, one from each equal stratum of largest_phase.

    The spectrum's quadrature grid, and with it most of the cost of a
    library request, grows with the largest phase.  Sorting the candidates
    by it and keeping one at random from each of `rounds` consecutive
    groups leaves every kept spec distributed like a candidate, but the
    pool of one seed spans that cost evenly, so its median cost varies
    less between seeds.  Returned in random order.
    """
    specs = sorted(specs, key=largest_phase)
    size = len(specs) // rounds
    kept = [specs[r * size + int(rng.integers(size))] for r in range(rounds)]
    return [kept[i] for i in rng.permutation(rounds)]


def beat_spec(rng, n):
    """n-step quarter-cycle drive, resonant first step, detuned others.

    Every dynamical phase E_n*tau_n is pi/2 and every other step is
    strongly detuned (|delta| > 10 eps), so `beat_prediction` applies;
    returns (spec, number of resonant steps).
    """
    eps = _floats(rng.uniform(0.5, 2.0, n))
    deltas = [0.0] + _floats(rng.uniform(30.0, 90.0, n - 1) * rng.choice([-1.0, 1.0], n - 1))
    taus = [0.5 * math.pi / math.hypot(e, 0.5 * d) for e, d in zip(eps, deltas)]
    spec = {"delta": deltas, "epsilon": eps, "theta": [0.0] * n, "tau": taus}
    return spec, 1


def wide_window_spec(rng, n):
    """n equal steps whose period rotation Theta sits just below pi/2.

    classify sizes its projection window to resolve the line pair at
    2*omega_eff and omega_T - 2*omega_eff, whose spacing is proportional
    to pi/2 - Theta; here that window reaches its 4096-period cap, so the
    request has the largest working set classify can build.
    """
    eps = float(rng.uniform(0.5, 2.0))
    delta = float(rng.uniform(-2.0, 2.0))
    theta = float(rng.uniform(-np.pi, np.pi))
    total = (0.5 * math.pi - float(rng.uniform(0.2, 0.7)) * math.pi / 4096.0) / math.hypot(
        eps, 0.5 * delta)
    return {"delta": [delta] * n, "epsilon": [eps] * n, "theta": [theta] * n,
            "tau": [total / n] * n}


MALFORMED = (
    "delta = 0, 1\nepsilon = 1\ntheta = 0, 0\ntau = 1, 1\n",
    "delta = 0\nepsilon = one\ntheta = 0\ntau = 1\n",
    "delta = 0\nepsilon = 1\ntheta = 0\n",
    "delta = 0\nepsilon = 1\ntheta = 0\ntau = -1\n",
    "delta = 0\nepsilon = 1\ngamma = 0\ntau = 1\n",
)


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Outcome:
    __slots__ = ("latency", "cpu", "rss_kb", "code", "_stdout", "timed_out")

    def __init__(self, latency, cpu, rss_kb, code, stdout, timed_out=False):
        self.latency = latency
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.code = code
        self._stdout = stdout  # bytes, or an open file that holds them
        self.timed_out = timed_out

    @property
    def stdout(self):
        if not isinstance(self._stdout, bytes):
            with self._stdout as sink:
                sink.seek(0)
                self._stdout = sink.read()
        return self._stdout


def run_cli(root, argv, spans_path=None):
    """One CLI process; wall time, child rusage, exit code and stdout.

    stdout goes to an unnamed file in the benchmark directory, not to a
    pipe, so a large output never waits for this process to read it.  The
    outcome reads the file only when its stdout is asked for: a child's
    ru_maxrss counts the peak RSS of the process that started it (the
    kernel records it when the child execs), so this process must not
    have held the outputs of earlier requests when it starts the next.
    """
    if spans_path is None:
        cmd = [sys.executable, "-m", "stepdrive.cli"] + argv
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "trace_shim.py"), spans_path] + argv
    sink = tempfile.TemporaryFile(dir=BENCH_DIR)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=sink, stderr=subprocess.DEVNULL,
                            env=child_env(root), cwd=root)
    timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        sink.close()
        raise
    finally:
        timer.cancel()
    latency = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    timed_out = latency >= REQUEST_TIMEOUT_S
    return Outcome(latency, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, code,
                   sink, timed_out)


class Request:
    """One distinct request of a pool."""

    def __init__(self, key, kind, spec, expect_code=0, argv=None, **extra):
        self.key = key
        self.kind = kind
        self.spec = spec
        self.expect_code = expect_code
        self.argv = argv
        self.extra = extra

    def required_spans(self):
        """Spans a traced run of this request must record (the trace guard)."""
        if self.kind == "malformed":
            return ("import", "cli.cmd", "cli.read_config")
        n = len(self.spec["tau"])
        spectrum = ("spectrum.fourier_closed_form_two_step" if n == 2
                    else "spectrum.fourier_numeric")
        if self.kind == "analysis":
            spans = ("import", "propagator.evolve_many", "propagator.period_propagator",
                     "effective.effective_hamiltonian", "phenomena.classify",
                     "spectrum.model_error", spectrum)
            return spans + (("phenomena.beat_prediction",) if self.extra["payload"]["beat"]
                            else ())
        own = {
            "heff": ("effective.effective_hamiltonian",),
            "classify": ("phenomena.classify", "propagator.period_propagator"),
            "spectrum": (spectrum, "spectrum.write_csv", "spectrum.model_error"),
            "propagate": ("propagator.evolve_many",),
            "beat": ("phenomena.beat_prediction",),
            "scan": ("propagator.period_propagator", "propagator.intra_period",
                     "phenomena.design_manipulation", "spectrum.model_error"),
        }[self.kind]
        return ("import", "cli.cmd", "cli.read_config", "core.validate") + own


def digest(data):
    return hashlib.sha1(data).hexdigest()


# ---------------------------------------------------------------- CLI output


def _lines(stdout):
    return stdout.decode("utf-8").splitlines()


def parse_assignments(stdout, prefix=""):
    out = {}
    for line in _lines(stdout):
        if line.startswith(prefix) and " = " in line:
            key, _, value = line[len(prefix):].partition(" = ")
            out[key.strip()] = float(value)
    return out


def parse_classify(stdout):
    out = {}
    for line in _lines(stdout):
        name, _, rest = line.partition(": ")
        for field in rest.split():
            if field.startswith("residual="):
                out[name] = float(field[len("residual="):])
    return out


def parse_spectrum(stdout):
    """Offset and (frequency, amplitude) rows of the `# full` section."""
    lines = _lines(stdout)
    end = lines.index("# reduced")
    offset = None
    comps = []
    for line in lines[1:end]:
        if line.startswith("# offset = "):
            offset = float(line[len("# offset = "):])
        elif line and not line.startswith(("#", "l,")):
            fields = line.split(",")
            comps.append((float(fields[1]), float(fields[2])))
    return offset, comps


def parse_rows(stdout):
    """All numeric rows of a CSV with one header line, as an (n, k) array."""
    head, _, body = stdout.partition(b"\n")
    width = head.count(b",") + 1
    values = np.fromstring(body.rstrip(b"\n").replace(b"\n", b","), sep=",")
    return values.reshape(-1, width)


def parse_grid(text):
    lo, hi, num = text.split(":")
    return np.linspace(float(lo), float(hi), int(num))


def sample_indices(key, count, n):
    """Seeded sample of row indices: the first, the last and count others."""
    rng = np.random.default_rng(int(digest(key.encode())[:12], 16))
    picks = {0, n - 1}
    picks.update(int(i) for i in rng.integers(0, n, count))
    return sorted(picks)


def check_cli(req, stdout, with_spectrum=True):
    """Check one CLI output against the oracle.

    Returns (reason, note): reason is None when the output is right, and
    note records which spectrum reference matched, if any.
    """
    kind, spec = req.kind, req.spec
    if kind == "malformed":
        return (None if stdout == b"" else "malformed config printed output"), None
    if kind == "heff":
        params = parse_assignments(stdout)
        lam = req.extra.get("lam")
        return checks.check_heff(spec, params, lam, req.extra.get("step", 1)), None
    if kind == "classify":
        return checks.check_classify(spec, parse_classify(stdout)), None
    if kind == "spectrum":
        if not with_spectrum:
            return None, None
        offset, comps = parse_spectrum(stdout)
        periods = None if len(spec["tau"]) == 2 else 256
        reason, status = checks.check_spectrum(spec, offset, comps[:2], periods)
        return reason, "spectrum_" + status
    if kind == "propagate":
        rows = parse_rows(stdout)
        times = parse_grid(req.extra["tgrid"])
        reason = checks.check_row_invariants(rows, times)
        if reason:
            return reason, None
        picks = sample_indices(req.key, 3, rows.shape[0])
        return checks.check_rows(spec, [tuple(rows[i]) for i in picks]), None
    if kind == "beat":
        return check_beat(req, stdout), None
    if kind == "scan":
        return check_scan(req, stdout), None
    return "unknown request kind %r" % (kind,), None


def check_beat(req, stdout):
    head = parse_assignments(stdout, "# ")
    if int(head.get("n_resonant", -1)) != req.extra["n_resonant"]:
        return "n_resonant %r, built with %d" % (head.get("n_resonant"), req.extra["n_resonant"])
    omega_b = abs(head["varpi_1_prime"] - head["varpi_1"])
    if not abs(head["omega_b"] - omega_b) <= 1e-12 * max(omega_b, 1e-300):
        return "omega_b is not |varpi_1' - varpi_1|"
    body = stdout[stdout.index(b"t,envelope\n"):]
    rows = parse_rows(body)
    if rows.shape != (1001, 2):
        return "expected 1001 envelope rows, got %r" % (rows.shape,)
    expect = 0.5 * (1.0 + np.abs(np.cos(head["omega_b"] * (rows[:, 0] - head["t_p"]))))
    if not float(np.max(np.abs(rows[:, 1] - expect))) <= 1e-9:
        return "envelope rows do not follow the stated beat"
    return None


def check_scan(req, stdout):
    rows = parse_rows(stdout)
    side = req.extra["side"]
    if rows.shape != (side * side, 3):
        return "expected %d scan rows, got shape %r" % (side * side, rows.shape)
    d_grid, e_grid = parse_grid(req.extra["vary"][0]), parse_grid(req.extra["vary"][1])
    expect = np.array([(x, y) for x in d_grid for y in e_grid])
    if not np.array_equal(rows[:, :2], expect):
        return "scan cells are not on the requested grid"
    for i in sample_indices(req.key, 1, rows.shape[0])[1:3]:
        reason = checks.check_scan_cell(req.spec, rows[i, 0], rows[i, 1], rows[i, 2])
        if reason:
            return reason
    return None


# ----------------------------------------------------------------- CLI pools


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def cli_short_pool(rng, workdir):
    """Twelve short calls in a fixed order of kinds; parameters from the seed."""
    kinds = ("heff", "classify", "spectrum", "propagate", "heff_jump", "beat",
             "classify", "spectrum", "heff", "propagate", "malformed", "beat")
    pool = []
    n_spectrum = 0
    for i, kind in enumerate(kinds):
        key = "cli_short/%d" % i
        name = "short%02d.cfg" % i
        if kind == "malformed":
            text = MALFORMED[int(rng.integers(0, len(MALFORMED)))]
            path = _write(workdir, name, text)
            pool.append(Request(key, kind, None, 1, ["heff", path]))
            continue
        if kind == "beat":
            spec, n_res = beat_spec(rng, 2 if i < 6 else 4)
            path = _write(workdir, name, spec_text(spec))
            pool.append(Request(key, kind, spec, 0, ["beat", path], n_resonant=n_res))
            continue
        if kind == "spectrum":
            # one two-step (closed form, K=None) and one N-step (K=256) call
            n = 2 if n_spectrum == 0 else int(rng.choice([1, 3, 4, 5, 6, 7, 8]))
            n_spectrum += 1
        else:
            n = int(rng.integers(1, 9))
        if kind == "classify" and i > 1:
            n = 4
            spec = wide_window_spec(rng, n)
        else:
            spec = moderate_spec(rng, n)
        path = _write(workdir, name, spec_text(spec))
        if kind == "heff":
            pool.append(Request(key, kind, spec, 0, ["heff", path]))
        elif kind == "heff_jump":
            lam = float(rng.uniform(0.05, 0.95))
            step = int(rng.integers(1, n + 1))
            argv = ["heff", path, "--jump-lambda", repr(lam), "--jump-step", str(step)]
            pool.append(Request(key, "heff", spec, 0, argv, lam=lam, step=step))
        elif kind == "propagate":
            tgrid = "0:%r:%d" % (50.0 * math.fsum(spec["tau"]), SHORT_ROWS)
            pool.append(Request(key, kind, spec, 0, ["propagate", path, "--tgrid", tgrid],
                                tgrid=tgrid))
        else:
            pool.append(Request(key, kind, spec, 0, [kind, path]))
    return pool[0], pool


def scan_design_pool(rng, workdir):
    """Three 6x6 `scan --resolve-tau 2` grids over (delta2, epsilon2).

    The first step is off resonance, so no cell starts at the target and
    every cell runs the full bracket and root search.
    """
    pool = []
    for i in range(3):
        spec = {
            "delta": [float(rng.uniform(1.5, 4.0) * rng.choice([-1.0, 1.0])),
                      float(rng.uniform(20.0, 40.0))],
            "epsilon": _floats(rng.uniform(0.7, 1.3, 2)),
            "theta": [0.0, float(rng.uniform(-1.0, 1.0))],
            "tau": [float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.03, 0.08))],
        }
        path = _write(workdir, "scan%d.cfg" % i, spec_text(spec))
        d_lo = float(rng.uniform(15.0, 25.0))
        e_lo = float(rng.uniform(0.5, 0.8))
        vary = ("%r:%r:%d" % (d_lo, d_lo + float(rng.uniform(10.0, 25.0)), SCAN_SIDE),
                "%r:%r:%d" % (e_lo, e_lo + float(rng.uniform(0.4, 0.8)), SCAN_SIDE))
        argv = ["scan", path, "--vary", "delta2=" + vary[0], "--vary", "epsilon2=" + vary[1],
                "--resolve-tau", "2", "--metric", "eps_m", "--jobs", "1"]
        pool.append(Request("scan_design/%d" % i, "scan", spec, 0, argv,
                            vary=vary, side=SCAN_SIDE))
    # a `heff` call loads everything a scan loads, without a multi-second
    # request before the timed loop
    warmup = Request("scan_design/warmup", "heff", pool[0].spec, 0, ["heff", pool[0].argv[1]])
    return warmup, pool


class CliSession:
    """CLI workloads have no session; each request is a fresh process."""

    # a CLI process leaves nothing running, so traced and untraced runs
    # of a request can alternate one by one
    trace_block = 1

    def __init__(self, root):
        self.root = root
        self.rss_kb = 0

    def run(self, req, spans_path=None):
        return run_cli(self.root, req.argv, spans_path)

    def close(self):
        return None


# ------------------------------------------------------------ library client


def library_pool(rng):
    """A warm-up request, then LIBRARY_ROUNDS rounds of 1..8 log-uniform steps and a beat drive.

    The warm-up is an eight-step wide-window drive: the largest working
    set classify can build, so the session's peak RSS is set by that fixed
    request and not by whichever random sequence happens to need the most.
    """
    rounds = LIBRARY_ROUNDS
    by_size = [phase_stratified(rng, log_uniform_specs(rng, n, rounds * LIBRARY_CANDIDATES),
                                rounds)
               for n in range(1, 9)]
    entries = [(wide_window_spec(rng, 8), None)]
    for r in range(rounds):
        entries.extend((by_size[n][r], None) for n in range(8))
        entries.append(beat_spec(rng, (2, 4, 6, 8)[r % 4]))
    pool = []
    for i, (spec, n_res) in enumerate(entries):
        payload = dict(spec)
        payload.update(
            tprime_frac=float(rng.uniform(0.05, 0.95)),
            horizon_periods=float(10.0 ** rng.uniform(1.0, 3.0)),
            beat=n_res is not None,
            points=ROWS_POINTS,
        )
        key = "library_analysis/%d" % i
        payload["rows"] = sample_indices(key, 2, ROWS_POINTS)
        pool.append(Request(key, "analysis", spec, 0, None, payload=payload, n_resonant=n_res))
    return pool[0], pool[1:]


class LibrarySession:
    """One long-lived `lib_worker.py` child; requests are JSON lines."""

    # an idle client's BLAS threads keep spinning for a while after a
    # request, which slows whichever client runs next; alternating in
    # blocks keeps that to the block edges
    trace_block = 16

    def __init__(self, root, spans_path=None):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "lib_worker.py")]
        if spans_path:
            cmd.append(spans_path)
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=child_env(root),
                                     cwd=root, text=True)
        self.hello = json.loads(self.proc.stdout.readline() or "null")
        self.rss_kb = 0
        self.next_id = 0

    def run(self, req, spans_path=None):
        payload = dict(req.extra["payload"], id=self.next_id)
        self.next_id += 1
        start = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps(payload) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        latency = time.perf_counter() - start
        if not line:
            return Outcome(latency, 0.0, 0, 1, b"")
        reply = json.loads(line)
        result = json.dumps(reply["result"], sort_keys=True).encode()
        return Outcome(latency, reply["cpu_s"], 0, 0, result)

    def close(self):
        """End the child and wait for it; returns its exit code."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        timer = threading.Timer(REQUEST_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            timer.cancel()
            self.proc.stdout.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb = usage.ru_maxrss
        return self.proc.returncode


def check_library(req, stdout, with_spectrum):
    """Oracle checks of one analysed sequence; returns (reason, note)."""
    spec = req.spec
    res = json.loads(stdout)
    payload = req.extra["payload"]
    delta_eff, epsilon_eff, theta_eff, period = res["heff"]
    params = {"delta_eff": delta_eff, "epsilon_eff": epsilon_eff, "theta_eff": theta_eff,
              "period": period, "omega_t": 2.0 * math.pi / period}
    reason = (
        checks.check_heff(spec, params)
        or checks.check_micromotion(spec, payload["tprime_frac"] * period, res["micromotion"])
        or checks.check_classify(spec, res["classify"])
        or checks.check_rows(spec, [tuple(r) for r in res["rows"]])
    )
    if reason:
        return reason, None
    if req.extra["n_resonant"] is not None:
        varpi, varpi_prime, omega_b, _, n_res = res["beat"]
        if n_res != req.extra["n_resonant"]:
            return "n_resonant %r, built with %d" % (n_res, req.extra["n_resonant"]), None
        if not abs(omega_b - abs(varpi_prime - varpi)) <= 1e-12 * max(omega_b, 1e-300):
            return "omega_b is not |varpi_1' - varpi_1|", None
    if not with_spectrum:
        return None, None
    periods = None if len(spec["tau"]) == 2 else 256
    reason, status = checks.check_spectrum(
        spec, res["offset"], [tuple(x) for x in res["lines"][:2]], periods
    )
    return reason, "spectrum_" + status


# ---------------------------------------------------------------- workloads


class Workload:
    """Name, pool factory, session factory, checker and work per request."""

    def __init__(self, name, build, session, check, work):
        self.name = name
        self.build = build
        self.session = session
        self.check = check
        self.work = work


WORKLOADS = {
    "cli_short": Workload(
        "cli_short", cli_short_pool, CliSession, check_cli,
        {"calls": "heff, heff --jump-lambda, classify, spectrum, beat, propagate "
                  "(%d rows), malformed config" % SHORT_ROWS, "pool": 12},
    ),
    "scan_design": Workload(
        "scan_design", scan_design_pool, CliSession, check_cli,
        {"cells": SCAN_SIDE * SCAN_SIDE, "pool": 3},
    ),
    "library_analysis": Workload(
        "library_analysis", lambda rng, workdir: library_pool(rng), LibrarySession,
        check_library, {"sequences": 1, "evolve_points": ROWS_POINTS,
                           "pool": 9 * LIBRARY_ROUNDS},
    ),
}
