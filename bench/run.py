"""stepdrive benchmark: one seeded workload, timed, checked, optionally traced.

Usage (from the root of a stepdrive checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_short, scan_design, library_analysis (see README.md in
this directory).  The program runs from the checkout's own
`src/` (PYTHONPATH), one request at a time: a closed loop with a single
client.  Set-up (generate the configs, start the session, one untimed
warm-up request) is repeated SETUP_REPEATS times and its median reported.
The timed loop cycles through the workload's request pool for S seconds
of request time.  Outputs are checked against `stepdrive.oracle` after the
loop, outside every timed figure.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 the loop runs for S/2 seconds of untraced request time and sends
every request a second time with module spans recorded; the last line
reports per-layer metrics and trace_overhead, the traced over the
untraced median latency minus 1.  The line before the last is a JSON
record of the run context.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time

import numpy as np

import tracing
from workloads import BENCH_DIR, WORKLOADS, LibrarySession, parse_rows

SETUP_REPEATS = 3
# most spectrum checks per run, over distinct requests in seeded order;
# requests whose oracle grid exceeds the sample budget do not count
SPECTRUM_CHECKS = 6
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit) of the end-to-end metrics, reported with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("cpu_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# (name, unit): every per-layer metric, reported on every workload
PER_LAYER = (
    ("import.s", "s"),
    ("import.modules", "count"),
    ("cli.read_config.calls", "count"),
    ("cli.read_config.self_s", "s"),
    ("cli.cmd.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("cli.scan.nan_share", "ratio"),
    ("core.validate.calls", "count"),
    ("core.validate.self_s", "s"),
    ("propagator.period_propagator.calls", "count"),
    ("propagator.period_propagator.self_s", "s"),
    ("propagator.intra_period.calls", "count"),
    ("propagator.intra_period.self_s", "s"),
    ("propagator.evolve_many.calls", "count"),
    ("propagator.evolve_many.self_s", "s"),
    ("propagator.evolve_many.points", "count"),
    ("effective.effective_hamiltonian.calls", "count"),
    ("effective.effective_hamiltonian.self_s", "s"),
    ("spectrum.fourier_numeric.calls", "count"),
    ("spectrum.fourier_numeric.self_s", "s"),
    ("spectrum.fourier_numeric.periods", "count"),
    ("spectrum.fourier_closed_form_two_step.calls", "count"),
    ("spectrum.fourier_closed_form_two_step.self_s", "s"),
    ("spectrum.model_error.calls", "count"),
    ("spectrum.model_error.self_s", "s"),
    ("spectrum.write_csv.self_s", "s"),
    ("phenomena.design_manipulation.calls", "count"),
    ("phenomena.design_manipulation.self_s", "s"),
    ("phenomena.design_manipulation.residual_evals", "count"),
    ("phenomena.classify.calls", "count"),
    ("phenomena.classify.self_s", "s"),
    ("phenomena.beat_prediction.calls", "count"),
    ("phenomena.beat_prediction.self_s", "s"),
    ("trace_overhead", "ratio"),
)


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


def tail_latency(values):
    """Highest percentile with at least 10 samples beyond it, at least the median.

    Nearest-rank: with n samples the order statistic x_(n-10) has exactly
    ten above it and sits at percentile 100*(n-10)/n.  Below 20 samples
    that percentile falls under the median, which is then reported
    instead; the value moves continuously as n crosses 20.
    """
    xs = sorted(values)
    n = len(xs)
    rank = max(n - 10, (n + 1) // 2)
    label = "p%.4g" % (100.0 * rank / n)
    if n - 10 < (n + 1) // 2:
        label += " (the median: fewer than 20 samples)"
    return xs[rank - 1], label


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def versions():
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def timed_loop(session, pool, budget, traced=None, spans_dir=None, on_trace=None):
    """Closed loop over the pool until `budget` seconds of request time.

    With a `traced` session every block of `session.trace_block` requests
    is sent again to it right after the untraced block, so both see the
    same requests at nearly the same time and slow spells of the machine
    hit both alike.  Returns the untraced and the traced (request,
    outcome) lists.
    """
    records = []
    shadow = []
    spent = 0.0
    i = 0
    while spent < budget:
        block = []
        while spent < budget and len(block) < session.trace_block:
            req = pool[i % len(pool)]
            out = session.run(req)
            records.append((req, out))
            block.append(req)
            spent += out.latency
            i += 1
        for req in block if traced is not None else ():
            spans = os.path.join(spans_dir, "spans%d.bin" % len(shadow)) if spans_dir else None
            out = traced.run(req, spans)
            if on_trace is not None:
                on_trace(spans, out)
            shadow.append((req, out))
    return records, shadow


class Layers:
    """Accumulates span summaries over the traced requests."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.amounts = {}
        self.imports = []
        self.modules = []

    def add(self, trace, skip=()):
        summary, amounts = tracing.summarize(trace, skip)
        for name, entry in summary.items():
            if name == "import":
                self.imports.append(entry["total_s"])
                continue
            self.calls[name] = self.calls.get(name, 0) + entry["calls"]
            self.self_s[name] = self.self_s.get(name, 0.0) + entry["self_s"]
        for name, value in amounts.items():
            self.amounts[name] = self.amounts.get(name, 0) + value
        if "import.modules" in trace["extra"]:
            self.modules.append(trace["extra"]["import.modules"])

    def metrics(self, n, stdout_bytes, nan_share, overhead):
        out = {}
        for name, unit in PER_LAYER:
            if name == "import.s":
                value = statistics.fmean(self.imports) if self.imports else 0.0
            elif name == "import.modules":
                value = statistics.fmean(self.modules) if self.modules else 0.0
            elif name == "cli.stdout_bytes":
                value = stdout_bytes
            elif name == "cli.scan.nan_share":
                value = nan_share
            elif name == "trace_overhead":
                value = overhead
            else:
                span, _, field = name.rpartition(".")
                if field == "calls":
                    value = self.calls.get(span, 0) / n
                elif field == "self_s":
                    value = self.self_s.get(span, 0.0) / n
                else:
                    value = self.amounts.get(name, 0) / n
            out[name] = {"value": value, "unit": unit}
        return out

    def missing(self, required):
        have = set(self.calls)
        if self.imports:
            have.add("import")
        return [name for name in required if name not in have]


def nan_share(records):
    cells = nans = 0
    for req, out in records:
        if req.kind == "scan" and out.code == 0:
            rows = parse_rows(out.stdout)
            cells += rows.shape[0]
            nans += int(np.isnan(rows[:, -1]).sum())
    return nans / cells if cells else 0.0


def check_records(workload, records, seed):
    """Oracle checks on the first output of each distinct request.

    A request fails on an unexpected exit code, a timeout, an oracle
    mismatch, or stdout that differs from an earlier run of the same
    request.  Returns (failed flags, failure reasons, check notes).
    """
    first = {}
    for req, out in records:
        first.setdefault(req.key, (req, out))
    keys = sorted(first)
    np.random.default_rng([seed, 7]).shuffle(keys)
    verdicts = {}
    notes = {}
    spectra = 0
    for key in keys:
        req, out = first[key]
        if out.timed_out or out.code != req.expect_code:
            verdicts[key] = "exit code %r, expected %r%s" % (
                out.code, req.expect_code, " (timeout)" if out.timed_out else "")
            continue
        try:
            reason, note = workload.check(req, out.stdout, spectra < SPECTRUM_CHECKS)
        except (ValueError, KeyError, IndexError) as exc:
            reason, note = "unparseable output: %s" % (exc,), None
        verdicts[key] = reason
        if note:
            notes[note] = notes.get(note, 0) + 1
            spectra += note != "spectrum_skipped"
    failed = []
    reasons = []
    for req, out in records:
        ref = first[req.key][1]
        reason = verdicts[req.key]
        if reason is None and (out.timed_out or out.code != req.expect_code):
            reason = "exit code %r, expected %r" % (out.code, req.expect_code)
        if reason is None and (out.code, out.stdout) != (ref.code, ref.stdout):
            reason = "stdout differs between repeats of %s" % (req.key,)
        failed.append(reason is not None)
        if reason is not None:
            reasons.append("%s: %s" % (req.key, reason))
    return failed, reasons, notes


def run(args, root, workload, work_root):
    setup_times = []
    session = None
    for rep in range(SETUP_REPEATS):
        if session is not None:
            session.close()
        workdir = os.path.join(work_root, "setup%d" % rep)
        os.makedirs(workdir)
        start = time.perf_counter()
        warmup, pool = workload.build(np.random.default_rng([args.seed, sorted(WORKLOADS).index(
            workload.name)]), workdir)
        session = workload.session(root)
        session.run(warmup)
        setup_times.append(time.perf_counter() - start)

    budget = args.seconds / 2.0 if args.trace else float(args.seconds)
    layers = Layers()
    tsession = spans_dir = on_trace = library_spans = None
    if args.trace:
        spans_dir = os.path.join(work_root, "spans")
        os.makedirs(spans_dir)
        if isinstance(session, LibrarySession):
            library_spans = os.path.join(spans_dir, "library.bin")
            tsession = LibrarySession(root, library_spans)
            tsession.run(warmup)
            spans_dir = None
        else:
            tsession = session

            def on_trace(path, out):
                if os.path.exists(path):
                    layers.add(tracing.load(path))
                    os.remove(path)
    try:
        records, traced = timed_loop(session, pool, budget, tsession, spans_dir, on_trace)
    finally:
        codes = [session.close()]
        if tsession is not None and tsession is not session:
            codes.append(tsession.close())
    if any(code not in (None, 0) for code in codes):
        raise BenchError("library client exited with %r" % (codes,))
    if library_spans is not None:
        # request 0 is the untimed warm-up
        layers.add(tracing.load(library_spans), skip={0})
    if args.trace:
        required = []
        for req, _ in traced:
            required.extend(n for n in req.required_spans() if n not in required)
        missing = layers.missing(required)
        if missing:
            raise BenchError("trace guard: no calls recorded for %s on %s; a function "
                             "was not rebound" % (", ".join(missing), workload.name))

    check_start = time.perf_counter()
    failed, reasons, notes = check_records(workload, records + traced, args.seed)
    check_s = time.perf_counter() - check_start
    latencies = [out.latency for _, out in records]
    p50 = statistics.median(latencies)
    tail, tail_label = tail_latency(latencies)
    attempted = len(records) + len(traced)
    n_failed = sum(failed)

    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "versions": versions(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "load": "closed loop, 1 client",
        "work_per_request": workload.work,
        "requests": len(records),
        "traced_requests": len(traced),
        "latency_tail": {"percentile": tail_label, "samples": len(latencies)},
        "setup_s_samples": setup_times,
        "error_rate": n_failed / attempted,
        "checks": notes,
        "check_s": check_s,
        "failures": reasons[:10],
    }
    if args.trace:
        traced_p50 = statistics.median(out.latency for _, out in traced)
        n = len(traced)
        stdout_bytes = (sum(len(out.stdout) for _, out in traced) / n
                        if not isinstance(session, LibrarySession) else 0.0)
        metrics = layers.metrics(n, stdout_bytes, nan_share(traced), traced_p50 / p50 - 1.0)
        context["traced_latency_p50_ms"] = 1e3 * traced_p50
        context["untraced_latency_p50_ms"] = 1e3 * p50
    else:
        if isinstance(session, LibrarySession):
            rss_kb = session.rss_kb
        else:
            rss_kb = max(out.rss_kb for _, out in records)
        values = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": 1e3 * p50,
            "latency_tail_ms": 1e3 * tail,
            "requests_per_s": len(latencies) / math.fsum(latencies),
            "cpu_ms_p50": 1e3 * statistics.median(out.cpu for _, out in records),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stepdrive", "cli.py")):
        print("bench/run.py: no src/stepdrive in %s; run from the root of a stepdrive "
              "checkout" % (root,), file=sys.stderr)
        return 2
    # the oracle checks import stepdrive from this checkout
    sys.path.insert(1, os.path.join(root, "src"))
    work_root = os.path.join(BENCH_DIR, "_work", str(os.getpid()))
    os.makedirs(work_root)
    try:
        return run(args, root, WORKLOADS[args.workload], work_root)
    except BenchError as exc:
        print("bench/run.py: %s" % (exc,), file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another run is using it


if __name__ == "__main__":
    sys.exit(main())
