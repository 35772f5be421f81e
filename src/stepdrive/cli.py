"""Command-line front end.

Subcommands: propagate (exact trajectories), heff (effective Hamiltonian
report), spectrum (Fourier components and a reduced model), classify
(phenomena flags), scan (parameter grids, optionally parallel), and beat
(two-tone prediction with its envelope).

Sequences are read from a flat text config whose grammar is documented in
the README: one `key = v1, v2, ...` line per parameter array (delta,
epsilon, theta, tau), all in units of the first coupling.  Output is
plain text on stdout, deterministic for fixed inputs; numbers are printed
with 17 significant digits so reruns are byte-identical.

Exit codes: 0 on success, 1 on input errors (config syntax, bad flags,
violated preconditions), 2 on numerical-domain failures such as a
branch-ambiguous effective Hamiltonian.
"""

import argparse
import concurrent.futures
import itertools
import math
import os
import sys

import numpy as np

from .core import PulseSequence
from .effective import effective_hamiltonian, effective_with_jump, jump_sequence
from .phenomena import beat_prediction, classify, design_manipulation
from .propagator import evolve_many
from .spectrum import (
    _aligned_signal,
    dominant_model,
    fourier_closed_form_two_step,
    fourier_numeric,
    model_error,
    two_step_empirical_model,
    write_csv,
)

_CONFIG_KEYS = ("delta", "epsilon", "theta", "tau")

# upper bound of `scan --jobs`, the number of worker processes
_MAX_JOBS = 64

# upper bound of the `propagate --tgrid` points and of the `scan` cells, so
# that a mistyped count fails at once instead of exhausting memory
_MAX_POINTS = 1_000_000

# rows formatted per write, so a long grid never holds all its row strings
_ROW_BLOCK = 8192


class ConfigError(ValueError):
    """Config file rejected; str() carries file name and line number."""

    def __init__(self, path, line_no, message):
        super().__init__("%s:%d: %s" % (path, line_no, message))


def read_config(path):
    """Parse a sequence config file.

    Grammar: one `key = v1, v2, ...` assignment per line for the keys
    delta, epsilon, theta, tau; `#` starts a comment; blank lines are
    ignored.  All four arrays are required and must have equal lengths.

    Returns
    -------
    PulseSequence
        Validated sequence.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(path, 0, "cannot read config: %s" % (exc,))

    arrays = {}
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(path, line_no, "expected `key = values`")
        key, _, payload = text.partition("=")
        key = key.strip().removesuffix("[]")
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                path, line_no,
                "unknown key %r (expected one of %s)" % (key, ", ".join(_CONFIG_KEYS)),
            )
        if key in arrays:
            raise ConfigError(path, line_no, "duplicate key %r" % (key,))
        items = [x.strip() for x in payload.split(",")]
        if items == [""]:
            raise ConfigError(path, line_no, "key %r has no values" % (key,))
        values = []
        for item in items:
            try:
                values.append(float(item))
            except ValueError:
                raise ConfigError(path, line_no, "bad number %r" % (item,))
        arrays[key] = values

    missing = [k for k in _CONFIG_KEYS if k not in arrays]
    if missing:
        raise ConfigError(path, 0, "missing keys: %s" % (", ".join(missing),))
    lengths = {k: len(v) for k, v in arrays.items()}
    if len(set(lengths.values())) != 1:
        raise ConfigError(
            path, 0,
            "arrays must have equal lengths, got %s"
            % (", ".join("%s=%d" % kv for kv in sorted(lengths.items()))),
        )
    return PulseSequence.from_arrays(*(arrays[key] for key in _CONFIG_KEYS))


def _parse_grid(text, what):
    """Parse `min:max:num` into the (min, max, num) of an inclusive linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("%s must look like min:max:num, got %r" % (what, text))
    try:
        lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("%s must look like min:max:num, got %r" % (what, text))
    if not math.isfinite(lo + hi):
        raise ValueError("%s bounds must be finite, got %r" % (what, text))
    if num < 1:
        raise ValueError("%s needs at least one point" % (what,))
    if num == 1 and lo != hi:
        raise ValueError("%s with one point needs min == max" % (what,))
    _check_points(num, what)
    return lo, hi, num


def _check_points(num, what):
    if num > _MAX_POINTS:
        raise ValueError(
            "%s asks for %d points, more than the limit of %d" % (what, num, _MAX_POINTS)
        )


def _apply_jump(sequence, args):
    if args.jump_lambda is None:
        return sequence
    return jump_sequence(sequence, args.jump_lambda, args.jump_step)


def _g17(x):
    return "%.17g" % (x,)


def _write_rows(header, columns):
    """Write a CSV header line, then one row of %.17g values per index.

    `columns` holds equal-length 1-D float arrays, one per header field.
    """
    out = sys.stdout
    out.write(header + "\n")
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        block = [col[lo:lo + _ROW_BLOCK].tolist() for col in columns]
        out.writelines([row_format % row for row in zip(*block)])


def cmd_propagate(args):
    sequence = _apply_jump(read_config(args.config), args)
    times = np.linspace(*_parse_grid(args.tgrid, "--tgrid"))
    if times.min() < 0.0:
        raise ValueError("--tgrid times must be non-negative")
    a, b, c, d = evolve_many(sequence, times)
    _write_rows("t,P12,A,B,C,D", (times, c * c + d * d, a, b, c, d))
    return 0


def cmd_heff(args):
    sequence = read_config(args.config)
    if args.jump_lambda is not None:
        heff = effective_with_jump(
            sequence, args.jump_lambda, args.jump_step, branch=args.branch
        )
    else:
        heff = effective_hamiltonian(sequence, branch=args.branch)
    for name, value in (
        ("delta_eff", heff.delta_eff),
        ("epsilon_eff", heff.epsilon_eff),
        ("theta_eff", heff.theta_eff),
        ("omega_eff", heff.omega_eff),
        ("rotation_angle", heff.rotation_angle),
        ("period", heff.period),
        ("omega_t", heff.omega_t),
    ):
        print("%s = %s" % (name, _g17(value)))
    return 0


def cmd_spectrum(args):
    sequence = read_config(args.config)
    l_range = (args.lmin, args.lmax)
    if len(sequence.steps) == 2:
        model = fourier_closed_form_two_step(sequence, l_range, K=args.periods)
    else:
        periods = args.periods if args.periods is not None else 256
        model = fourier_numeric(sequence, l_range, K=periods)
    print("# full")
    write_csv(model, sys.stdout)
    reduced = dominant_model(model, max_terms=args.max_terms)
    print("# reduced")
    write_csv(reduced, sys.stdout)
    err = model_error(sequence, reduced)
    print("# eps_m = %s" % (_g17(err.value),))
    return 0


def cmd_classify(args):
    sequence = read_config(args.config)
    report = classify(sequence, tol=args.tol, max_index=args.max_index)
    for line in report.lines():
        print(line)
    return 0


def _parse_vary(text):
    """Parse `field=min:max:num` with field like delta2 or tau1.

    Returns (name, step number, (min, max, num)).
    """
    if "=" not in text:
        raise ValueError("--vary must look like field=min:max:num, got %r" % (text,))
    field, _, grid_text = text.partition("=")
    field = field.strip()
    name = field.rstrip("0123456789")
    index_text = field[len(name):]
    if name not in _CONFIG_KEYS or not index_text:
        raise ValueError(
            "--vary field must be one of %s followed by a step number, got %r"
            % ("/".join(_CONFIG_KEYS), field)
        )
    return name, int(index_text), _parse_grid(grid_text, "--vary")


def _scan_cell(payload):
    """Evaluate one scan cell; top level so process pools can pickle it."""
    (flat_index, arrays, fields, values, metric, resolve_tau) = payload
    arrays = {k: list(v) for k, v in arrays.items()}
    for (name, index), value in zip(fields, values):
        arrays[name][index - 1] = value
    try:
        sequence = PulseSequence.from_arrays(*(arrays[key] for key in _CONFIG_KEYS))
        if resolve_tau is not None:
            sequence = design_manipulation(
                sequence, "complete_transition", "durations"
            )
        if metric == "omega_eff":
            result = effective_hamiltonian(sequence, branch="positive_a").omega_eff
        elif metric == "P12max":
            result = float(_aligned_signal(sequence, 40.0 * sequence.period, 64)[1].max())
        else:
            model = two_step_empirical_model(sequence)
            result = model_error(sequence, model).value
    except (ValueError, ArithmeticError):
        result = math.nan
    return flat_index, values, result


def cmd_scan(args):
    sequence = read_config(args.config)
    arrays = {key: [getattr(s, key) for s in sequence.steps] for key in _CONFIG_KEYS}
    if not 1 <= len(args.vary) <= 2:
        raise ValueError("--vary must be given once or twice")
    axes = [_parse_vary(v) for v in args.vary]
    if len(axes) == 2 and axes[0][:2] == axes[1][:2]:
        raise ValueError("--vary field %s%d given twice" % axes[0][:2])
    n_steps = len(sequence.steps)
    for name, index, _ in axes:
        if not 1 <= index <= n_steps:
            raise ValueError(
                "--vary step index %d out of range 1..%d" % (index, n_steps)
            )
    if args.resolve_tau is not None and args.resolve_tau != 2:
        raise ValueError("--resolve-tau currently supports only step 2")
    if args.resolve_tau is not None and n_steps != 2:
        raise ValueError("--resolve-tau needs a two-step sequence")
    if not 1 <= args.jobs <= _MAX_JOBS:
        raise ValueError("--jobs must lie in 1..%d, got %d" % (_MAX_JOBS, args.jobs))
    _check_points(math.prod(a[2][2] for a in axes), "the scan grid")

    fields = [a[:2] for a in axes]
    # row-major cells: the flat index runs fastest along the last axis
    grids = [np.linspace(*a[2]).tolist() for a in axes]
    payloads = [
        (i, arrays, fields, values, args.metric, args.resolve_tau)
        for i, values in enumerate(itertools.product(*grids))
    ]

    workers = min(args.jobs, len(payloads))
    if workers > 1:
        # about four chunks per worker, as multiprocessing.Pool.map sizes them
        chunk = -(-len(payloads) // (4 * workers))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_cell, payloads, chunksize=chunk))
    else:
        results = [_scan_cell(p) for p in payloads]
    results.sort(key=lambda r: r[0])

    table = np.array([values + (result,) for _, values, result in results])
    _write_rows(",".join(["%s%d" % f for f in fields] + [args.metric]), table.T)
    return 0


def cmd_beat(args):
    sequence = read_config(args.config)
    prediction = beat_prediction(sequence, resonant_tol=args.resonant_tol)
    for name, value in (
        ("varpi_1", prediction.varpi_1),
        ("varpi_1_prime", prediction.varpi_1_prime),
        ("omega_b", prediction.omega_b),
        ("t_p", prediction.t_p),
    ):
        print("# %s = %s" % (name, _g17(value)))
    print("# n_resonant = %d" % (prediction.n_resonant,))
    if prediction.omega_b > 0.0:
        horizon = 2.0 * 2.0 * math.pi / prediction.omega_b
    else:
        horizon = 40.0 * sequence.period
    times = np.linspace(0.0, horizon, 1001)
    envelope = 0.5 * (1.0 + np.abs(np.cos(
        prediction.omega_b * (times - prediction.t_p)
    )))
    _write_rows("t,envelope", (times, envelope))
    return 0


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # input errors exit 1; argparse's default error() exits 2
    def error(self, message):
        raise _ArgumentError(message)


def build_parser():
    parser = _Parser(
        prog="stepdrive",
        description="Exact dynamics of periodically step-driven two-level systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("propagate", help="evolve and emit t,P12,A,B,C,D rows")
    p.add_argument("config")
    p.add_argument("--tgrid", required=True, help="time grid min:max:num")
    p.add_argument("--jump-lambda", type=float, default=None,
                   help="jump parameter in [0, 1] applied before evolving")
    p.add_argument("--jump-step", type=int, default=1,
                   help="1-based step carrying the jump (default 1)")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("heff", help="effective Hamiltonian report")
    p.add_argument("config")
    p.add_argument("--branch", choices=("principal", "positive_a"),
                   default="principal")
    p.add_argument("--jump-lambda", type=float, default=None)
    p.add_argument("--jump-step", type=int, default=1)
    p.set_defaults(func=cmd_heff)

    p = sub.add_parser("spectrum", help="Fourier components and reduced model")
    p.add_argument("config")
    p.add_argument("--lmin", type=int, default=-4)
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--periods", type=int, default=None,
                   help="periods in the probe window (default: the infinite "
                        "window for two steps, 256 otherwise)")
    p.add_argument("--max-terms", type=int, default=3)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("classify", help="phenomena flags")
    p.add_argument("config")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-index", type=int, default=64)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="metric over a 1-D or 2-D parameter grid")
    p.add_argument("config")
    p.add_argument("--vary", action="append", required=True,
                   metavar="FIELD=MIN:MAX:NUM",
                   help="grid axis, e.g. delta2=0:100:41 (repeat for 2-D)")
    p.add_argument("--metric", choices=("eps_m", "omega_eff", "P12max"),
                   default="eps_m")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, 1..%d; never more than the cells "
                        "(default 1)" % _MAX_JOBS)
    p.add_argument("--resolve-tau", type=int, default=None,
                   help="re-solve this step duration per cell so the "
                        "effective detuning vanishes (step 2 only)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("beat", help="beat prediction and model envelope")
    p.add_argument("config")
    p.add_argument("--resonant-tol", type=float, default=0.01)
    p.set_defaults(func=cmd_beat)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print("stepdrive: error: %s" % (exc,), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream reader (e.g. head) closed stdout; silence the flush on exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ArithmeticError as exc:
        print("stepdrive: numerical error: %s" % (exc,), file=sys.stderr)
        return 2
    except ValueError as exc:
        print("stepdrive: error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
