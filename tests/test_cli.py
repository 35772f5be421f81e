"""Config parsing, CLI subcommands, output formats, and exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import stepdrive.cli as cli
from stepdrive import (
    PulseSequence,
    beat_prediction,
    classify,
    design_manipulation,
    effective_hamiltonian,
    effective_with_jump,
    evolve_many,
    jump_sequence,
)

from helpers import large_phase_drive, oracle_projection

# resonant step then a strongly detuned one, quarter-cycle areas
PAIR_CONFIG = """\
delta = 0, 40
epsilon = 1, 1
theta = 0, 0
tau = 1.5707963267948966, 0.078441825264356502
"""


def write_config(tmp_path, text, name="seq.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_read_config_parses_comments_and_suffixes(tmp_path):
    path = write_config(
        tmp_path,
        "# leading comment\n"
        "delta = 0.0, 40.0\n"
        "\n"
        "epsilon[] = 1.0, -1.0\n"
        "theta = 0.0, 0.25\n"
        "tau = 0.5, 0.25  # trailing comment\n",
    )
    seq = cli.read_config(path)
    assert seq.n_steps == 2
    assert seq.steps[0].delta == 0.0
    assert seq.steps[1].delta == 40.0
    # validation folds the negative coupling into the phase
    assert seq.steps[1].epsilon == 1.0
    assert seq.steps[1].theta == pytest.approx(0.25 - math.pi)
    assert seq.steps[1].tau == 0.25


def test_read_config_reports_lines_and_messages(tmp_path):
    with pytest.raises(cli.ConfigError, match="cannot read config"):
        cli.read_config(str(tmp_path / "absent.cfg"))
    path = write_config(tmp_path, "delta 1, 2\n")
    with pytest.raises(cli.ConfigError, match=":1: expected `key = values`"):
        cli.read_config(path)
    path = write_config(tmp_path, "gamma = 1\n")
    with pytest.raises(cli.ConfigError, match=":1: unknown key 'gamma'"):
        cli.read_config(path)
    path = write_config(tmp_path, "delta = 1\ndelta = 2\n")
    with pytest.raises(cli.ConfigError, match=":2: duplicate key 'delta'"):
        cli.read_config(path)
    path = write_config(tmp_path, "delta =\n")
    with pytest.raises(cli.ConfigError, match=":1: key 'delta' has no values"):
        cli.read_config(path)
    path = write_config(tmp_path, "delta = 1, fast\n")
    with pytest.raises(cli.ConfigError, match=":1: bad number 'fast'"):
        cli.read_config(path)
    path = write_config(tmp_path, "delta = 1\ntau = 1\n")
    with pytest.raises(cli.ConfigError, match=":0: missing keys: epsilon, theta"):
        cli.read_config(path)
    path = write_config(
        tmp_path, "delta = 1, 2\nepsilon = 1\ntheta = 0\ntau = 1\n"
    )
    with pytest.raises(cli.ConfigError, match="equal lengths"):
        cli.read_config(path)


def test_config_error_is_a_value_error():
    assert issubclass(cli.ConfigError, ValueError)


def test_propagate_starts_from_the_identity(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(["propagate", path, "--tgrid", "0:2:3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,P12,A,B,C,D"
    assert lines[1] == "0,0,1,0,0,0"
    assert len(lines) == 4


def test_propagate_matches_the_library(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    seq = cli.read_config(path)
    # the long grid spans two full row blocks of the writer and part of a third
    for num in (7, 2 * cli._ROW_BLOCK + 3):
        times = np.linspace(0.0, 5.0, num)
        assert cli.main(["propagate", path, "--tgrid", "0:5:%d" % num]) == 0
        a, b, c, d = evolve_many(seq, times)
        expected = ["t,P12,A,B,C,D"] + [
            ",".join("%.17g" % x for x in row)
            for row in zip(times, c * c + d * d, a, b, c, d)
        ]
        assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_propagate_applies_the_jump(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    seq = jump_sequence(cli.read_config(path), 0.4, 1)
    assert cli.main(
        ["propagate", path, "--tgrid", "1:1:1", "--jump-lambda", "0.4"]
    ) == 0
    line = capsys.readouterr().out.splitlines()[1]
    a, b, c, d = evolve_many(seq, np.array([1.0]))
    expected = (1.0, float(c[0] ** 2 + d[0] ** 2), a[0], b[0], c[0], d[0])
    assert line == ",".join("%.17g" % x for x in expected)


def test_propagate_rejects_bad_time_grids(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(["propagate", path, "--tgrid", "0:5"]) == 1
    assert "min:max:num" in capsys.readouterr().err
    # The leading dash must ride inside one token or argparse eats it.
    assert cli.main(["propagate", path, "--tgrid=-1:5:3"]) == 1
    assert "non-negative" in capsys.readouterr().err
    assert cli.main(["propagate", path, "--tgrid", "0:5:0"]) == 1
    assert "at least one point" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0:inf:3", "nan:1:2"])
def test_propagate_rejects_non_finite_time_grids(tmp_path, capsys, grid):
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(["propagate", path, "--tgrid", grid]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def test_grids_above_the_point_limit_exit_1_before_allocating(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be allocated or evaluated")

    monkeypatch.setattr(cli.np, "linspace", refuse)
    monkeypatch.setattr(cli, "evolve_many", refuse)
    monkeypatch.setattr(cli, "_scan_cell", refuse)
    path = write_config(tmp_path, PAIR_CONFIG)
    huge = 10**12
    assert cli.main(["propagate", path, "--tgrid", "0:1:%d" % huge]) == 1
    err = capsys.readouterr().err
    assert "--tgrid asks for %d points, more than the limit of %d" % (
        huge, cli._MAX_POINTS) in err
    assert cli.main(["scan", path, "--vary", "delta2=0:1:%d" % huge]) == 1
    assert "--vary asks for %d points" % huge in capsys.readouterr().err
    # each axis is within the limit, the grid they span is not
    side = 10**6
    assert side <= cli._MAX_POINTS < side * side
    assert cli.main(
        ["scan", path, "--vary", "delta2=0:1:%d" % side, "--vary", "tau2=0.1:0.2:%d" % side]
    ) == 1
    assert "the scan grid asks for %d points" % huge in capsys.readouterr().err


def test_heff_report_matches_the_library(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    seq = cli.read_config(path)
    for branch in ("principal", "positive_a"):
        heff = effective_hamiltonian(seq, branch=branch)
        assert cli.main(["heff", path, "--branch", branch]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        values = dict(line.split(" = ") for line in lines)
        for name in values:
            assert float(values[name]) == getattr(heff, name)


def test_heff_with_jump_matches_the_library(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    seq = cli.read_config(path)
    heff = effective_with_jump(seq, 0.33, 1, branch="positive_a")
    assert cli.main(
        ["heff", path, "--branch", "positive_a", "--jump-lambda", "0.33"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    values = dict(line.split(" = ") for line in lines)
    assert float(values["epsilon_eff"]) == heff.epsilon_eff
    assert float(values["omega_eff"]) == heff.omega_eff


def test_heff_branch_cut_is_a_numerical_error(tmp_path, capsys):
    # a half-cycle resonant step sits exactly on the logarithm branch cut
    path = write_config(
        tmp_path,
        "delta = 0\nepsilon = 1\ntheta = 0\ntau = 3.1415926535897931\n",
    )
    assert cli.main(["heff", path]) == 2
    assert "stepdrive: numerical error:" in capsys.readouterr().err
    # the positive_a branch resolves the ambiguity
    assert cli.main(["heff", path, "--branch", "positive_a"]) == 0


def test_spectrum_sections_are_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(["spectrum", path, "--lmin", "-2", "--lmax", "2"]) == 0
    first = capsys.readouterr().out
    assert "# full" in first
    assert "# reduced" in first
    assert "# eps_m = " in first
    assert "l,frequency,amplitude,phase,family" in first
    # reruns are byte-identical
    assert cli.main(["spectrum", path, "--lmin", "-2", "--lmax", "2"]) == 0
    assert capsys.readouterr().out == first
    # the reduced section honors --max-terms
    assert cli.main(
        ["spectrum", path, "--lmin", "-2", "--lmax", "2", "--max-terms", "1"]
    ) == 0
    reduced = capsys.readouterr().out.split("# reduced")[1]
    rows = [
        line for line in reduced.splitlines()
        if line and not line.startswith("#") and not line.startswith("l,")
    ]
    assert len(rows) == 1


def test_spectrum_of_a_large_phase_step_matches_the_oracle_window(tmp_path, capsys):
    # three steps (256-period window), one turning by E*tau = 300 rad
    seq = large_phase_drive()
    path = write_config(tmp_path, "".join(
        "%s = %s\n" % (key, ", ".join(repr(getattr(s, key)) for s in seq.steps))
        for key in ("delta", "epsilon", "theta", "tau")
    ))
    assert cli.main(["spectrum", path]) == 0
    full = capsys.readouterr().out.split("# reduced")[0].splitlines()
    offset = float(full[1].split("=")[1])
    rows = [line.split(",") for line in full[3:]]
    freqs = [float(row[1]) for row in rows]
    z = oracle_projection(seq, [0.0] + freqs, 256)
    assert abs(offset - 0.5 * z[0].real) < 1e-6
    for row, zz in zip(rows, z[1:]):
        assert abs(float(row[2]) - abs(zz)) < 1e-6


def test_classify_prints_the_report(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    seq = cli.read_config(path)
    assert cli.main(["classify", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == classify(seq, tol=1e-3, max_index=64).lines()


def test_scan_matches_a_library_loop(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    seq = cli.read_config(path)
    assert cli.main(
        ["scan", path, "--vary", "delta2=30:50:5", "--metric", "omega_eff"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta2,omega_eff"
    assert len(lines) == 6
    for line, x in zip(lines[1:], np.linspace(30.0, 50.0, 5)):
        cell = PulseSequence.from_arrays(
            [seq.steps[0].delta, float(x)],
            [s.epsilon for s in seq.steps],
            [s.theta for s in seq.steps],
            [s.tau for s in seq.steps],
        )
        expected = effective_hamiltonian(cell, branch="positive_a").omega_eff
        got_x, got_val = (float(v) for v in line.split(","))
        assert got_x == float(x)
        assert got_val == expected


def test_scan_parallel_equals_serial(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    args = ["scan", path, "--vary", "delta2=30:50:5", "--metric", "omega_eff"]
    assert cli.main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(args + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size and chunk size."""

    calls = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.calls.append((self.max_workers, chunksize))
        return map(fn, items)


def test_scan_rejects_out_of_range_jobs_before_any_pool(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no process pool may be built")

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", refuse)
    path = write_config(tmp_path, PAIR_CONFIG)
    args = ["scan", path, "--vary", "delta2=30:50:5", "--metric", "omega_eff"]
    for jobs in (0, -3, cli._MAX_JOBS + 1, 10**9):
        assert cli.main(args + ["--jobs", str(jobs)]) == 1
        err = capsys.readouterr().err
        assert "--jobs must lie in 1..%d" % cli._MAX_JOBS in err


@pytest.mark.parametrize(
    "cells, jobs, expected",
    [
        (5, "1", []),
        (5, "2", [(2, 1)]),
        (5, str(cli._MAX_JOBS), [(5, 1)]),
        (41, "3", [(3, 4)]),
    ],
)
def test_scan_pool_gives_every_worker_cells(tmp_path, capsys, monkeypatch, cells, jobs, expected):
    monkeypatch.setattr(_SerialPool, "calls", [])
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    path = write_config(tmp_path, PAIR_CONFIG)
    args = ["scan", path, "--vary", "delta2=30:50:%d" % cells, "--metric", "omega_eff"]
    assert cli.main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(args + ["--jobs", jobs]) == 0
    assert capsys.readouterr().out == serial
    assert _SerialPool.calls == expected
    # at most one worker per cell, and at least one chunk per worker
    for workers, chunk in _SerialPool.calls:
        assert workers <= cells
        assert -(-cells // chunk) >= workers


def test_scan_two_axes_order_rows_by_first_axis(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(
        [
            "scan", path,
            "--vary", "delta2=30:40:2",
            "--vary", "tau2=0.05:0.09:2",
            "--metric", "omega_eff",
        ]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta2,tau2,omega_eff"
    assert len(lines) == 5
    firsts = [float(line.split(",")[0]) for line in lines[1:]]
    seconds = [float(line.split(",")[1]) for line in lines[1:]]
    assert firsts == [30.0, 30.0, 40.0, 40.0]
    assert seconds == [0.05, 0.09, 0.05, 0.09]


def test_scan_resolves_durations_per_cell(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "delta = 20, 30\nepsilon = 1, 1\ntheta = 0, 0\ntau = 0.0938, 0.05\n",
    )
    seq = cli.read_config(path)
    assert cli.main(
        [
            "scan", path,
            "--vary", "delta2=28:32:2",
            "--metric", "omega_eff",
            "--resolve-tau", "2",
        ]
    ) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    for line, x in zip(lines, (28.0, 32.0)):
        cell = PulseSequence.from_arrays(
            [20.0, x],
            [s.epsilon for s in seq.steps],
            [s.theta for s in seq.steps],
            [s.tau for s in seq.steps],
        )
        cell = design_manipulation(cell, "complete_transition", "durations")
        expected = effective_hamiltonian(cell, branch="positive_a").omega_eff
        assert float(line.split(",")[1]) == expected


def test_scan_marks_failed_cells_nan(tmp_path, capsys):
    # the default metric needs a strong effective detuning; this drive has
    # almost none, so its cell must come out nan instead of crashing
    path = write_config(
        tmp_path,
        "delta = 3, 2.19\nepsilon = 1, 1\ntheta = 0, 0\ntau = 0.2066, 1.6729\n",
    )
    assert cli.main(["scan", path, "--vary", "delta2=2.19:2.19:1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta2,eps_m"
    assert math.isnan(float(lines[1].split(",")[1]))


def test_scan_rejects_bad_axes(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(["scan", path, "--vary", "gamma2=0:1:3"]) == 1
    assert "field must be one of" in capsys.readouterr().err
    assert cli.main(["scan", path, "--vary", "delta=0:1:3"]) == 1
    assert "field must be one of" in capsys.readouterr().err
    assert cli.main(["scan", path, "--vary", "delta9=0:1:3"]) == 1
    assert "out of range" in capsys.readouterr().err
    assert cli.main(
        ["scan", path] + ["--vary", "delta2=0:1:2"] * 3
    ) == 1
    assert "once or twice" in capsys.readouterr().err
    assert cli.main(
        ["scan", path, "--vary", "delta2=0:1:2", "--vary", "delta2=5:6:2",
         "--metric", "omega_eff"]
    ) == 1
    captured = capsys.readouterr()
    assert "delta2 given twice" in captured.err
    assert captured.out == ""
    assert cli.main(
        ["scan", path, "--vary", "delta2=0:1:2", "--resolve-tau", "1"]
    ) == 1
    assert "only step 2" in capsys.readouterr().err
    single = write_config(
        tmp_path, "delta = 0\nepsilon = 1\ntheta = 0\ntau = 1\n", name="one.cfg"
    )
    assert cli.main(
        ["scan", single, "--vary", "delta1=0:1:2", "--resolve-tau", "2"]
    ) == 1
    assert "two-step sequence" in capsys.readouterr().err


def test_beat_prints_prediction_then_envelope(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    seq = cli.read_config(path)
    bp = beat_prediction(seq)
    assert cli.main(["beat", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# varpi_1 = %.17g" % bp.varpi_1
    assert lines[1] == "# varpi_1_prime = %.17g" % bp.varpi_1_prime
    assert lines[2] == "# omega_b = %.17g" % bp.omega_b
    assert lines[3] == "# t_p = %.17g" % bp.t_p
    assert lines[4] == "# n_resonant = 1"
    assert lines[5] == "t,envelope"
    rows = lines[6:]
    assert len(rows) == 1001
    values = [float(r.split(",")[1]) for r in rows]
    assert min(values) >= 0.5 - 1e-12
    assert max(values) <= 1.0 + 1e-12


def test_usage_errors_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(["warp", path]) == 1
    assert "stepdrive: error:" in capsys.readouterr().err
    assert cli.main(["propagate", path]) == 1
    assert "--tgrid" in capsys.readouterr().err
    bad = write_config(tmp_path, "gamma = 1\n", name="bad.cfg")
    assert cli.main(["propagate", bad, "--tgrid", "0:1:2"]) == 1
    assert "unknown key" in capsys.readouterr().err
    assert cli.main(
        ["propagate", path, "--tgrid", "0:1:2", "--jump-lambda", "1.5"]
    ) == 1
    assert "must lie in [0, 1]" in capsys.readouterr().err


# Runs in a fresh interpreter: reports the scipy modules loaded after the
# import and after each request, with the exit codes.
_SCIPY_PROBE = """
import contextlib, io, json, sys
import stepdrive.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

path = sys.argv[1]
report = {"import": scipy_modules()}
with contextlib.redirect_stdout(io.StringIO()):
    for name, argv in (
        ("heff", ["heff", path]),
        ("propagate", ["propagate", path, "--tgrid", "0:1:3"]),
        ("beat", ["beat", path]),
        ("scan", ["scan", path, "--vary", "delta2=30:50:3", "--resolve-tau", "2"]),
    ):
        report[name] = [cli.main(argv), scipy_modules()]
print(json.dumps(report))
"""


def test_no_cli_request_loads_scipy(tmp_path):
    path = write_config(tmp_path, PAIR_CONFIG)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, path],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == {
        "import": [],
        "heff": [0, []],
        "propagate": [0, []],
        "beat": [0, []],
        "scan": [0, []],
    }
