"""Config parsing, CLI subcommands, output formats, and exit codes."""

import concurrent.futures
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

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
    transition_probabilities,
)

from helpers import large_phase_drive, oracle_projection

# resonant step then a strongly detuned one, quarter-cycle areas
PAIR_CONFIG = """\
delta = 0, 40
epsilon = 1, 1
theta = 0, 0
tau = 1.5707963267948966, 0.078441825264356502
"""

# the same pair with the second step detuned by 15 couplings, just past the
# strongly detuned bound of 10: a `beat --resonant-tol` above 10 would count
# it as resonant
NEAR_DETUNED_CONFIG = """\
delta = 0, 15
epsilon = 1, 1
theta = 0, 0
tau = 1.5707963267948966, 0.20760228605451986
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
    assert len(seq.steps) == 2
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


def test_read_config_accepts_a_byte_order_mark(tmp_path):
    plain = write_config(tmp_path, PAIR_CONFIG, name="plain.cfg")
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + PAIR_CONFIG.encode())
    assert cli.read_config(str(marked)) == cli.read_config(plain)


@pytest.mark.parametrize("epsilon, tau", [
    ("0.25, 0.25", "1e308, 1e308"),  # T = inf
    ("1, 1", "1e308, 1e308"),  # T = inf and 2*E*tau = inf in step 1
    ("1, 1", "1e-320, 1e-320"),  # 2*pi/T = inf
    ("1e300, 1", "1e10, 1"),  # E*tau = inf in step 1
    ("1e308, 1", "1e-300, 1"),  # E*tau = 1e8, but the window tone 2*E = inf
], ids=["infinite_period_finite_phases", "infinite_period", "subnormal_period",
        "infinite_phase", "infinite_window_tone"])
def test_a_non_finite_period_or_phase_exits_1_in_every_command(
    tmp_path, capsys, epsilon, tau
):
    path = write_config(
        tmp_path, "delta = 0, 0\nepsilon = %s\ntheta = 0, 0\ntau = %s\n" % (epsilon, tau)
    )
    for argv in (
        ["heff", path],
        ["propagate", path, "--tgrid", "0:3:4"],
        ["spectrum", path],
        ["classify", path],
        ["scan", path, "--vary", "delta1=0:1:2"],
        ["beat", path],
    ):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be finite" in err or "2*E*tau is not finite" in err


def test_a_step_lost_in_the_rounding_of_T_exits_1_in_every_command(tmp_path, capsys):
    # 9.25e99 + 3.67 == 9.25e99: step 2 would open and close at one float
    path = write_config(
        tmp_path, "delta = 0, 0\nepsilon = 1.7e-100, 0.428\ntheta = 0, 0\ntau = 9.25e99, 3.67\n"
    )
    for argv in (
        ["heff", path],
        ["propagate", path, "--tgrid", "0:3:4"],
        ["spectrum", path],
        ["classify", path],
        ["scan", path, "--vary", "delta1=0:1:2"],
        ["beat", path],
    ):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "step 2: duration 3.67 is lost in the rounding of T" in err


# a field magnitude drawn log-uniformly from 1e-300 to 1e300
_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_PHASE = st.floats(-math.pi, math.pi)


def _cycle_drive(scale, steps, half):
    # quarter-cycle steps, E*tau = pi/2, with couplings within 1e3 of
    # `scale`, each resonant or detuned by `ratio` couplings; an odd count
    # makes step `half` (modulo the count) a half cycle, E*tau = pi
    drive = []
    for i, (sign, ratio, exponent, theta) in enumerate(steps):
        epsilon = scale * 10.0 ** exponent
        delta = ratio * epsilon
        area = math.pi if len(steps) % 2 and i == half % len(steps) else 0.5 * math.pi
        drive.append((sign, delta, epsilon, theta, area / math.hypot(epsilon, 0.5 * delta)))
    return drive


# a drive is a list of steps (detuning sign, |delta|, epsilon, theta, tau):
# either every field free, or the resonant and strongly detuned cycles
# that `beat` models
_DRIVES = st.one_of(
    st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), _MAGNITUDE, _MAGNITUDE, _PHASE,
                       _MAGNITUDE), min_size=1, max_size=4),
    st.builds(_cycle_drive, _MAGNITUDE, st.lists(
        st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([0.0, 0.0, 15.0, 40.0]),
                  st.floats(-3.0, 3.0), _PHASE),
        min_size=1, max_size=4), st.integers(0, 3)),
)


def _drive_config(tmp_path, steps):
    fields = zip(*((sign * delta, eps, theta, tau) for sign, delta, eps, theta, tau in steps))
    text = "".join("%s = %s\n" % (name, ", ".join(map(repr, values)))
                   for name, values in zip(("delta", "epsilon", "theta", "tau"), fields))
    return write_config(tmp_path, text)


def _run_recording_warnings(argv):
    """The exit code of one command and the RuntimeWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, [w for w in caught if issubclass(w.category, RuntimeWarning)]


@seed(27)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=_DRIVES)
# a harmonic of amplitude 10.43 once came out of this long period
@example(steps=[(1.0, 0.3, 1.0, 0.0, 1e-3), (1.0, 1.0, 0.7, 1.0, 1e12)])
# and nan lines out of this one, with exit 0
@example(steps=[(-1.0, 2.0396662794689573e-143, 2.023326997497583e-293,
                 -3.731224297944859, 7.990223103477118e239)])
def test_spectrum_and_classify_keep_the_edge_input_contract(tmp_path, capsys, steps):
    """Any finite input gives a clear exit code (1 for input errors, 2 for
    numerical-domain failures) or an answer: no nan or inf on stdout but
    classify's residual=inf of an absent return, no line of a probability
    above amplitude 1, and no RuntimeWarning on the way."""
    path = _drive_config(tmp_path, steps)
    for argv in (["classify", path], ["spectrum", path], ["spectrum", path, "--periods", "4096"]):
        code, caught = _run_recording_warnings(argv)
        out = capsys.readouterr().out
        assert not caught, argv
        assert code in (0, 1, 2), argv
        if code != 0:
            continue
        assert "nan" not in out and "inf" not in out.replace("residual=inf", ""), argv
        if argv[0] == "spectrum":
            rows = [line.split(",") for line in out.splitlines()
                    if line[:1] not in ("#", "l")]
            assert rows and all(float(row[2]) <= 1.0 for row in rows), argv


# nan or inf as a whole token: "n_resonant" holds "nan" but is no value
_NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)


@seed(28)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=_DRIVES)
def test_heff_propagate_beat_and_scan_keep_the_edge_input_contract(tmp_path, capsys, steps):
    """The contract of the spectrum test above for the other commands: exit
    0, 1 or 2, no RuntimeWarning, and on exit 0 no nan or inf on stdout but
    the scan cells that stderr gives a reason for."""
    path = _drive_config(tmp_path, steps)
    period = sum(step[-1] for step in steps)
    for argv in (
        ["heff", path],
        ["heff", path, "--jump-lambda", "0.3"],
        ["propagate", path, "--tgrid", "0:%r:101" % (20.0 * period)],
        ["beat", path],
        ["scan", path, "--vary", "epsilon1=%r:%r:2" % (steps[0][2], 2.0 * steps[0][2]),
         "--metric", "P12max"],
    ):
        code, caught = _run_recording_warnings(argv)
        out, err = capsys.readouterr()
        assert not caught, argv
        assert code in (0, 1, 2), argv
        if code != 0:
            continue
        if argv[0] == "scan":
            cells = [line.rsplit(",", 1) for line in out.splitlines()[1:]]
            explained = sum(int(line.split()[2]) for line in err.splitlines()
                            if " cells are nan: " in line)
            assert explained == sum(cell[1] == "nan" for cell in cells), argv
            out = "\n".join(cell[0] for cell in cells)
        assert not _NON_FINITE.search(out), argv


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
    # the long grid spans two full row blocks of the writer and part of a
    # third; a one-point grid is the single time min == max
    for lo, hi, num in ((0, 5, 7), (0, 5, 2 * cli._ROW_BLOCK + 3), (2, 2, 1)):
        times = np.linspace(lo, hi, num)
        assert cli.main(["propagate", path, "--tgrid", "%d:%d:%d" % (lo, hi, num)]) == 0
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
    assert cli.main(["propagate", path, "--tgrid", "0:1:x"]) == 1
    assert "must look like min:max:num" in capsys.readouterr().err
    assert cli.main(["propagate", path, "--tgrid", "0:1:1"]) == 1
    assert "one point needs min == max" in capsys.readouterr().err


def test_propagate_into_a_closed_pipe_exits_1_quietly(tmp_path):
    # the reader takes one line and closes its end, as `head -n 1` does
    path = write_config(tmp_path, PAIR_CONFIG)
    proc = subprocess.Popen(
        [sys.executable, "-m", "stepdrive.cli", "propagate", path, "--tgrid", "0:100:300000"],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"t,P12,A,B,C,D\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("grid", ["0:inf:3", "nan:1:2"])
def test_propagate_rejects_non_finite_time_grids(tmp_path, capsys, grid):
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(["propagate", path, "--tgrid", grid]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def test_propagate_rejects_times_beyond_a_finite_period_count(tmp_path, capsys):
    # T = 0.4: t / T overflows a float
    path = write_config(
        tmp_path, "delta = 0.5, 1\nepsilon = 1, 0.3\ntheta = 0, 1\ntau = 0.2, 0.2\n"
    )
    assert cli.main(["propagate", path, "--tgrid", "0:1.7e308:2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "period count times pi/2 is not finite" in err


def test_grids_above_the_point_limit_exit_1_before_allocating(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be allocated or evaluated")

    monkeypatch.setattr(np, "linspace", refuse)
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


def test_counts_above_the_point_limit_exit_1_before_evaluating(
    tmp_path, capsys, monkeypatch
):
    # a probe list or a period-multiple search of a mistyped size would run
    # out of memory or never end; both counts share the point limit
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be evaluated")

    for name in ("fourier_closed_form_two_step", "fourier_numeric", "classify"):
        monkeypatch.setattr(cli, name, refuse)
    path = write_config(tmp_path, PAIR_CONFIG)
    huge = 10**10
    assert cli.main(["spectrum", path, "--lmin=-%d" % huge, "--lmax", "0"]) == 1
    assert "--lmin/--lmax asks for %d points, more than the limit of %d" % (
        2 * (huge + 1), cli._MAX_POINTS) in capsys.readouterr().err
    assert cli.main(["spectrum", path, "--lmax", "%d" % huge]) == 1
    assert "--lmin/--lmax asks for %d points" % (2 * (huge + 5)) in capsys.readouterr().err
    assert cli.main(["classify", path, "--max-index", "%d" % huge]) == 1
    assert "--max-index asks for %d points, more than the limit of %d" % (
        huge, cli._MAX_POINTS) in capsys.readouterr().err


def test_propagate_prints_the_signed_zeros_of_a_resonant_drive(tmp_path, capsys):
    # resonant steps about x keep b = c = 0 exactly; the zero signs follow
    # the products that compose them and are part of the output bytes
    path = write_config(
        tmp_path, "delta = 0, 0\nepsilon = 1, 0.5\ntheta = 0, 0\ntau = 1.0, 2.5\n"
    )
    assert cli.main(["propagate", path, "--tgrid", "0:20:11"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [str(2 * i) for i in range(11)]
    for row in rows:
        sign = "-0" if row[0] in ("8", "10") else "0"
        assert row[3] == row[4] == sign


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
    # a step outside 1..N is an input error
    assert cli.main(["heff", path, "--jump-lambda", "0.33", "--jump-step", "0"]) == 1
    assert "step index 0 outside 1..2" in capsys.readouterr().err


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


def test_spectrum_with_a_probe_on_a_window_tone_is_quiet(tmp_path):
    # two identical resonant quarter-cycle steps: the sideband probe 2*E
    # meets the window tone of both steps, a regime the exact projection
    # covers like any other
    path = write_config(tmp_path, "delta = 0, 0\nepsilon = 1, 1\ntheta = 0, 0\n"
                                  "tau = 1.5707963267948966, 1.5707963267948966\n")
    proc = subprocess.run(
        [sys.executable, "-m", "stepdrive.cli", "spectrum", path],
        env=_child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("# full\n")


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


def test_classify_prints_the_return_index(tmp_path, capsys):
    # a null drive returns to the identity after one period
    path = write_config(tmp_path, "delta = 0\nepsilon = 0\ntheta = 0\ntau = 1\n")
    assert cli.main(["classify", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "cdt: yes residual=0",
        "complete_transition: yes residual=0",
        "periodic: yes residual=0 index=1",
        "stepwise: no residual=inf",
        "swapping: no residual=1",
        "beat: no residual=inf",
    ]


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
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


def test_scan_resolves_the_last_step_of_three(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "delta = 2.5, 20, 30\nepsilon = 1.1, 1, 0.9\ntheta = 0, 0.7, 0.4\n"
        "tau = 0.35, 0.0938, 0.05\n",
    )
    assert cli.main(
        ["scan", path, "--vary", "delta2=18:22:3", "--vary", "epsilon3=0.8:1:2",
         "--metric", "omega_eff", "--resolve-tau", "3"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta2,epsilon3,omega_eff"
    cells = [float(line.split(",")[2]) for line in lines[1:]]
    assert len(cells) == 6 and all(map(math.isfinite, cells))


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 8])
def test_scan_p12max_is_the_sampled_maximum_over_40_periods(tmp_path, capsys, n_steps):
    # P12'' <= 2 E_n**2 inside step n, and the 64 samples per step include
    # the step boundaries, so the sampled maximum misses the true one by at
    # most (E_n tau_n / 64)**2 / 4; a dense 8192-per-step grid misses it by
    # its own such bound, and 1e-12 covers the rounding of the two routes
    rng = np.random.default_rng(n_steps)
    fields = [rng.uniform(-40.0, 40.0, n_steps), rng.uniform(0.2, 2.0, n_steps),
              rng.uniform(-math.pi, math.pi, n_steps), rng.uniform(0.05, 1.5, n_steps)]
    text = "".join("%s = %s\n" % (key, ", ".join(map(repr, values.tolist())))
                   for key, values in zip(cli._CONFIG_KEYS, fields))
    path = write_config(tmp_path, text)
    assert cli.main(["scan", path, "--vary", "delta1=-40:40:5", "--metric", "P12max"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta1,P12max"
    assert len(lines) == 6
    for line in lines[1:]:
        delta1, p12max = (float(v) for v in line.split(","))
        fields[0][0] = delta1
        seq = PulseSequence.from_arrays(*fields)
        bounds = seq.boundaries
        within = np.concatenate([np.linspace(t0, t1, 8193) for t0, t1 in zip(bounds, bounds[1:])])
        dense = max(transition_probabilities(seq, within + k * seq.period).max()
                    for k in range(40))
        phases = [s.energy * s.tau for s in seq.steps]
        assert dense - p12max <= max(phases) ** 2 / 64**2 / 4 + 1e-12
        assert p12max - dense <= max(phases) ** 2 / 8192**2 / 4 + 1e-12
        if n_steps == 1:
            # (epsilon / E)**2 sin(E t)**2 peaks within 40 periods
            (step,) = seq.steps
            assert 40.0 * phases[0] >= 0.5 * math.pi
            peak = (step.epsilon / step.energy) ** 2
            assert -1e-12 <= peak - p12max <= phases[0] ** 2 / 64**2 / 4 + 1e-12


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


def test_scan_counts_nan_cells_by_reason_on_stderr(tmp_path, capsys):
    # the README's 2-D grid: the empirical model refuses every drive whose
    # first step is detuned, and stderr says why in one line per reason
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(
        ["scan", path, "--vary", "delta1=0:10:11", "--vary", "tau2=0.1:2:20"]
    ) == 0
    out, err = capsys.readouterr()
    metric = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
    assert len(metric) == 220 and sum(map(math.isnan, metric)) == 200
    assert err.splitlines() == [
        "stepdrive: scan: 200 of 220 cells are nan: effective detuning too large "
        "for the empirical model: |delta_eff|*T = N"
    ]
    # a grid with no nan cell prints nothing on stderr
    assert cli.main(["scan", path, "--vary", "delta2=30:50:5", "--metric", "omega_eff"]) == 0
    assert capsys.readouterr().err == ""


def test_scan_names_a_null_step_of_the_empirical_model(tmp_path, capsys):
    # a null first step leaves the model's default weight undefined
    path = write_config(
        tmp_path, "delta = 0, 0\nepsilon = 0, 1\ntheta = 0, 0\ntau = 1, 1.5707963267948966\n"
    )
    assert cli.main(["scan", path, "--vary", "epsilon2=1:2:3"]) == 0
    out, err = capsys.readouterr()
    assert out == "epsilon2,eps_m\n1,nan\n1.5,nan\n2,nan\n"
    assert err == "stepdrive: scan: 3 of 3 cells are nan: step N is null: p = (epsilon/E)**2 is undefined\n"


def test_scan_nan_summary_keeps_the_constants_of_a_message(tmp_path, capsys):
    # the numbers of a cell become N; the 2 of 2*E*tau and 2*pi/T stay
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(["scan", path, "--vary", "epsilon1=1e308:1e308:1"]) == 0
    assert capsys.readouterr().err == (
        "stepdrive: scan: 1 of 1 cells are nan: step N: 2*E*tau is not finite\n"
    )
    assert cli.main(["scan", path, "--vary", "tau1=1e-320:1e-320:1",
                     "--vary", "tau2=1e-320:1e-320:1"]) == 0
    assert capsys.readouterr().err == (
        "stepdrive: scan: 1 of 1 cells are nan: period T = N: T and 2*pi/T must be finite\n"
    )


def test_scan_rejects_bad_axes(tmp_path, capsys):
    path = write_config(tmp_path, PAIR_CONFIG)
    assert cli.main(["scan", path, "--vary", "delta2"]) == 1
    assert "must look like field=min:max:num" in capsys.readouterr().err
    assert cli.main(["scan", path, "--vary", "gamma2=0:1:3"]) == 1
    assert "field must be one of" in capsys.readouterr().err
    assert cli.main(["scan", path, "--vary", "delta=0:1:3"]) == 1
    assert "field must be one of" in capsys.readouterr().err
    assert cli.main(["scan", path, "--vary", "delta9=0:1:3"]) == 1
    assert "out of range" in capsys.readouterr().err
    # both bounds are finite, but the span of the axis overflows
    assert cli.main(["scan", path, "--vary", "delta2=-1e308:1e308:3"]) == 1
    captured = capsys.readouterr()
    assert "--vary bounds and their span must be finite" in captured.err
    assert captured.out == ""
    # huge but equal bounds are an axis of one point; its cell fails validation
    assert cli.main(["scan", path, "--vary", "epsilon1=1e308:1e308:1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "epsilon1,eps_m\n1e+308,nan\n"
    assert "E*tau is not finite" in captured.err
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
    captured = capsys.readouterr()
    assert "must name the last step, 2, got 1" in captured.err
    assert captured.out == ""
    single = write_config(
        tmp_path, "delta = 0\nepsilon = 1\ntheta = 0\ntau = 1\n", name="one.cfg"
    )
    assert cli.main(
        ["scan", single, "--vary", "delta1=0:1:2", "--resolve-tau", "2"]
    ) == 1
    captured = capsys.readouterr()
    assert "must name the last step, 1, got 2" in captured.err
    assert captured.out == ""
    # the re-solved duration would overwrite every value of its own axis
    assert cli.main(
        ["scan", path, "--vary", "tau2=0.01:0.5:4", "--resolve-tau", "2",
         "--metric", "omega_eff"]
    ) == 1
    captured = capsys.readouterr()
    assert "--vary tau2 has no effect" in captured.err
    assert captured.out == ""


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


def test_beat_without_a_beat_prints_40_periods(tmp_path, capsys):
    # two identical resonant quarter-cycle steps: the tone pair coincides
    path = write_config(tmp_path, "delta = 0, 0\nepsilon = 1, 1\ntheta = 0, 0\n"
                                  "tau = 1.5707963267948966, 1.5707963267948966\n")
    seq = cli.read_config(path)
    assert cli.main(["beat", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "# omega_b = 0"
    assert lines[5] == "t,envelope"
    rows = [line.split(",") for line in lines[6:]]
    assert len(rows) == 1001
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 40.0 * seq.period
    assert {row[1] for row in rows} == {"1"}


def test_beat_of_tones_one_ulp_apart_prints_a_flat_envelope(tmp_path, capsys):
    # U(T) = 1 up to rounding: the tones agree within their rounding, so
    # there is no beat and the envelope spans 40 periods, not 1.4e16 time units
    path = write_config(tmp_path, "delta = 0, 0\nepsilon = 4.68, 21.68\n"
                                  "theta = 3.141592653589793, 0\n"
                                  "tau = 0.3356402407681403, 0.07245370511046571\n")
    seq = cli.read_config(path)
    assert cli.main(["beat", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(" = ")[1] == lines[1].split(" = ")[1]
    assert lines[2] == "# omega_b = 0"
    rows = [line.split(",") for line in lines[6:]]
    assert len(rows) == 1001
    assert float(rows[-1][0]) == 40.0 * seq.period
    assert {row[1] for row in rows} == {"1"}


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
    detuned = write_config(tmp_path, NEAR_DETUNED_CONFIG, name="near.cfg")
    # an empty search, a tolerance nothing can meet or a negative term count
    # is an input error, reported before any output
    for argv, message in (
        (["classify", path, "--max-index", "0"], "max_index must be at least 1"),
        (["classify", path, "--max-index=-5"], "max_index must be at least 1"),
        (["classify", path, "--tol", "nan"], "tol must be finite and positive"),
        (["classify", path, "--tol=-1"], "tol must be finite and positive"),
        (["classify", path, "--tol", "inf"], "tol must be finite and positive"),
        (["spectrum", path, "--max-terms=-2"], "--max-terms must be non-negative"),
        # beyond a million periods the rounding of the probe phases is noise
        (["spectrum", path, "--periods", "1000001"], "at most 1000000 periods"),
        (["spectrum", path, "--periods", "0"], "at least one period"),
        (["beat", detuned, "--resonant-tol", "20"], "resonant_tol must lie in (0, 10]"),
        (["beat", detuned, "--resonant-tol", "nan"], "resonant_tol must lie in (0, 10]"),
        (["beat", detuned, "--resonant-tol=-1"], "resonant_tol must lie in (0, 10]"),
        (["beat", detuned, "--resonant-tol", "0"], "resonant_tol must lie in (0, 10]"),
        # --jump-step alone names a jump that is never applied
        (["heff", path, "--jump-step", "5"], "--jump-step needs --jump-lambda"),
        (["heff", path, "--jump-step", "1"], "--jump-step needs --jump-lambda"),
        (["propagate", path, "--tgrid", "0:1:2", "--jump-step", "2"],
         "--jump-step needs --jump-lambda"),
    ):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err


# the variables OpenBLAS reads for its thread count, in its order
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child_env(**preset):
    """This environment without the BLAS thread variables, plus `preset`."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(preset, PYTHONPATH=str(src))
    return env


# Runs in a fresh interpreter: reports OPENBLAS_NUM_THREADS, then after the
# import and after each request the scipy and concurrent modules loaded,
# whether numpy is loaded, and the exit code.  The requests that need no
# array come first, so numpy loads only with `propagate`, after which the
# thread count shows the size of the BLAS pool.
_START_UP_PROBE = """
import contextlib, io, json, os, sys
import stepdrive.cli as cli

def threads():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None

def loaded():
    report = {
        package: sorted(m for m in sys.modules if m.split(".")[0] == package)
        for package in ("scipy", "concurrent")
    }
    report["numpy"] = "numpy" in sys.modules
    return report

def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # --help
        return exc.code

path, malformed = sys.argv[1:]
report = {
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "exit": {},
    "import": loaded(),
}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for name, argv in (
        ("heff", ["heff", path]),
        ("heff_jump", ["heff", path, "--jump-lambda", "0.3"]),
        ("malformed_config", ["heff", malformed]),
        ("malformed_propagate", ["propagate", malformed, "--tgrid", "0:1:3"]),
        ("bad_flag", ["heff", path, "--bogus"]),
        ("help", ["--help"]),
        ("propagate", ["propagate", path, "--tgrid", "0:1:3"]),
        ("beat", ["beat", path]),
        ("scan", ["scan", path, "--vary", "delta2=30:50:3", "--resolve-tau", "2",
                  "--jobs", "1"]),
    ):
        report["exit"][name] = run(argv)
        report[name] = loaded()
        if name == "propagate":
            report["threads"] = threads()
print(json.dumps(report))
"""

# requests whose whole path runs on Python floats
_SCALAR_REQUESTS = (
    "heff", "heff_jump", "malformed_config", "malformed_propagate", "bad_flag", "help",
)
_REQUESTS = _SCALAR_REQUESTS + ("propagate", "beat", "scan")
_EXITS = dict.fromkeys(_REQUESTS, 0) | dict.fromkeys(
    ("malformed_config", "malformed_propagate", "bad_flag"), 1
)


@pytest.fixture(scope="module")
def start_up_report(tmp_path_factory):
    folder = tmp_path_factory.mktemp("probe")
    path = write_config(folder, PAIR_CONFIG)
    malformed = write_config(
        folder, PAIR_CONFIG.replace("0, 40", "0, forty"), name="bad.cfg"
    )
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP_PROBE, path, malformed],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["exit"] == _EXITS
    return report


def test_no_cli_request_loads_scipy(start_up_report):
    for stage in ("import",) + _REQUESTS:
        assert start_up_report[stage]["scipy"] == [], stage


def test_import_and_scalar_requests_do_not_load_numpy(start_up_report):
    for stage in ("import",) + _SCALAR_REQUESTS:
        assert start_up_report[stage]["numpy"] is False, stage
    # the probe sees numpy once a request builds an array
    assert start_up_report["propagate"]["numpy"] is True


# Runs in a fresh interpreter: the micromotion generator and the
# intra-period propagator of the README pair inside the period, on a step
# boundary included; prints whether numpy is loaded after them.
_INTRA_PERIOD_PROBE = """
import sys
from stepdrive import PulseSequence, intra_period, micromotion
seq = PulseSequence.from_arrays(
    [0.0, 40.0], [1.0, 1.0], [0.0, 0.0], [1.5707963267948966, 0.078441825264356502]
)
micromotion(seq, 0.37 * seq.period)
for tprime in (0.0, 0.37 * seq.period, seq.steps[0].tau, 0.999 * seq.period):
    intra_period(seq, tprime)
print("numpy" in sys.modules)
"""


def test_micromotion_and_intra_period_do_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _INTRA_PERIOD_PROBE],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"


def test_cli_start_up_asks_for_one_blas_thread_and_no_process_pool(start_up_report):
    assert start_up_report["blas"] == "1"
    if sys.platform.startswith("linux"):
        # measured after `propagate`, the first request that loads numpy
        assert start_up_report["threads"] == 1
    # only `scan --jobs` above 1 loads concurrent.futures
    for stage in ("import",) + _REQUESTS:
        assert start_up_report[stage]["concurrent"] == [], stage


# Runs in a fresh interpreter, with SciPy blocked when asked: designs a
# complete transition by each free field of the last step of a 1-, 2- and
# 3-step drive, then runs every subcommand on the README pair, and prints
# each result, error message, exit code and output; last, the oracle's
# eigh propagator of the first drive.
_NO_SCIPY_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
import stepdrive.cli as cli
from stepdrive import PulseSequence, design_manipulation
from stepdrive.oracle import brute_force_evolve

drives, commands = json.loads(sys.argv[2])
for arrays in drives:
    seq = PulseSequence.from_arrays(*arrays)
    for field in ("detuning", "coupling", "phase", "durations"):
        try:
            print(len(arrays[0]), field, design_manipulation(seq, "complete_transition", field))
        except ValueError as exc:
            print(len(arrays[0]), field, "ValueError:", exc)
for argv in commands:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    print(" ".join(argv[:1] + argv[2:]), "exit", code)
    print(out.getvalue())
print("oracle", brute_force_evolve(PulseSequence.from_arrays(*drives[0]), 3.0).tolist())
"""

# resonant first steps, so that the phase of the last step can zero b(T)
_DESIGN_DRIVES = [
    ([2.5], [1.1], [0.0], [0.35]),
    ([0.3, 2.0], [1.1, 0.9], [0.0, 0.4], [1.0, 0.8]),
    ([0.3, 1.0, 2.0], [1.1, 1.0, 0.9], [0.0, 0.7, 0.4], [1.0, 0.5, 0.6]),
]


def test_runtime_needs_no_scipy(tmp_path):
    path = write_config(tmp_path, PAIR_CONFIG)
    commands = [
        ["propagate", path, "--tgrid", "0:50:2001"],
        ["heff", path, "--branch", "principal"],
        ["heff", path, "--jump-lambda", "0.33"],
        ["spectrum", path, "--lmin", "-4", "--lmax", "4"],
        ["classify", path, "--tol", "1e-3"],
        ["scan", path, "--vary", "delta2=0:100:41", "--metric", "eps_m"],
        ["scan", path, "--vary", "delta1=0:10:11", "--vary", "tau2=0.1:2:20"],
        ["scan", path, "--vary", "delta2=30:50:5", "--resolve-tau", "2"],
        ["scan", path, "--vary", "delta2=30:50:5", "--metric", "P12max"],
        ["beat", path],
    ]
    request = json.dumps([_DESIGN_DRIVES, commands])
    outputs = {
        mode: subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_PROBE, mode, request],
            env=_child_env(), capture_output=True, text=True, check=True,
        ).stdout
        for mode in ("block", "allow")
    }
    assert outputs["block"] == outputs["allow"]
    lines = outputs["block"].splitlines()
    designs = lines[:4 * len(_DESIGN_DRIVES)]
    # one step alone cannot zero b(T) by its phase; every other design succeeds
    assert [line for line in designs if "Error" in line] == [
        "1 phase ValueError: no sign change of the target residual in the search bracket"
    ]
    exits = [line for line in lines if " exit " in line]
    assert [line.rsplit(" ", 1)[1] for line in exits] == ["0"] * len(commands)


# Runs in a fresh interpreter: imports numpy first when asked, then
# stepdrive, and reports the BLAS thread variables.
_BLAS_ENV_PROBE = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import stepdrive
print(json.dumps({name: os.environ.get(name) for name in sys.argv[2:]}))
"""


@pytest.mark.parametrize(
    "preset, order, expected",
    [
        ({"OMP_NUM_THREADS": "2"}, "stepdrive-first", {"OMP_NUM_THREADS": "2"}),
        ({"OPENBLAS_NUM_THREADS": "2"}, "stepdrive-first", {"OPENBLAS_NUM_THREADS": "2"}),
        ({"GOTO_NUM_THREADS": "2"}, "stepdrive-first", {"GOTO_NUM_THREADS": "2"}),
        # an empty value asks for nothing
        ({"OMP_NUM_THREADS": ""}, "stepdrive-first",
         {"OMP_NUM_THREADS": "", "OPENBLAS_NUM_THREADS": "1"}),
        # numpy's thread pool already exists; the environment is left alone
        ({}, "numpy-first", {}),
    ],
)
def test_blas_thread_default_keeps_a_callers_choice(preset, order, expected):
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_ENV_PROBE, order, *_BLAS_VARS],
        env=_child_env(**preset), capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == {name: expected.get(name) for name in _BLAS_VARS}
