"""Tests of the benchmark itself: inputs, failure accounting, span arithmetic.

Run from the repository root with `python -m pytest bench -q`.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lib_worker  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _pool(name, seed, workdir):
    rng = np.random.default_rng([seed, sorted(workloads.WORKLOADS).index(name)])
    return workloads.WORKLOADS[name].build(rng, str(workdir))[1]


def _snapshot(pool, workdir):
    out = []
    for req in pool:
        argv = [a.replace(str(workdir), "<dir>") for a in req.argv or ()]
        files = {}
        for arg in req.argv or ():
            if arg.startswith(str(workdir)):
                with open(arg, encoding="utf-8") as handle:
                    files[os.path.basename(arg)] = handle.read()
        out.append((req.key, req.kind, json.dumps(req.spec), argv, files,
                    json.dumps(req.extra, sort_keys=True)))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    first = _snapshot(_pool(name, 5, a), a)
    again = _snapshot(_pool(name, 5, b), b)
    other = _snapshot(_pool(name, 6, c), c)
    assert first == again
    assert first != other


def test_library_pool_keeps_one_sequence_per_phase_stratum():
    rng = np.random.default_rng(1)
    candidates = workloads.log_uniform_specs(rng, 3, 64)
    kept = workloads.phase_stratified(rng, candidates, 16)
    ranks = sorted(sorted(candidates, key=workloads.largest_phase).index(spec) // 4
                   for spec in kept)
    assert ranks == list(range(16))


def test_library_spectrum_grid_resolves_the_largest_phase():
    from stepdrive import PulseSequence

    # E*tau = 92.5 in the second step: 64 panels per step miss the lines
    seq = PulseSequence.from_arrays([0.0, 0.0], [1.0, 37.0], [0.0, 0.0], [1.0, 2.5])
    assert lib_worker.spectrum_panels(seq, 256) == 93
    slow = PulseSequence.from_arrays([0.0], [1.0], [0.0], [1.0])
    assert lib_worker.spectrum_panels(slow, 256) == 64
    fast = PulseSequence.from_arrays([0.0] * 8, [100.0] * 8, [0.0] * 8, [100.0] * 8)
    panels = lib_worker.spectrum_panels(fast, 256)
    assert panels * 256 * 8 <= lib_worker.SPECTRUM_SAMPLES < (panels + 1) * 256 * 8


def _first(pool, kind):
    return next(req for req in pool if req.kind == kind)


@pytest.fixture(scope="module")
def short_outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("short")
    pool = _pool("cli_short", 3, workdir)
    reqs = [_first(pool, "propagate"), _first(pool, "heff")]
    return [(req, workloads.run_cli(ROOT, req.argv)) for req in reqs]


def _corrupt(outcome, stdout):
    return workloads.Outcome(outcome.latency, outcome.cpu, outcome.rss_kb, outcome.code,
                             stdout)


def _flip_digit(text, start):
    """Change the first digit 1-8 at or after `start` to the next digit."""
    for i in range(start, len(text)):
        if text[i] in "12345678":
            return text[:i] + str(int(text[i]) + 1) + text[i + 1:]
    raise AssertionError("no digit to flip")


def _failed(records):
    failed, reasons, _ = run.check_records(workloads.WORKLOADS["cli_short"], records, 0)
    return failed, reasons


def test_correct_outputs_pass(short_outputs):
    failed, reasons = _failed(short_outputs)
    assert failed == [False, False], reasons


def test_flipped_digit_in_a_sampled_propagate_row_fails(short_outputs):
    req, out = short_outputs[0]
    lines = out.stdout.decode().split("\n")
    row = workloads.sample_indices(req.key, 3, len(lines) - 2)[1]
    fields = lines[row + 1].split(",")
    fields[2] = _flip_digit(fields[2], 3)
    lines[row + 1] = ",".join(fields)
    bad = _corrupt(out, "\n".join(lines).encode())
    failed, reasons = _failed([(req, bad)])
    assert failed == [True]
    assert "row" in reasons[0]


def test_sampled_row_that_keeps_the_invariants_fails_the_oracle(short_outputs):
    # swapping C and D keeps unit norm and P12 = C^2 + D^2; only the
    # brute-force oracle can tell
    req, out = short_outputs[0]
    lines = out.stdout.decode().split("\n")
    row = workloads.sample_indices(req.key, 3, len(lines) - 2)[1]
    fields = lines[row + 1].split(",")
    fields[4], fields[5] = fields[5], fields[4]
    lines[row + 1] = ",".join(fields)
    failed, reasons = _failed([(req, _corrupt(out, "\n".join(lines).encode()))])
    assert failed == [True]
    assert "deviates from the oracle" in reasons[0]


def test_flipped_digit_in_any_propagate_row_fails(short_outputs):
    req, out = short_outputs[0]
    lines = out.stdout.decode().split("\n")
    picks = set(workloads.sample_indices(req.key, 3, len(lines) - 2))
    row = next(i for i in range(1, len(lines) - 2) if i not in picks)
    fields = lines[row + 1].split(",")
    fields[5] = _flip_digit(fields[5], 4)
    lines[row + 1] = ",".join(fields)
    failed, _ = _failed([(req, _corrupt(out, "\n".join(lines).encode()))])
    assert failed == [True]


def test_wrong_heff_line_fails(short_outputs):
    req, out = short_outputs[1]
    text = out.stdout.decode()
    start = text.index("epsilon_eff = ") + len("epsilon_eff = ")
    bad = _corrupt(out, _flip_digit(text, start + 2).encode())
    failed, reasons = _failed([(req, bad)])
    assert failed == [True]
    assert "H_eff" in reasons[0]


def test_repeat_with_different_stdout_fails(short_outputs):
    req, out = short_outputs[1]
    changed = _corrupt(out, out.stdout + b"\n")
    failed, reasons = _failed([(req, out), (req, changed)])
    assert failed == [False, True]
    assert "differs between repeats" in reasons[0]


def test_unexpected_exit_code_fails(short_outputs):
    req, out = short_outputs[1]
    crashed = workloads.Outcome(out.latency, out.cpu, out.rss_kb, 2, b"")
    failed, _ = _failed([(req, crashed)])
    assert failed == [True]


def test_self_time_subtracts_merged_children():
    # root [0, 10]: children overlap ([1, 3] and [2, 4]) and overhang ([8, 12])
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 4.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs == pytest.approx([10.0 - 3.0 - 2.0, 2.0 - 0.5, 2.0, 4.0, 0.5])


def test_summary_counts_residual_evals_under_design_only():
    trace = {
        "names": ["phenomena.design_manipulation", "propagator.period_propagator",
                  "propagator.intra_period", "propagator.period_propagator"],
        "starts": [0.0, 1.0, 1.2, 5.0],
        "ends": [4.0, 2.0, 1.8, 6.0],
        "parents": [-1, 0, 1, -1],
        "requests": [0, 0, 0, 0],
        "amounts": [0, 0, 0, 0],
        "extra": {},
    }
    summary, amounts = tracing.summarize(trace)
    assert amounts["phenomena.design_manipulation.residual_evals"] == 1
    assert summary["propagator.period_propagator"]["calls"] == 2
    assert summary["propagator.period_propagator"]["self_s"] == pytest.approx(0.4 + 1.0)
    assert summary["phenomena.design_manipulation"]["self_s"] == pytest.approx(3.0)
    skipped, amounts = tracing.summarize(dict(trace, requests=[1, 1, 1, 2]), skip={1})
    assert set(skipped) == {"propagator.period_propagator"}
    assert amounts["phenomena.design_manipulation.residual_evals"] == 0


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert sorted((m["name"], m["unit"]) for m in spec["end_to_end"]) == sorted(run.END_TO_END)
    assert sorted((m["name"], m["unit"]) for m in spec["per_layer"]) == sorted(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_tail_is_the_order_statistic_with_ten_beyond():
    assert run.tail_latency(list(range(1, 101))) == (90, "p90")
    assert run.tail_latency(list(range(1, 22))) == (11, "p52.38")
    # below 20 samples the median, so the value does not jump as n crosses 20
    assert run.tail_latency(list(range(1, 21)))[0] == 10
    value, label = run.tail_latency(list(range(1, 20)))
    assert value == 10 and "median" in label
    assert run.tail_latency([3.0, 1.0, 2.0, 4.0])[0] == 2.0


def test_shim_rebinds_names_imported_into_other_modules(tmp_path):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("delta = 0, 40\nepsilon = 1, 1\ntheta = 0, 0\ntau = 1.5, 0.08\n")
    spans = tmp_path / "spans.bin"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    shim = os.path.join(ROOT, "bench", "trace_shim.py")
    done = subprocess.run([sys.executable, shim, str(spans), "heff", str(cfg)],
                          capture_output=True, env=env, timeout=120)
    plain = subprocess.run([sys.executable, "-m", "stepdrive.cli", "heff", str(cfg)],
                           capture_output=True, env=env, timeout=120)
    assert done.returncode == plain.returncode == 0
    assert done.stdout == plain.stdout
    trace = tracing.load(str(spans))
    names = trace["names"]
    # effective.py calls period_propagator through its own imported name
    heff = names.index("effective.effective_hamiltonian")
    child = names.index("propagator.period_propagator")
    assert trace["parents"][child] == heff
    assert names[trace["parents"][heff]] == "cli.cmd"
    assert "cli.read_config" in names and "core.validate" in names
    assert trace["extra"]["import.modules"] > 0
