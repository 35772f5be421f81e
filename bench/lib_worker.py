"""Long-lived library client of the library_analysis workload.

Usage: python bench/lib_worker.py [SPANS_OUT]

Reads one JSON request per line on stdin, analyses that sequence with the
stepdrive library and answers with one JSON line on stdout.  The first
reply line, sent before any request, reports the import.  With SPANS_OUT
the module spans are recorded (see tracing.py) and written there when
stdin closes.
"""

import json
import math
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

# fourier_numeric samples each step on 64 Simpson panels unless asked for
# more, and a step whose dynamical phase E*tau reaches about 100 then
# gets line amplitudes wrong by up to 0.3.  A library user who wants the
# lines right asks for about one panel per radian of the largest E*tau,
# here up to SPECTRUM_SAMPLES samples over the K periods.
SPECTRUM_SAMPLES = 400_000


def spectrum_panels(seq, K):
    phase = max(step.energy * step.tau for step in seq.steps)
    return max(64, min(math.ceil(phase), SPECTRUM_SAMPLES // (K * len(seq.steps))))


def _cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def analyse(sd, np, req):
    seq = sd.PulseSequence.from_arrays(req["delta"], req["epsilon"], req["theta"], req["tau"])
    period = seq.period
    heff = sd.effective_hamiltonian(seq)
    micro = sd.micromotion(seq, req["tprime_frac"] * period)
    report = sd.classify(seq)
    if len(seq.steps) == 2:
        model = sd.fourier_closed_form_two_step(seq, (-4, 4))
    else:
        model = sd.fourier_numeric(seq, (-4, 4), K=256,
                                   samples_per_step=spectrum_panels(seq, 256))
    eps_m = sd.model_error(seq, sd.dominant_model(model)).value
    times = np.linspace(0.0, req["horizon_periods"] * period, req["points"])
    a, b, c, d = sd.evolve_many(seq, times)
    rows = [
        [float(times[i]), float(c[i] * c[i] + d[i] * d[i]),
         float(a[i]), float(b[i]), float(c[i]), float(d[i])]
        for i in req["rows"]
    ]
    out = {
        "heff": [heff.delta_eff, heff.epsilon_eff, heff.theta_eff, heff.period],
        "micromotion": list(micro),
        "classify": {f.name: f.residual for f in report},
        "classify_lines": report.lines(),
        "offset": model.offset,
        "lines": [[comp.frequency, comp.amplitude] for comp in model.components],
        "eps_m": eps_m,
        "rows": rows,
    }
    if req["beat"]:
        out["beat"] = list(sd.beat_prediction(seq))
    return out


def main():
    traced = len(sys.argv) > 1
    tracer = tracing.Tracer() if traced else None
    if traced:
        tracer.request = -1
    before = len(sys.modules)
    start = time.perf_counter()
    sid = tracer.open("import") if traced else None
    import numpy as np

    import stepdrive as sd

    if traced:
        tracer.close(sid)
        tracer.install()
    hello = {"import_s": time.perf_counter() - start, "modules": len(sys.modules) - before}
    sys.stdout.write(json.dumps(hello) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        req = json.loads(line)
        cpu0 = _cpu()
        if traced:
            tracer.request = req["id"]
        reply = {"id": req["id"], "result": analyse(sd, np, req)}
        reply["cpu_s"] = _cpu() - cpu0
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if traced:
        tracer.dump(sys.argv[1], {"import.modules": hello["modules"]})


if __name__ == "__main__":
    main()
