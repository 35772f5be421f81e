"""Spans around the public functions of each stepdrive module.

The benchmark traces the program from outside: after `stepdrive` is
imported, every public function listed in TARGETS is replaced by a
wrapper in *every* stepdrive module namespace that holds it, so calls made
through a name imported with `from .propagator import period_propagator`
are traced as well.  Nothing under `src/` changes.

A span is (name, start, end, parent, request, amount); spans live in flat
lists in memory and are written out once, when the traced process ends.
The amount is the work a call was given: time points for evolve_many,
window periods for fourier_numeric, 0 elsewhere.
"""

import functools
import marshal
import sys
import time

# (module, function, per-call amount counter or None)
TARGETS = (
    ("cli", "read_config", None),
    ("core", "validate", None),
    ("propagator", "period_propagator", None),
    ("propagator", "intra_period", None),
    ("propagator", "evolve_many", "points"),
    ("effective", "effective_hamiltonian", None),
    ("spectrum", "fourier_numeric", "periods"),
    ("spectrum", "fourier_closed_form_two_step", None),
    ("spectrum", "model_error", None),
    ("spectrum", "write_csv", None),
    ("phenomena", "design_manipulation", None),
    ("phenomena", "classify", None),
    ("phenomena", "beat_prediction", None),
)


def _amount(kind, args, kwargs):
    if kind == "points":
        times = args[1] if len(args) > 1 else kwargs["times"]
        size = getattr(times, "size", None)
        return int(size if size is not None else len(times))
    # fourier_numeric(sequence, l_range=(-4, 4), K=256, ...)
    if len(args) > 2:
        return int(args[2])
    return int(kwargs.get("K", 256))


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.requests = []
        self.amounts = []
        self.stack = []
        self.request = 0

    def open(self, name, amount=0):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.amounts.append(amount)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, amount=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name, 0 if amount is None else _amount(amount, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def install(self):
        """Rebind each target of a loaded module wherever it is bound; returns the count."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "stepdrive" or k.startswith("stepdrive."))]
        rebound = 0
        for module_name, func_name, amount in TARGETS:
            owner = sys.modules.get("stepdrive." + module_name)
            if owner is None:
                continue
            original = getattr(owner, func_name)
            wrapper = self.wrap("%s.%s" % (module_name, func_name), original, amount)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound += 1
        return rebound

    def dump(self, path, extra=None):
        with open(path, "wb") as handle:
            marshal.dump(
                {
                    "names": self.names,
                    "starts": self.starts,
                    "ends": self.ends,
                    "parents": self.parents,
                    "requests": self.requests,
                    "amounts": self.amounts,
                    "extra": extra or {},
                },
                handle,
            )


def load(path):
    with open(path, "rb") as handle:
        return marshal.load(handle)


def self_times(starts, ends, parents):
    """Self time of each span: its duration minus the part its children cover.

    Children are merged as intervals and clipped to the parent, so
    overlapping or overhanging children are never counted twice.
    """
    children = {}
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(sid)
    out = []
    for sid in range(len(starts)):
        lo, hi = starts[sid], ends[sid]
        covered = 0.0
        cursor = lo
        for child in sorted(children.get(sid, ()), key=lambda c: starts[c]):
            a = max(starts[child], cursor)
            b = min(ends[child], hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out


def has_ancestor(sid, parents, names, wanted):
    parent = parents[sid]
    while parent >= 0:
        if names[parent] == wanted:
            return True
        parent = parents[parent]
    return False


def summarize(trace, skip=()):
    """Per span name: calls, total seconds, self seconds; plus amounts.

    Spans of the requests in `skip` are left out.  Also counts
    `phenomena.design_manipulation.residual_evals`, the period_propagator
    spans with a design_manipulation ancestor.
    """
    names, parents = trace["names"], trace["parents"]
    selfs = self_times(trace["starts"], trace["ends"], parents)
    kept = [trace["requests"][sid] not in skip for sid in range(len(names))]
    out = {}
    for sid, name in enumerate(names):
        if not kept[sid]:
            continue
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += trace["ends"][sid] - trace["starts"][sid]
        entry["self_s"] += selfs[sid]
    kinds = {"%s.%s" % (m, f): kind for m, f, kind in TARGETS if kind is not None}
    amounts = {"%s.%s" % (name, kind): 0 for name, kind in kinds.items()}
    amounts["phenomena.design_manipulation.residual_evals"] = 0
    for sid, name in enumerate(names):
        if not kept[sid]:
            continue
        if name in kinds:
            amounts["%s.%s" % (name, kinds[name])] += trace["amounts"][sid]
        if name == "propagator.period_propagator" and has_ancestor(
                sid, parents, names, "phenomena.design_manipulation"):
            amounts["phenomena.design_manipulation.residual_evals"] += 1
    return out, amounts
