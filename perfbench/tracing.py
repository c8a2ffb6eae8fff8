"""Span tracing of pipecorr's public functions, installed from outside.

``Tracer.install`` wraps every function listed in a pipecorr module's
``__all__`` and rebinds the wrapper in every pipecorr namespace that
holds the function (``forecast.fit_mle`` as well as
``inference.fit_mle``), so calls between layers are caught too. It also
wraps ``RecordSequence`` construction, which is where record validation
happens, and ``numpy.random.default_rng``, the RNG stream set-up of the
simulation layer. Spans (name, start, end, parent id) stay in memory
until ``dump`` writes them out; ``summarize`` turns them into per-name
call counts, total time and self time.
"""

import functools
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = []
        self._name_ids = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.counters = Counter()
        self._stack = []
        self._patches = []
        self._last_order = 0

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, after=None):
        """fn, recording one span per call while the tracer is enabled.

        ``after(args, kwargs, result)`` runs on every successful call and
        updates counters.
        """
        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(float("nan"))
            stack.append(sid)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap pipecorr's public functions; undo with ``uninstall``."""
        from pipecorr.inference import RecordSequence

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "pipecorr" or name.startswith("pipecorr.")]
        hooks = {
            "numerics.fixed_order_expectation": self._note_order,
            "numerics.expectation_semi_infinite": self._count_quadrature,
        }
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = "%s.%s" % (layer, attr)
                    wrappers[fn] = self.wrap(fn, name, hooks.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        self._patch(RecordSequence, "__init__",
                    self.wrap(RecordSequence.__init__, "inference.RecordSequence",
                              self._count_records))
        self._patch(np.random, "default_rng",
                    self.wrap(np.random.default_rng, "simulation.rng_setup"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # Counters taken at the layer boundaries.

    def _count_records(self, args, kwargs, result):
        self.counters["inference.records_validated"] += len(args[0].positions)

    def _note_order(self, args, kwargs, result):
        self._last_order = kwargs["order"] if "order" in kwargs else args[2]

    def _count_quadrature(self, args, kwargs, result):
        # The last rule tried is the one whose estimate is returned.
        self.counters["numerics.quad_evaluations"] += result.evaluations
        self.counters["numerics.quad_final_order"] += self._last_order

    def dump(self, path):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.span_name, dtype=np.int64),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            parent=np.array(self.span_parent, dtype=np.int64),
            counters=np.array(json.dumps(dict(self.counters))),
        )

    def summary(self):
        return summarize(self.names, self.span_name, self.span_start, self.span_end,
                         self.span_parent), Counter(self.counters)


def load_summary(path):
    """(per-name summary, counters) from a file written by ``Tracer.dump``."""
    with np.load(path) as z:
        spans = summarize(z["names"].tolist(), z["name"].tolist(), z["start"].tolist(),
                          z["end"].tolist(), z["parent"].tolist())
        return spans, Counter(json.loads(str(z["counters"])))


def self_times(start, end, parent):
    """Each span's duration minus the part of it that its child spans cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(start[k], lo_p), min(end[k], hi_p)) for k in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def summarize(names, name, start, end, parent):
    """{span name: {"calls", "total_s", "self_s"}} over all spans."""
    own = self_times(start, end, parent)
    out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    for nid, s, e, own_s in zip(name, start, end, own):
        entry = out[names[nid]]
        entry["calls"] += 1
        entry["total_s"] += e - s
        entry["self_s"] += own_s
    return out


def merge(summaries):
    """Sum several ``summarize`` results name by name."""
    out = {}
    for summary in summaries:
        for n, entry in summary.items():
            acc = out.setdefault(n, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
    return out
