"""Spans around the benchmark's calls into the fockboundary layers.

Every layer call an instance makes goes through ``call`` of a
``Tracer`` (traced run) or of ``NoTrace`` (timed run).  A span holds the
operation name ``<layer>.<op>``, start and end, the instance span it
belongs to and the instance id.  The benchmark makes these calls one after
another, never nested, so a span's duration is also its self time.

Work counts are read from the returned objects after the instance's clock
has stopped: reading them adds to the traced wall time, not to the
instance time.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from fockboundary.scalars import GaussianRational

# op name -> (count name, function of the result); summed over the op's calls
WORK_COUNTS = {
    "fock.compose": ("entries_out", lambda r: len(r.entries)),
    "choi_effros.product_iterative": ("markov_steps", lambda r: r[1] + 1),
    "choi_effros.closed_form_mixed": ("entries_out", lambda r: len(r.entries)),
    "algebra.product": ("terms_out", lambda r: len(r.terms)),
    "algebra.normal_form": ("terms_out", lambda r: len(r.terms)),
    "algebra.to_truncated": ("entries_out", lambda r: len(r.entries)),
    "modular.phased_product": ("terms_out", lambda r: len(r.terms)),
    "quantization.second_quantize": ("entries_out", lambda r: len(r.entries)),
    "quantization.symbolic_gamma": ("terms_out", lambda r: len(r.terms)),
}


def coeff_bits(result):
    """Largest numerator/denominator bit length among the exact
    coefficients held by a layer's result (0 for float results and for
    results that hold no coefficients)."""
    if isinstance(result, tuple):  # (operator, steps) from product_iterative
        result = result[0]
    values = getattr(result, "entries", None) or getattr(result, "terms", None) or {}
    best = 0
    for v in values.values():
        if isinstance(v, GaussianRational):
            parts = (v.re, v.im)
        elif isinstance(v, Fraction):
            parts = (v,)
        else:
            return 0
        for q in parts:
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class NoTrace:
    """Plain calls, for the timed runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def end(self, instance_id, start, end):
        pass


class Tracer:
    """One span per layer call, grouped under one span per instance."""

    def __init__(self):
        self.spans = []
        self.ops = {}  # op name -> {"calls", "busy_s", and its work count}
        self.coeff_bits_max = 0
        self._pending = []  # (name, start, end, result) of the running instance

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self._pending.append((name, t0, time.perf_counter(), result))
        return result

    def end(self, instance_id, start, end):
        """Close the instance span and read the counts of its calls."""
        self.spans.append({"name": "instance", "parent": None,
                           "instance": instance_id, "start": start, "end": end})
        for name, t0, t1, result in self._pending:
            op = self.ops.setdefault(name, {"calls": 0, "busy_s": 0.0})
            op["calls"] += 1
            op["busy_s"] += t1 - t0
            span = {"name": name, "parent": "instance", "instance": instance_id,
                    "start": t0, "end": t1, "coeff_bits": coeff_bits(result)}
            if name in WORK_COUNTS:
                key, count = WORK_COUNTS[name]
                span[key] = count(result)
                op[key] = op.get(key, 0) + span[key]
            self.coeff_bits_max = max(self.coeff_bits_max, span["coeff_bits"])
            self.spans.append(span)
        self._pending = []

    def busy_s(self):
        return sum(op["busy_s"] for op in self.ops.values())

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
