"""Per-layer spans recorded from outside the program.

The tracer replaces each traced function with a timing wrapper in every
``ahcert`` module that holds a reference to it, because names bound by
``from ... import`` are looked up in the importing module, not where the
function is defined.  Spans stay in memory; ``write`` saves them once, at
the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction

# (metric prefix, module, attribute path inside the module)
TRACED = (
    ("cli.main", "ahcert.cli", "main"),
    ("pipeline.certify_theorem", "ahcert.pipeline", "certify_theorem"),
    ("pipeline.to_jsonable", "ahcert.pipeline", "TheoremReport.to_jsonable"),
    ("pipeline.render_report", "ahcert.pipeline", "render_report"),
    ("params.sequences", "ahcert.params", "sequences"),
    ("params.check_constraints", "ahcert.params", "check_constraints"),
    ("rcbounds.rc_upper", "ahcert.rcbounds", "rc_upper"),
    ("rcbounds.separation", "ahcert.rcbounds", "separation"),
    ("rcbounds.certify_rc_lower", "ahcert.rcbounds", "certify_rc_lower"),
    ("tracesim.simulate_intertwining", "ahcert.tracesim", "simulate_intertwining"),
    ("tracesim.flip_compatibility", "ahcert.tracesim", "flip_compatibility"),
    ("tracesim.gap_series", "ahcert.tracesim", "gap_series"),
    ("chern.min_trivial_embedding_rank", "ahcert.chern", "min_trivial_embedding_rank"),
    ("telescope.telescope", "ahcert.telescope", "telescope"),
)


def max_bits(value) -> int:
    """Largest integer, numerator or denominator bit length inside ``value``."""
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max((max_bits(v) for v in value), default=0)
    if is_dataclass(value) and not isinstance(value, type):
        return max((max_bits(getattr(value, f.name)) for f in fields(value)), default=0)
    return 0


class Tracer:
    """Wraps the traced functions; records spans while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []  # (op, name, start, end, parent span index or -1)
        self.calls = {name: 0 for name, _, _ in TRACED}
        self.self_s = {name: 0.0 for name, _, _ in TRACED}
        self.max_bits = 0
        self.missing = []
        self._stack = []  # [span index, start, child seconds]
        self._restore = []

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "ahcert" or n.startswith("ahcert.")]
        for name, module_name, path in TRACED:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            holders = [owner] + modules if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def _wrap(self, name, func):
        tracer = self
        record_bits = name == "params.sequences"

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.spans[index] = (tracer.op, name, frame[1], end, parent)
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if record_bits:
                tracer.max_bits = max(tracer.max_bits, max_bits(result))
            return result

        traced.__wrapped__ = func
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["op", "name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                    "untraced_missing": self.missing,
                },
                fh,
            )
