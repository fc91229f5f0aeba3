"""Layer spans recorded from outside the package, by rebinding names.

Import traps this module works around:

* ``blockseries.sqrt`` and ``blockseries.recip`` are the functions, not the
  modules, so the modules are reached by their dotted names
  (``sys.modules`` here, ``importlib.import_module`` in ``gate.py``).
* ``from .transform import forward`` copies the name into each consumer, so
  rebinding ``transform.forward`` would trace nothing: the name is rebound
  in every module that looks it up.
* Only stable public names are wrapped; the ``capture=``/``on_phase=`` hooks
  and ``bench.run_case`` are not used.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly contains, so the self times of all layers
in one call tree sum exactly to the root span's duration.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("transform", "blockwise", "baselines", "sqrt", "recip", "cli")

# (module, attribute, layer): every place the ops look a layer's entry up.
_TARGETS = (
    [(mod, name, "transform")
     for mod in ("sqrt", "recip", "blockwise", "baselines")
     for name in ("forward", "inverse")]
    + [(mod, name, "blockwise")
       for mod in ("sqrt", "recip")
       for name in ("product_block", "combined_block")]
    + [("baselines", "recip_schonhage", "baselines"),
       ("baselines", "sqrt_newton_coupled", "baselines"),
       ("cli", "sqrt", "sqrt"),
       ("cli", "recip", "recip"),
       ("cli", "sqrt_rem", "sqrt")]
)


class CallTrace:
    """Per-layer counts and self times of one traced call tree."""

    def __init__(self):
        self.self_ns = Counter()
        self.busy_ns = Counter()  # inclusive time of the outermost span per layer
        self.calls = Counter()
        self.forward = Counter()  # transform length -> count
        self.inverse = Counter()
        self.base_forward = Counter()  # the same, inside a baselines span
        self.base_inverse = Counter()
        self.wall_ns = 0
        self._child_ns: list[int] = []
        self._open = Counter()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn as a span of ``layer``."""
        self._child_ns.append(0)
        self._open[layer] += 1
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - t0
            self._open[layer] -= 1
            self.self_ns[layer] += dur - self._child_ns.pop()
            self.calls[layer] += 1
            if not self._open[layer]:
                self.busy_ns[layer] += dur
            if self._child_ns:
                self._child_ns[-1] += dur
            else:
                self.wall_ns += dur

    def _count(self, kind: str, length: int) -> None:
        getattr(self, kind)[length] += 1
        if self._open["baselines"]:
            getattr(self, "base_" + kind)[length] += 1

    def wrapper(self, layer: str, name: str, fn):
        if name == "forward":
            def traced(p, n, *args, **kwargs):
                self._count("forward", n)
                return self.call(layer, fn, p, n, *args, **kwargs)
        elif name == "inverse":
            def traced(s, *args, **kwargs):
                self._count("inverse", len(s))
                return self.call(layer, fn, s, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return self.call(layer, fn, *args, **kwargs)
        return traced


@contextmanager
def installed(trace: CallTrace):
    """Rebind every traced name to a span wrapper while the context is open.

    Names a module does not define are skipped (``sqrt`` has no
    ``combined_block``), as are modules not loaded (``cli`` is only loaded by
    the CLI workload).
    """
    saved = []
    try:
        for modname, attr, layer in _TARGETS:
            fn = getattr(sys.modules.get(f"blockseries.{modname}"), attr, None)
            if fn is None:
                continue
            mod = sys.modules[f"blockseries.{modname}"]
            saved.append((mod, attr, fn))
            setattr(mod, attr, trace.wrapper(layer, attr, fn))
        yield trace
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)

