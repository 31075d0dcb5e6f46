"""Spans recorded from outside the program, around calls into each layer.

Inside ``with Tracer():`` the public functions and methods listed in
``LAYERS`` are wrapped; leaving the block puts the originals back.  A
function that other superpoints modules import by name (``smat_inv``,
``word_action``, ``wedge_ad_action``, ...) is rebound in every loaded
superpoints module that holds it, so calls through any of those names are
counted.

Every span has an op id, a span id, a name, start and end times, and its
parent span id.  Spans are kept in memory and written out by ``dump``.
Coefficient products and sums happen about a thousand times per op, so
those are not kept one by one: they are aggregated per parent span into a
count and a total duration.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from superpoints import coeff, gp, liesuper, shcp, smat, verify

# (span name, owner, attribute, aggregate per parent)
LAYERS = [
    ("coeff.grassmann_mul", coeff.GrassmannElement, "__mul__", True),
    ("coeff.grassmann_add", coeff.GrassmannElement, "__add__", True),
    ("smat.mul", smat.SuperMatrix, "__mul__", False),
    ("smat.inv", smat, "smat_inv", False),
    ("shcp.ad_action_matrix", shcp.HarishChandraPair, "ad_action_matrix", False),
    ("shcp.ad_coords", shcp.HarishChandraPair, "ad_coords", False),
    ("liesuper.kernel", liesuper.LieSuperalgebraData, "odd_action", False),
    ("liesuper.kernel", liesuper.LieSuperalgebraData, "even_action_basis", False),
    ("liesuper.straighten_action", liesuper, "straighten_action", False),
    ("liesuper.wedge_ad_action", liesuper, "wedge_ad_action", False),
    ("liesuper.word_action", liesuper, "word_action", False),
    ("gp.normal_form", gp, "normal_form", False),
    ("gp.reorder_symbolic", gp, "reorder_symbolic", False),
    ("gp.strip", gp, "strip_matrix_factorization", False),
    ("gp.induced", gp.InducedModule, "apply_word", False),
    ("gp.induced.odd_act", gp.InducedModule, "odd_act", False),
    ("verify.check_module_axioms", verify, "check_module_axioms", False),
]


def _bindings(owner, attr):
    """Every (namespace, name) through which the program reaches owner.attr."""
    if isinstance(owner, type):
        return [(owner, attr)]
    fn = getattr(owner, attr)
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname != "superpoints" and not modname.startswith("superpoints."):
            continue
        for name, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, name))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [op, id, name, start, end, parent]
        self.aggregates = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [count, seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._stack = []  # [id, start, seconds covered by children]
        self._next_id = 0
        self._op = None
        self._saved = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn, aggregate):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                parent = None
                if stack:
                    parent = stack[-1][0]
                    stack[-1][2] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if aggregate:
                    agg = tracer.aggregates[(parent, name)]
                    agg[0] += 1
                    agg[1] += dur
                else:
                    tracer.spans.append([tracer._op, sid, name, frame[1], end, parent])

        return traced

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span named "op"."""
        self._op = op_id
        return self._wrap("op", fn, False)(*args)

    # -- patching ----------------------------------------------------------
    def __enter__(self):
        for name, owner, attr, aggregate in LAYERS:
            fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            traced = self._wrap(name, fn, aggregate)
            for ns, nsname in _bindings(owner, attr):
                self._saved.append((ns, nsname, fn))
                setattr(ns, nsname, traced)
        return self

    def __exit__(self, *exc):
        for ns, nsname, fn in reversed(self._saved):
            setattr(ns, nsname, fn)
        self._saved.clear()

    # -- output ------------------------------------------------------------
    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_fields": ["op", "id", "name", "start_s", "end_s", "parent"],
                "spans": self.spans,
                "aggregate_fields": ["parent", "name", "count", "total_s"],
                "aggregates": [[p, n, c, s] for (p, n), (c, s) in self.aggregates.items()],
            }, fh)
