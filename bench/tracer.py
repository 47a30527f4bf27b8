"""Span tracing of nilab's layer boundaries, installed from outside the library.

``Tracer.install`` replaces each traced function by a wrapper in the module
that defines it and in every ``nilab`` module that imported the name (for
example ``nilab.index.centralizer``); ``coords_of_rows`` is replaced on the
class.  ``uninstall`` puts the originals back, so untraced passes run the
library unchanged.  Spans are kept in memory and written out by ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (defining module, attribute, metric prefix).  A dotted attribute is a
# method looked up on a class of that module.
TARGETS = (
    ("nilab.algebras", "AlgebraRealization.coords_of_rows", "algebras.coords_of_rows"),
    ("nilab.algebras", "bracket", "algebras.bracket"),
    ("nilab.algebras", "ad_matrix", "algebras.ad_matrix"),
    ("nilab.algebras", "centralizer", "algebras.centralizer"),
    ("nilab.algebras", "center_of", "algebras.center_of"),
    ("nilab.algebras", "normalizer_of", "algebras.normalizer_of"),
    ("nilab.linalg", "rref", "linalg.rref"),
    ("nilab.linalg", "rank_kernel", "linalg.rank_kernel"),
    ("nilab.linalg", "solve", "linalg.solve"),
    ("nilab.linalg", "interpolate_vector_poly", "linalg.interpolate_vector_poly"),
    ("nilab.invariants", "_gradient_raw", "invariants.gradient_raw"),
    ("nilab.invariants", "taylor_terms", "invariants.taylor_terms"),
    ("nilab.invariants", "bivariate_terms", "invariants.bivariate_terms"),
    ("nilab.triples", "nilpotent_from_partition", "triples.nilpotent_from_partition"),
    ("nilab.triples", "sl2_complete", "triples.sl2_complete"),
    ("nilab.index", "build_pair_data", "index.build_pair_data"),
    ("nilab.index", "normalizer_decomposition_check", "index.normalizer_decomposition_check"),
    ("nilab.index", "bracket_matrix", "index.bracket_matrix"),
    ("nilab.index", "index_pair", "index.index_pair"),
    ("nilab.index", "structure_checks", "index.structure_checks"),
    ("nilab.index", "det_shape_check", "index.det_shape_check"),
    ("nilab.index", "convolution_at", "index.convolution_at"),
    ("nilab.poly", "poly_det", "poly.poly_det"),
    ("nilab.poly", "generic_rank_detail", "poly.generic_rank_detail"),
)

LAYER_NAMES = tuple(name for _, _, name in TARGETS)


class Tracer:
    """Records one span per traced call: (id, parent id, name, start, end, op id).

    ``stats`` maps a layer name to [calls, total_s, self_s]; a call nested in
    a call of the same name adds to ``calls`` and ``self_s`` only, so
    ``total_s`` never counts an interval twice.
    """

    def __init__(self):
        self.spans = []
        self.reset_stats()
        self._stack = []  # [span id, time covered by child spans]
        self._depth = dict.fromkeys(LAYER_NAMES, 0)
        self._next_id = 0
        self._op_id = None
        self._patches = []

    def reset_stats(self):
        self.stats = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}

    def _wrap(self, fn, name):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = self.stats[name]
                entry[0] += 1
                entry[2] += duration - frame[1]
                if depth[name] == 0:
                    entry[1] += duration
                spans.append((span_id, parent, name, start, end, self._op_id))

        return traced

    @contextmanager
    def op(self, key: str):
        """Root span of one operation; layer spans inside it carry its id."""
        self._next_id += 1
        span_id = self._next_id
        self._op_id = span_id
        self._stack.append([span_id, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((span_id, None, f"op:{key}", start, time.perf_counter(), span_id))
            self._op_id = None

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "nilab" or n.startswith("nilab.")
        ]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as JSON lines, in the order they ended."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, op_id in self.spans:
                record = {"id": span_id, "parent": parent, "name": name,
                          "start": start, "end": end, "op": op_id}
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
