"""Spans around the package's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function, in every ``tiledorder``
module that holds it, with a wrapper that records a span (job id, name,
start, end, parent span) and the counts seen at that boundary; leaving the
block puts the originals back.  Calls inside the package that go through a
module global (``normalize_equivariant`` calling ``find_negative_cycle``,
``cli`` calling ``detect_gorenstein``) are therefore traced as child spans.
Untraced runs install nothing, so they run the package unmodified.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from tiledorder.errors import DomainError


def _n_of_matrix(counts, args, result):
    counts["orders.n_total"] += result.n


def _n_of_validate(counts, args, result):
    counts["orders.n_total"] += len(args[0])
    if not result.fully_valid:
        counts["orders.rejects"] += 1


def _n_of_cyclic(counts, args, result):
    counts["orders.n_total"] += result[0].n


def _period(counts, args, result):
    counts["conjugation.period_total"] += args[0].period


def _poset_size(counts, args, result):
    counts["tilting.k_total"] += len(result.elements)


def _arrows(counts, args, result):
    counts["tilting.arrows_total"] += len(result.arrows)


def _bytes(counts, args, result):
    counts["files.bytes_out"] += len(result.encode())


# (span name, module, attribute, counter).  Several functions may share a
# span name; a span's self time is what the per-layer metric of that name sums.
TARGETS = (
    ("orders.from_rows", "tiledorder.orders", "ExponentMatrix.from_rows", _n_of_matrix),
    ("orders.morita_shift", "tiledorder.orders", "morita_shift", None),
    ("orders.validate", "tiledorder.orders", "validate_order", _n_of_validate),
    ("gorenstein.detect", "tiledorder.gorenstein", "detect_gorenstein", None),
    ("gorenstein.cyclic_order", "tiledorder.gorenstein", "cyclic_order", _n_of_cyclic),
    ("conjugation.equivariant_data", "tiledorder.conjugation", "equivariant_data", None),
    ("conjugation.equivariant_data", "tiledorder.conjugation", "order_equivariant_data", None),
    ("conjugation.normalize", "tiledorder.conjugation", "normalize_equivariant", _period),
    ("conjugation.negative_cycle", "tiledorder.conjugation", "find_negative_cycle", None),
    ("tilting.poset", "tiledorder.tilting", "tilting_poset", _poset_size),
    ("tilting.hasse", "tiledorder.tilting", "hasse_quiver", _arrows),
    ("files.read", "tiledorder.files", "read_order_file", None),
    ("files.read", "tiledorder.files", "read_equivariant_file", None),
    ("files.emit", "tiledorder.files", "quiver_dot", _bytes),
    ("files.emit", "tiledorder.files", "order_file_text", _bytes),
    ("files.emit", "tiledorder.files", "equivariant_file_text", _bytes),
    ("files.emit", "tiledorder.files", "write_order_file", None),
    ("files.emit", "tiledorder.files", "write_equivariant_file", None),
    ("cli.main", "tiledorder.cli", "main", None),
)
COUNT_NAMES = (
    "orders.n_total",
    "conjugation.period_total",
    "tilting.k_total",
    "tilting.arrows_total",
    "orders.rejects",
    "gorenstein.rejects",
    "conjugation.rejects",
    "files.bytes_out",
)
REJECTING_LAYERS = ("orders", "gorenstein", "conjugation")
JOB = "job"


class Tracer:
    """Spans and counts, kept in memory; ``write`` puts them in a JSON-lines file."""

    def __init__(self):
        self.spans = []  # [job id, name, start ns, end ns, parent index or None]
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._job = None

    def begin_job(self, job_id):
        self._job = job_id
        self._open(JOB)

    def end_job(self):
        self._close()
        self._job = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([self._job, name, time.perf_counter_ns(), 0, parent])

    def _close(self):
        self.spans[self._stack.pop()][3] = time.perf_counter_ns()

    def _wrap(self, name, fn, count):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except DomainError as exc:
                self._close()
                # The innermost span that sees a rejection owns it.
                if layer in REJECTING_LAYERS and not getattr(exc, "_perfbench_seen", False):
                    self.counts[layer + ".rejects"] += 1
                exc._perfbench_seen = True
                raise
            except BaseException:
                self._close()
                raise
            self._close()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        self.missing = []
        undo = []

        def replace(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tiledorder"]
        try:
            for name, module_name, attr, count in TARGETS:
                module = sys.modules[module_name]
                owner_name, _, fn_name = attr.rpartition(".")
                if owner_name:  # a classmethod: wrap the function, keep the binding
                    original = getattr(module, owner_name).__dict__.get(fn_name)
                    if not isinstance(original, classmethod):
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    wrapper = classmethod(self._wrap(name, original.__func__, count))
                    replace(getattr(module, owner_name), fn_name, wrapper)
                    continue
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(name, original, count)
                for m in modules:
                    if getattr(m, fn_name, None) is original:
                        replace(m, fn_name, wrapper)
            yield self
        finally:
            while undo:
                owner, attr, value = undo.pop()
                setattr(owner, attr, value)

    def self_times(self, first=0, last=None):
        """Self time in seconds per span name over spans[first:last].

        A span's self time is its duration minus its direct children's; the
        job span's self time is job time under no layer span (bench.other).
        Summed over every name, the self times equal the total job time.
        """
        spans = self.spans[first:last]
        child = [0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent is not None:
                child[parent - first] += end - start
        out = Counter()
        for k, (_, name, start, end, _) in enumerate(spans):
            out[name] += end - start - child[k]
        return {name: ns / 1e9 for name, ns in out.items()}

    def write(self, path):
        with open(path, "w") as fh:
            for job, name, start, end, parent in self.spans:
                record = {"job": job, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")

