"""Outside-in tracer: spans around the library's public functions,
installed from the benchmark by rebinding names, with nothing changed in
the library itself.

A *span* name is wrapped so each call records (job, id, parent, name,
start, end, folded).  A *leaf* name is too hot to keep one record per
call (FiniteAlgebra.mul runs ~10^5 times per job), so its calls are
counted per job and their time is folded into the enclosing span, where
it still counts as covered by a child when self time is computed.  A
*gen* name is a generator function whose yields are counted.  Calls made
inside a leaf are not traced, so no time is counted twice.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple


def _rref_entries(args, kwargs):
    rows = args[1]
    return len(rows) * len(rows[0]) if rows else 0


def _cp_dim(args, kwargs, result):
    return args[0].dim


def _redundancy_dim(args, kwargs, result):
    return args[0].redundancy.dim


def _ideals_found(args, kwargs, result):
    return len(result)


# (module, qualified name, kind, extra).  For a leaf, extra gives a work
# count from the arguments; for a span, it gives a value read off the call.
TRACED = (
    ("exactlin", "FiniteAlgebra.__init__", "span", None),
    ("exactlin", "FiniteAlgebra.mul", "leaf", None),
    ("exactlin", "rref", "leaf", _rref_entries),
    ("exactlin", "nullspace", "span", None),
    ("exactlin", "Subspace.reduce", "leaf", None),
    ("exactlin", "subspace_intersect", "span", None),
    ("exactlin", "ideal_generate", "span", None),
    ("exactlin", "is_ideal", "span", None),
    ("exactlin", "left_regular_mod", "span", None),
    ("exactlin", "enumerate_subspaces", "gen", None),
    ("exactlin", "enumerate_ideals", "span", _ideals_found),
    ("semigroups", "InverseSemigroup.validate", "span", None),
    ("dynsys", "AmpleSystem.validate", "span", None),
    ("bundles", "AlgebraAction.validate", "span", None),
    ("bundles", "FellBundle.validate", "span", None),
    ("bundles", "semidirect_bundle", "span", None),
    ("bundles", "CrossSectionalAlgebra.__init__", "span", _redundancy_dim),
    ("bundles", "CrossedProduct.__init__", "span", _cp_dim),
    ("induction", "InductionContext.__init__", "span", None),
    ("induction", "InductionContext.gamma_image", "span", None),
    ("induction", "InductionContext.induced_ideal", "span", None),
    ("induction", "decompose_ideal", "span", None),
    ("groupoids", "FiniteGroupoid.validate", "span", None),
    ("groupoids", "GermGroupoidModel.__init__", "span", None),
    ("groupoids", "steinberg_algebra", "span", None),
    ("groupoids", "SteinbergIso.__init__", "span", None),
    ("formats", "parse_system", "span", None),
    ("formats", "parse_generator", "span", None),
    ("formats", "generator_text", "span", None),
)

ROOT = "cli.main"
PACKAGE = "crossedideals"


class Span(NamedTuple):
    job: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    folded: float = 0.0
    nested: bool = False


def self_times(spans) -> dict:
    """Self time of every span, keyed by (job, id): its duration minus the
    part of its interval covered by child spans and folded leaf calls."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[(s.job, s.parent)].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children[(s.job, s.id)]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[(s.job, s.id)] = (s.end - s.start) - covered - s.folded
    return out


class Tracer:
    """Keeps spans and per-job leaf counters in memory until dump()."""

    def __init__(self):
        self.spans = []
        self.leaves = defaultdict(lambda: [0, 0.0, 0])   # (job, name) -> calls, s, work
        self.values = defaultdict(float)                  # (job, name) -> sum of extra
        self.yields = defaultdict(int)                    # (job, name) -> items
        self.absent = []
        self.job = None
        self._stack = []           # [id, name, start, folded]
        self._active = defaultdict(int)
        self._in_leaf = False
        self._next_id = 0
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _enter(self, name):
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self._stack.pop()
        name = frame[1]
        self._active[name] -= 1
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(self.job, frame[0], parent, name, frame[2], end,
                               frame[3], self._active[name] > 0))

    def run_job(self, job_id: int, fn, *args):
        """Run fn(*args) as job job_id under a root span."""
        self.job = job_id
        frame = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(frame)
            self.job = None

    def _span_wrapper(self, name, original, extra):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.job is None or tracer._in_leaf:
                return original(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if extra is not None:
                tracer.values[(tracer.job, name)] += extra(args, kwargs, result)
            return result
        return traced

    def _leaf_wrapper(self, name, original, work):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.job is None or tracer._in_leaf:
                return original(*args, **kwargs)
            if work is not None and not isinstance(args[1], (list, tuple)):
                args = (args[0], list(args[1])) + args[2:]
            tracer._in_leaf = True
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._in_leaf = False
                stats = tracer.leaves[(tracer.job, name)]
                stats[0] += 1
                stats[1] += elapsed
                if work is not None:
                    stats[2] += work(args, kwargs)
                tracer._stack[-1][3] += elapsed
        return traced

    def _gen_wrapper(self, name, original):
        tracer = self

        def traced(*args, **kwargs):
            for item in original(*args, **kwargs):
                if tracer.job is not None:
                    tracer.yields[(tracer.job, name)] += 1
                yield item
        return traced

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every TRACED name in every module namespace that binds it.
        A name that no longer exists is recorded in self.absent."""
        self.absent = []
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for module, qualname, kind, extra in TRACED:
            name = f"{module}.{qualname}"
            home = sys.modules.get(f"{PACKAGE}.{module}")
            owner, attr = home, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = getattr(home, cls_name, None)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else \
                getattr(owner, attr, None)
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            if kind == "span":
                wrapper = self._span_wrapper(name, original, extra)
            elif kind == "leaf":
                wrapper = self._leaf_wrapper(name, original, extra)
            else:
                wrapper = self._gen_wrapper(name, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ------------------------------------------------------------

    def dump(self, path):
        """Write every span, then the leaf and yield counters, as gzip TSV."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("job\tid\tparent\tname\tstart\tend\tfolded\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                out.write(f"{s.job}\t{s.id}\t{parent}\t{s.name}\t{s.start:.9f}\t"
                          f"{s.end:.9f}\t{s.folded:.9f}\n")
            for (job, name), (calls, secs, work) in sorted(self.leaves.items()):
                out.write(f"# leaf\t{job}\t{name}\tcalls={calls}\tseconds={secs:.9f}\twork={work}\n")
            for (job, name), count in sorted(self.yields.items()):
                out.write(f"# yields\t{job}\t{name}\t{count}\n")


class Summary(NamedTuple):
    """Totals over all traced jobs."""

    span_calls: dict     # name -> calls
    span_seconds: dict   # name -> inclusive seconds, outermost calls only
    layer_self: dict     # module -> self seconds, spans and leaves together
    leaves: dict         # name -> [calls, seconds, work]
    values: dict         # name -> sum of the extra values
    yields: dict         # name -> items yielded


def summarize(tracer: Tracer) -> Summary:
    calls, seconds = defaultdict(int), defaultdict(float)
    layer_self = defaultdict(float)
    for s in tracer.spans:
        calls[s.name] += 1
        if not s.nested:
            seconds[s.name] += s.end - s.start
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        layer_self[s.name.split(".", 1)[0]] += selfs[(s.job, s.id)]
    leaves = defaultdict(lambda: [0, 0.0, 0])
    for (_, name), (n, secs, work) in tracer.leaves.items():
        total = leaves[name]
        total[0] += n
        total[1] += secs
        total[2] += work
        layer_self[name.split(".", 1)[0]] += secs
    values, yields = defaultdict(float), defaultdict(int)
    for (_, name), v in tracer.values.items():
        values[name] += v
    for (_, name), n in tracer.yields.items():
        yields[name] += n
    return Summary(dict(calls), dict(seconds), dict(layer_self), dict(leaves),
                   dict(values), dict(yields))
