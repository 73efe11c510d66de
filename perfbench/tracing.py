"""Spans around the public functions and methods of each bottsam layer.

The wrappers live here, outside the package: ``install`` replaces every
binding of a target function, including the copies that other modules
took with ``from .x import f`` at import time, so a call is traced through
whichever name it uses.  Spans stay in memory as small lists
``[name, start, end, parent, job, size]`` and are written out by ``dump``
when the traced process ends.  ``size`` is a per-call work count (rows x
columns of a nullspace, points into a hull, points out of an enumeration,
dimension of a glue space).  Start and end are read from the process CPU
clock, like the benchmark's job times, so time the host spends with the
virtual CPU descheduled does not land in whichever span was open.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time


def _len_result(args, kwargs, result):
    return len(result)


def _len_points(args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs.get("points", ())
    return len(points) if hasattr(points, "__len__") else 0


def _cells(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return len(rows) * ncols


# (span name, module, attribute path, size of one call).  An attribute
# path "Class.method" wraps a method; classmethods keep their binding.
SPANS = (
    ("cli.main", "bottsam.cli", "main", None),
    ("picard.compute_basis_change", "bottsam.picard",
     "compute_basis_change", None),
    ("rootsys.bs_character", "bottsam.rootsys", "bs_character", None),
    ("kernel.nullspace", "bottsam._kernel", "nullspace", _cells),
    ("kernel.rank", "bottsam._kernel", "rank", None),
    ("valuation.adapted_basis", "bottsam.valuation", "adapted_basis", None),
    ("weights.weighted_semigroup", "bottsam.weights", "weighted_semigroup",
     None),
    ("weights.weight_projection", "bottsam.weights", "weight_projection",
     None),
    ("sections.engine_init", "bottsam.sections", "SectionEngine.__init__",
     None),
    ("sections.section_basis_glue", "bottsam.sections",
     "SectionEngine.section_basis_glue", _len_result),
    ("sections.section_basis_nef", "bottsam.sections",
     "SectionEngine.section_basis_nef", None),
    ("sections.slot_polynomials", "bottsam.sections",
     "SectionEngine.slot_polynomials", None),
    ("sections.monomial_section_basis", "bottsam.sections",
     "SectionEngine.monomial_section_basis", None),
    ("okounkov.valuation_points", "bottsam.okounkov",
     "OkounkovEngine.valuation_points", None),
    ("okounkov.global_cone", "bottsam.okounkov", "OkounkovEngine.global_cone",
     None),
    ("okounkov.volume_check", "bottsam.okounkov",
     "OkounkovEngine.volume_check", None),
    ("polyhedra.from_points", "bottsam.polyhedra",
     "RationalPolytope.from_points", _len_points),
    ("polyhedra.cone_from_generators", "bottsam.polyhedra",
     "RationalCone.from_generators", None),
    ("polyhedra.lattice_points", "bottsam.polyhedra",
     "RationalPolytope.lattice_points", _len_result),
    ("polyhedra.volume", "bottsam.polyhedra", "RationalPolytope.volume",
     None),
    ("polyhedra.sliced", "bottsam.polyhedra", "RationalPolytope.sliced",
     None),
)

# Hot calls that are only counted; a span per call would dominate the run.
COUNTERS = (
    ("poly.mul", "bottsam._poly", "Polynomial.__mul__"),
)


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, job: int = 0):
        self.job = job
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[5] = size(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def package_modules() -> list:
    """Every importable bottsam module, fetched through importlib.

    ``bottsam.valuation`` as an attribute is the re-exported function, not
    the module, so attribute access cannot be trusted here.
    """
    root = importlib.import_module("bottsam")
    modules = [root]
    for info in pkgutil.walk_packages(root.__path__, "bottsam."):
        try:
            modules.append(importlib.import_module(info.name))
        except ImportError:  # an optional compiled twin that is not built
            continue
    return modules


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _inner(value):
    return value.__func__ if isinstance(value, classmethod) else value


def _namespaces(modules):
    """Each module and each bottsam class it holds, once."""
    seen = set()
    for module in modules:
        for space in [module] + [obj for obj in vars(module).values()
                                 if isinstance(obj, type)
                                 and obj.__module__.startswith("bottsam")]:
            if id(space) not in seen:
                seen.add(id(space))
                yield space


def install(tracer: Tracer) -> dict:
    """Wrap every target in every namespace that binds it.

    Returns the original functions by span name, for ``unbound``.
    """
    modules = package_modules()
    targets = [(name, module, path,
                functools.partial(tracer.span, name, size=size))
               for name, module, path, size in SPANS]
    targets += [(name, module, path, functools.partial(tracer.counter, name))
                for name, module, path in COUNTERS]
    originals = {}
    for name, module, path, make in targets:
        owner, attr = _resolve(module, path)
        original = _inner(vars(owner).get(attr, getattr(owner, attr)))
        wrapper = make(original)
        bound = 0
        for space in _namespaces(modules):
            for key, value in list(vars(space).items()):
                if _inner(value) is original:
                    setattr(space, key, classmethod(wrapper)
                            if isinstance(value, classmethod) else wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{module}.{path} is bound nowhere")
        originals[name] = original
    return originals


def unbound(originals: dict) -> list[str]:
    """Bindings anywhere in bottsam that still reach an unwrapped target."""
    wanted = {id(fn) for fn in originals.values()}
    return [f"{space.__name__}.{key}"
            for space in _namespaces(package_modules())
            for key, value in vars(space).items()
            if id(_inner(value)) in wanted]


# ----- aggregation -----------------------------------------------------------

_FIELDS = ("calls", "total_s", "self_s", "size", "leaves", "probes")


def summarize(spans: list[list]) -> dict[str, dict]:
    """Additive per-name statistics of one process's spans.

    Self time is a span's duration minus the durations of its children;
    children run inside their parent on one thread, so they never overlap.
    ``probes`` counts spans nested inside a basis-change probe run.
    """
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    in_probe_run = [False] * len(spans)
    for index, (name, start, end, parent, _job, _size) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            has_child[parent] = True
            in_probe_run[index] = in_probe_run[parent] or \
                spans[parent][0] == "picard.compute_basis_change"
    stats: dict[str, dict] = {}
    for index, (name, start, end, _parent, _job, size) in enumerate(spans):
        entry = stats.setdefault(name, dict.fromkeys(_FIELDS, 0))
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["size"] += size
        entry["leaves"] += not has_child[index]
        entry["probes"] += in_probe_run[index]
    return stats


def merge(into: dict[str, dict], stats: dict[str, dict]) -> None:
    for name, entry in stats.items():
        target = into.setdefault(name, dict.fromkeys(_FIELDS, 0))
        for field in _FIELDS:
            target[field] += entry[field]


def _get(stats, name, field):
    return stats.get(name, {}).get(field, 0)


def per_layer(stats: dict[str, dict], counts: dict[str, int]) -> dict:
    """The per-layer metrics, in the units BENCHMARK.json gives them."""
    out = {}
    for name, _module, _path, size in SPANS:
        out[f"{name}.calls"] = (_get(stats, name, "calls"), "count")
        out[f"{name}.total_s"] = (_get(stats, name, "total_s"), "s")
        out[f"{name}.self_s"] = (_get(stats, name, "self_s"), "s")
    out["picard.compute_basis_change.probes"] = (
        _get(stats, "sections.section_basis_glue", "probes"), "count")
    out["sections.section_basis_glue.dim_sum"] = (
        _get(stats, "sections.section_basis_glue", "size"), "count")
    out["kernel.nullspace.cells"] = (
        _get(stats, "kernel.nullspace", "size"), "count")
    out["polyhedra.from_points.points_in"] = (
        _get(stats, "polyhedra.from_points", "size"), "count")
    out["polyhedra.lattice_points.points_out"] = (
        _get(stats, "polyhedra.lattice_points", "size"), "count")
    calls = _get(stats, "okounkov.valuation_points", "calls")
    out["okounkov.valuation_points.hit_ratio"] = (
        _get(stats, "okounkov.valuation_points", "leaves") / calls
        if calls else 0.0, "ratio")
    for name, _module, _path in COUNTERS:
        out[f"{name}.calls"] = (counts.get(name, 0), "count")
    return out
