"""Per-layer tracing of polarmub from outside the package.

`Tracer.install` replaces, at run time, every public function of the
layer modules and every public method and property of their classes with
a wrapper that records a span.  Names are discovered by reflection, so a
refactor that deletes or renames a function simply leaves it untraced.
A function bound under its own name in another module (`mub` imports
`class_from_generator` from `pauli`) gets the same wrapper there and is
charged to the module that defines it.

Spans are kept in memory as a call tree: one node per distinct call path
(parent node, callee), holding the call count, inclusive seconds, self
seconds and errors.  A node's self time is its inclusive time minus the
time its traced children cover, so summing self time by layer splits a
job's time across layers without double counting.  `write` dumps the
tree at the end of a run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json

LAYERS = ("algebra", "polar", "spread", "pauli", "mub", "counting", "cli")

# Inclusive-time metrics: metric -> callee whose outermost calls it sums.
INCLUSIVE = {
    "polar.symplectic_group_s": "polar.symplectic_group",
    "spread.regularity_s": "spread.check_regularity",
    "spread.search_s": "spread.search_maximal",
    "spread.classify_s": "spread.classify_iso",
    "mub.eigenprojectors_s": "mub.eigenprojectors",
    "mub.unbiasedness_s": "mub.unbiasedness",
}

# The public calls that build a space's catalogs: its construction, and the
# first call per space that reads the generator catalog.  Whether a version
# builds eagerly or lazily, the build is inside one of these calls.
CATALOG_CALLS = (
    "polar.PolarSpace.__init__",
    "polar.PolarSpace.generators",
    "polar.PolarSpace.num_generators",
    "polar.PolarSpace.generator",
    "polar.PolarSpace.generator_by_basis",
    "polar.enumerate_generators",
)

# Call-count metrics: metric -> callee.
CALLS = {
    "spread.is_complete_calls": "spread.is_complete",
    "pauli.dense_matrices": "pauli.pauli_matrix",
    "mub.basis_pairs": "mub.unbiasedness",
    "cli.commands": "cli.run",
}


class Node:
    __slots__ = ("name", "layer", "children", "calls", "total", "self_time", "errors")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0

    def child(self, name: str, layer: str) -> Node:
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name, layer)
        return node

    def walk(self, outer: frozenset = frozenset()):
        """Yield (node, names of its ancestors) depth first."""
        yield self, outer
        inner = outer | {self.name}
        for node in self.children.values():
            yield from node.walk(inner)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "errors": self.errors,
            "children": [c.as_dict() for c in self.children.values()],
        }


class Tracer:
    """Records spans, timed by `clock` (a function returning seconds)."""

    def __init__(self, clock):
        self.now = clock
        self.root = Node("run", "bench")
        # Each frame is [node, seconds covered by traced children].
        self.stack: list[list] = [[self.root, 0.0]]
        # Calls outside a job (the benchmark's own checks) are not recorded.
        self.active = False
        self.jobs: list[dict] = []
        self.errors = {layer: 0 for layer in LAYERS}
        self._last_error: dict[str, BaseException] = {}
        self._catalogs_seen: dict[int, object] = {}
        self._catalog_depth = 0
        self.catalog_s = 0.0
        self.generators_built = 0
        self.search_results = 0
        self.max_deviation = 0.0
        self.bytes_out = 0
        self._t0 = clock()

    # -- recording

    def job(self, name: str, fn):
        """Run one benchmark job as a root span; return its result."""
        node = self.root.child("job:" + name, "bench")
        frame = [node, 0.0]
        self.stack.append(frame)
        self.active = True
        start = self.now()
        try:
            return fn()
        finally:
            end = self.now()
            self.active = False
            self.stack.pop()
            node.calls += 1
            node.total += end - start
            node.self_time += end - start - frame[1]
            self.jobs.append(
                {"job": name, "start_s": start - self._t0, "end_s": end - self._t0}
            )

    def _wrap(self, fn, name: str, layer: str, hook=None):
        stack = self.stack
        now = self.now

        def note_error(exc):
            # An exception that unwinds through several frames of one layer
            # is one error of that layer; the strong reference stops a
            # recycled id from hiding the next one.
            if self._last_error.get(layer) is not exc:
                self._last_error[layer] = exc
                self.errors[layer] += 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [stack[-1][0].child(name, layer), 0.0]
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                frame[0].errors += 1
                note_error(exc)
                raise
            finally:
                elapsed = now() - start
                stack.pop()
                node = frame[0]
                node.calls += 1
                node.total += elapsed
                node.self_time += elapsed - frame[1]
                stack[-1][1] += elapsed
            if hook is not None:
                hook(args, result, elapsed)
            return result

        if name in CATALOG_CALLS:
            return self._catalog_wrap(traced, construct=name == CATALOG_CALLS[0])
        return traced

    # -- hooks on results seen through public calls

    def _catalog_wrap(self, traced, construct: bool):
        """Add to catalog_s the time of a space's construction and of its
        first catalog read, outermost calls only.  The stored space keeps
        its id from being recycled by a later space."""
        seen = self._catalogs_seen

        @functools.wraps(traced)
        def timed(space, *args, **kwargs):
            if not self.active or self._catalog_depth or (not construct and id(space) in seen):
                return traced(space, *args, **kwargs)
            self._catalog_depth += 1
            start = self.now()
            try:
                return traced(space, *args, **kwargs)
            finally:
                self.catalog_s += self.now() - start
                self._catalog_depth -= 1
                if not construct:
                    seen[id(space)] = space
                    self.active = False
                    self.generators_built += len(space.generators)
                    self.active = True

        return timed

    def _on_search(self, args, result, elapsed):
        self.search_results += len(result)

    def _on_deviation(self, args, result, elapsed):
        value = getattr(result, "max_deviation", result)
        self.max_deviation = max(self.max_deviation, float(value))

    # -- installation

    def install(self) -> None:
        """Wrap the public callables of every layer module."""
        hooks = {
            "spread.search_maximal": self._on_search,
            "mub.unbiasedness": self._on_deviation,
            "mub.certify_weak_umub": self._on_deviation,
        }
        modules = []
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"polarmub.{layer}"))
            except ImportError:
                continue
        wrapped: dict = {}
        classes: set[type] = set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    layer = _layer_of(obj)
                    if layer is None:
                        continue
                    if obj not in wrapped:
                        name = f"{layer}.{obj.__name__}"
                        wrapped[obj] = self._wrap(obj, name, layer, hooks.get(name))
                    setattr(module, attr, wrapped[obj])
                elif (
                    isinstance(obj, type)
                    and _layer_of(obj) is not None
                    and not issubclass(obj, BaseException)
                    and obj not in classes
                ):
                    classes.add(obj)
                    self._wrap_class(obj, hooks)

    def _wrap_class(self, cls: type, hooks: dict) -> None:
        layer = _layer_of(cls)
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            constructor = attr == "__init__" and not dataclasses.is_dataclass(cls)
            if attr.startswith("_") and not constructor:
                continue
            if isinstance(member, property) and member.fget is not None:
                fget = self._wrap(member.fget, name, layer, hooks.get(name))
                setattr(cls, attr, property(fget, member.fset, member.fdel, member.__doc__))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(member, name, layer, hooks.get(name)))

    # -- results

    def metrics(self) -> dict[str, float]:
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        inclusive = {metric: 0.0 for metric in INCLUSIVE}
        by_name: dict[str, int] = {}
        for node, outer in self.root.walk():
            if node.layer not in self_s:
                continue
            self_s[node.layer] += node.self_time
            calls[node.layer] += node.calls
            by_name[node.name] = by_name.get(node.name, 0) + node.calls
            for metric, name in INCLUSIVE.items():
                if node.name == name and name not in outer:
                    inclusive[metric] += node.total
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        out.update(inclusive)
        for metric, name in CALLS.items():
            out[metric] = by_name.get(name, 0)
        out["polar.catalog_s"] = self.catalog_s
        out["polar.generators"] = self.generators_built
        out["polar.generators_per_s"] = _rate(self.generators_built, self.catalog_s)
        out["spread.search_results"] = self.search_results
        out["spread.search_results_per_s"] = _rate(self.search_results, inclusive["spread.search_s"])
        out["mub.basis_pairs_per_s"] = _rate(out["mub.basis_pairs"], inclusive["mub.unbiasedness_s"])
        out["mub.max_deviation"] = self.max_deviation
        out["cli.bytes_out"] = self.bytes_out
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"jobs": self.jobs, "tree": self.root.as_dict()}, fh, indent=1)


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    package, _, layer = module.rpartition(".")
    return layer if package == "polarmub" and layer in LAYERS else None


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
