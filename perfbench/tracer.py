"""Per-layer tracing from outside the program.

Every layer below is a public function (or method) of a fusionkit module.
``Tracer.install`` replaces it, in every fusionkit namespace that holds it,
with a wrapper that records a span (name, start, end, parent) and the layer's
counters.  Spans stay in memory until ``write_spans``.  A layer that cannot
be found, or a namespace still holding the unwrapped function after
installation, stops the run: a rename must not silently drop a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

# (layer name, home module, attribute path, kind); kind is "span" (calls and
# busy time), "count" (calls only: too hot for spans) or "gen" (a generator:
# items yielded and time spent producing them).
LAYERS = [
    ("zmodlin.smith_mod", "zmodlin", "smith_mod", "span"),
    ("zmodlin.solve_mod", "zmodlin", "solve_mod", "span"),
    ("zmodlin.nullspace_mod", "zmodlin", "nullspace_mod", "span"),
    ("zmodlin.quotient_structure", "zmodlin", "quotient_structure", "span"),
    ("zmodlin.representatives", "zmodlin", "QuotientStructure.representatives", "gen"),
    ("uber.uber_constraint_system", "uber", "uber_constraint_system", "span"),
    ("uber.enumerate_uber", "uber", "enumerate_uber", "span"),
    ("uber.report", "uber", "Uberderivation.report", "span"),
    ("uber.gauge_equivalent_uber", "uber", "gauge_equivalent_uber", "span"),
    ("uber.transport", "uber", "transport", "span"),
    ("uber.gauge_shift", "uber", "gauge_shift", "span"),
    ("uber.class_invariants", "uber", "class_invariants", "span"),
    ("uber.reconstruct", "uber", "reconstruct", "span"),
    ("uber.psi", "uber", "psi", "span"),
    ("uber.normalize", "uber", "normalize", "span"),
    ("uber.decompose", "uber", "decompose", "span"),
    ("systems.verify_fusion_system", "systems", "verify_fusion_system", "span"),
    ("systems.pentagon_instances", "systems", "pentagon_instances", "span"),
    ("systems.admissible_sextuples", "systems", "admissible_sextuples", "span"),
    ("systems.apply_gauge", "systems", "apply_gauge", "span"),
    ("cohomology.h3", "cohomology", "h3", "span"),
    ("cohomology.normalize_cocycle3", "cohomology", "normalize_cocycle3", "span"),
    ("cohomology.coboundary", "cohomology", "coboundary", "span"),
    ("cohomology.h3_via_uber", "cohomology", "h3_via_uber", "span"),
    ("rules.automorphisms", "rules", "automorphisms", "span"),
    ("rules.rule_isomorphisms", "rules", "rule_isomorphisms", "span"),
    ("rules.verify_fusion_rule", "rules", "verify_fusion_rule", "span"),
    ("feudal.phi", "feudal", "phi", "span"),
    ("feudal.gamma", "feudal", "gamma", "span"),
    ("feudal.graded_isomorphic", "feudal", "graded_isomorphic", "span"),
    ("feudal.detect_feudal", "feudal", "detect_feudal", "span"),
    ("feudal.hom_datum_isomorphic", "feudal", "hom_datum_isomorphic", "span"),
    ("feudal.enumerate_feudal", "feudal", "enumerate_feudal", "span"),
    ("groups.isomorphisms", "groups", "isomorphisms", "span"),
    ("groups.homomorphisms", "groups", "homomorphisms", "span"),
    ("jsonio.load_rule", "jsonio", "load_rule", "span"),
    ("jsonio.dumps", "jsonio", "dumps", "span"),
    ("cli.main", "cli", "main", "span"),
    ("ambient.Ambi.mul", "ambient", "Ambi.mul", "count"),
    ("ambient.Ambi.init", "ambient", "Ambi.__init__", "count"),
    ("fields.Field.log", "fields", "Field.log", "count"),
]

# Calls made under enumerate_uber to these layers make up the orbit merge.
ORBIT_MERGE = ("uber.transport", "uber.gauge_equivalent_uber", "rules.automorphisms")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = [
    ("zmodlin.smith_mod.calls", "count"),
    ("zmodlin.smith_mod.self_s", "s"),
    ("zmodlin.smith_mod.cells", "count"),
    ("zmodlin.smith_mod.max_cells", "count"),
    ("zmodlin.solve_mod.calls", "count"),
    ("zmodlin.solve_mod.s", "s"),
    ("zmodlin.solve_mod.solved_ratio", "ratio"),
    ("zmodlin.nullspace_mod.calls", "count"),
    ("zmodlin.nullspace_mod.s", "s"),
    ("zmodlin.quotient_structure.calls", "count"),
    ("zmodlin.quotient_structure.s", "s"),
    ("zmodlin.quotient_structure.self_s", "s"),
    ("zmodlin.representatives.yielded", "count"),
    ("zmodlin.representatives.s", "s"),
    ("uber.uber_constraint_system.s", "s"),
    ("uber.uber_constraint_system.rows", "count"),
    ("uber.enumerate_uber.calls", "count"),
    ("uber.enumerate_uber.s", "s"),
    ("uber.enumerate_uber.self_s", "s"),
    ("uber.report.calls", "count"),
    ("uber.report.s", "s"),
    ("uber.reps.kept_ratio", "ratio"),
    ("uber.orbit_merge.s", "s"),
    ("uber.gauge_equivalent_uber.calls", "count"),
    ("uber.gauge_equivalent_uber.s", "s"),
    ("uber.gauge_equivalent_uber.self_s", "s"),
    ("uber.gauge_equivalent_uber.found_ratio", "ratio"),
    ("uber.transport.calls", "count"),
    ("uber.transport.s", "s"),
    ("uber.gauge_shift.calls", "count"),
    ("uber.gauge_shift.s", "s"),
    ("uber.class_invariants.s", "s"),
    ("uber.reconstruct.calls", "count"),
    ("uber.reconstruct.s", "s"),
    ("uber.psi.calls", "count"),
    ("uber.psi.s", "s"),
    ("uber.normalize.calls", "count"),
    ("uber.normalize.s", "s"),
    ("uber.decompose.calls", "count"),
    ("uber.decompose.s", "s"),
    ("systems.verify_fusion_system.calls", "count"),
    ("systems.verify_fusion_system.accept_s", "s"),
    ("systems.verify_fusion_system.reject_s", "s"),
    ("systems.verify_fusion_system.instances", "count"),
    ("systems.verify_fusion_system.ns_per_instance", "ns"),
    ("systems.pentagon_instances.calls", "count"),
    ("systems.pentagon_instances.s", "s"),
    ("systems.admissible_sextuples.s", "s"),
    ("systems.apply_gauge.calls", "count"),
    ("systems.apply_gauge.s", "s"),
    ("cohomology.h3.calls", "count"),
    ("cohomology.h3.s", "s"),
    ("cohomology.h3.self_s", "s"),
    ("cohomology.normalize_cocycle3.calls", "count"),
    ("cohomology.normalize_cocycle3.s", "s"),
    ("cohomology.coboundary.calls", "count"),
    ("cohomology.coboundary.s", "s"),
    ("cohomology.h3_via_uber.s", "s"),
    ("cohomology.h3_via_uber.self_s", "s"),
    ("rules.automorphisms.calls", "count"),
    ("rules.automorphisms.s", "s"),
    ("rules.rule_isomorphisms.calls", "count"),
    ("rules.rule_isomorphisms.s", "s"),
    ("rules.rule_isomorphisms.found_ratio", "ratio"),
    ("rules.verify_fusion_rule.s", "s"),
    ("feudal.phi.calls", "count"),
    ("feudal.phi.s", "s"),
    ("feudal.gamma.calls", "count"),
    ("feudal.gamma.s", "s"),
    ("feudal.graded_isomorphic.calls", "count"),
    ("feudal.graded_isomorphic.s", "s"),
    ("feudal.detect_feudal.calls", "count"),
    ("feudal.detect_feudal.s", "s"),
    ("feudal.hom_datum_isomorphic.calls", "count"),
    ("feudal.hom_datum_isomorphic.s", "s"),
    ("feudal.hom_datum_isomorphic.found_ratio", "ratio"),
    ("feudal.enumerate_feudal.s", "s"),
    ("groups.isomorphisms.calls", "count"),
    ("groups.isomorphisms.s", "s"),
    ("groups.homomorphisms.calls", "count"),
    ("groups.homomorphisms.s", "s"),
    ("jsonio.load_rule.s", "s"),
    ("jsonio.dumps.s", "s"),
    ("cli.main.self_s", "s"),
    ("ambient.Ambi.mul.calls", "count"),
    ("ambient.Ambi.init.calls", "count"),
    ("fields.Field.log.calls", "count"),
    ("trace.overhead_s", "s"),
]


_DONE = object()


class TraceSetupError(RuntimeError):
    """A named layer could not be found or wrapped."""


# ---- per-layer counters beyond calls and time, read off each call's result ----


def _smith_mod(st, result):
    cells = result.rows * result.cols
    st["cells"] += cells
    st["max_cells"] = max(st["max_cells"], cells)


def _found(st, result):
    st["found"] += result is not None and (not isinstance(result, list) or len(result) > 0)


def _constraint_rows(st, result):
    mat = result[0]
    st["rows"] += 0 if mat is None else mat.shape[0]


def _enumerate_uber(st, result):
    lat = result.lattice
    if "quotient_order" in lat:
        st["quotient_order"] += lat["quotient_order"]
        st["filtered_out"] += lat["filtered_out"]


OBSERVERS = {
    "zmodlin.smith_mod": _smith_mod,
    "zmodlin.solve_mod": _found,
    "uber.gauge_equivalent_uber": _found,
    "rules.rule_isomorphisms": _found,
    "feudal.hom_datum_isomorphic": _found,
    "uber.uber_constraint_system": _constraint_rows,
    "uber.enumerate_uber": _enumerate_uber,
}


def _fusionkit_modules():
    import fusionkit

    for info in pkgutil.iter_modules(fusionkit.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            importlib.import_module(f"fusionkit.{info.name}")
    return [m for name, m in sorted(sys.modules.items()) if name == "fusionkit" or name.startswith("fusionkit.")]


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.spans = []  # (id, parent id, layer, start, end)
        self.stack = []  # [span id, time covered by traced children]
        self.active = defaultdict(int)  # layer -> depth of open spans

    # ---- wrappers ----------------------------------------------------------------

    def _span(self, layer, fn):
        st = self.stats[layer]
        observe = OBSERVERS.get(layer)
        stack, spans, active = self.stack, self.spans, self.active
        clock = time.perf_counter
        verify = layer == "systems.verify_fusion_system"
        orbit = layer in ORBIT_MERGE
        merge = self.stats["uber.orbit_merge"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            spans.append(None)  # reserve the id; filled in below
            stack.append(frame)
            depth = active[layer]
            active[layer] = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[layer] = depth
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[span_id] = (span_id, parent, layer, start, end)
                st["calls"] += 1
                # nested calls of a recursive layer are already inside the outer span
                if depth == 0:
                    st["s"] += dur
                    if orbit and active["uber.enumerate_uber"]:
                        merge["s"] += dur
                st["self_s"] += dur - frame[1]
            if observe is not None:
                observe(st, result)
            if verify and depth == 0:
                if result.passed:
                    st["accept_s"] += dur
                    st["accept_self_s"] += dur - frame[1]
                    st["instances"] += result.pentagon_checked
                else:
                    st["reject_s"] += dur
            return result

        return wrapper

    def _count(self, layer, fn):
        st = self.stats[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gen(self, layer, fn):
        st = self.stats[layer]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st["calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                start = clock()
                item = next(inner, _DONE)
                dur = clock() - start
                st["s"] += dur
                if stack:
                    stack[-1][1] += dur
                if item is _DONE:
                    return
                st["yielded"] += 1
                yield item

        return wrapper

    # ---- installation ------------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every layer in every namespace that holds it; raise if one is missing."""
        modules = _fusionkit_modules() + list(extra_modules)
        make = {"span": self._span, "count": self._count, "gen": self._gen}
        originals = {}
        for layer, home, path, kind in LAYERS:
            owner = sys.modules.get(f"fusionkit.{home}")
            *cls_name, attr = path.split(".")
            if cls_name and owner is not None:
                owner = getattr(owner, cls_name[0], None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                raise TraceSetupError(f"layer {layer}: fusionkit.{home}.{path} not found")
            wrapper = make[kind](layer, original)
            originals[id(original)] = layer
            if cls_name:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
        for m in modules:
            for name, value in vars(m).items():
                if id(value) in originals:
                    raise TraceSetupError(f"layer {originals[id(value)]}: {m.__name__}.{name} is still unwrapped")
        return self

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, layer, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": layer, "start": start, "end": end}))
                fh.write("\n")

    def raw_stats(self) -> dict:
        return {layer: dict(st) for layer, st in self.stats.items()}


def merge_stats(parts) -> dict:
    """Sum raw counters over traced processes (maxima for max_cells)."""
    out = defaultdict(lambda: defaultdict(float))
    for raw in parts:
        for layer, st in raw.items():
            for key, value in st.items():
                if key == "max_cells":
                    out[layer][key] = max(out[layer][key], value)
                else:
                    out[layer][key] += value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(stats, overhead_s: float) -> dict:
    """Every PER_LAYER metric from merged raw counters."""
    enum = stats["uber.enumerate_uber"]
    verify = stats["systems.verify_fusion_system"]
    derived = {
        "uber.reps.kept_ratio": 1.0 - _ratio(enum["filtered_out"], enum["quotient_order"]) if enum["quotient_order"] else 0.0,
        "systems.verify_fusion_system.ns_per_instance": 1e9 * _ratio(verify["accept_self_s"], verify["instances"]),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if name in derived:
            value = derived[name]
        elif stat in ("found_ratio", "solved_ratio"):
            value = _ratio(stats[layer]["found"], stats[layer]["calls"])
        else:
            value = stats[layer][stat]
        out[name] = {"value": int(value) if unit == "count" else float(value), "unit": unit}
    return out
