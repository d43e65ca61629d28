"""Runtime tracing of the automonad layers, installed from outside.

`Tracer.install` replaces, in the already imported package, every public
module-level function of the nine layer modules and a fixed list of class
methods by a wrapper that records a span (name, start, end, parent) and
per-name counters (calls, inclusive time, self time).  Automata that an entry
layer (validate, cli) gets from a builder, and those the benchmark queries
itself (`adopt`), get their `delta` wrapped too, which counts calls and
distinct (symbol, state) pairs.  No source file changes; the untraced run
never calls `install`.

Spans stay in memory (up to `span_cap`) and are written out by `write`.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

PACKAGE = "automonad"
LAYERS = (
    "algebra",
    "containers",
    "automata",
    "wordexpr",
    "enriched",
    "treeauto",
    "validate",
    "cli",
    "util",
)
# Layers that users enter through: an automaton a builder hands straight to
# them is one whose transitions a user-facing query pays for.
ENTRY_LAYERS = ("validate", "cli")

CONTAINER_CLASSES = {
    "OptionalContainer": "optional",
    "FiniteSetContainer": "finite_set",
    "LinCombContainer": "lin_comb",
    "BoolExprContainer": "bool_expr",
    "GenExprContainer": "gen_expr",
    "MonoidPairContainer": "monoid_pair",
    "StackContextContainer": "stack_context",
    "DeterministicContainer": "deterministic",
}
CONTAINER_METHODS = ("bind", "map", "combine")
CLASS_METHODS = {
    "automata": {
        "WordAutomaton": ("weight", "config"),
        "ParallelAutomaton": ("weight", "config"),
        "PushdownAutomaton": ("runs", "empty_stack_recognizes"),
        "ExplorationResult": ("dump",),
    },
    "treeauto": {
        "BottomUpDetTA": ("weight", "state_of"),
        "BottomUpContainerTA": ("weight", "config"),
        "TopDownContainerTA": ("weight",),
        "MultiOpBUTA": ("weight", "weight_fn"),
        "TreeExploration": ("dump",),
    },
}
WORD_AUTOMATA = ("WordAutomaton",)
TREE_AUTOMATA = ("BottomUpDetTA", "BottomUpContainerTA", "TopDownContainerTA")

MARK = "_bench_traced"


def installed_wrappers() -> int:
    """Number of tracing wrappers reachable from the imported package."""
    count = 0
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for value in vars(module).values():
            if getattr(value, MARK, False):
                count += 1
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                count += sum(1 for v in vars(value).values() if getattr(v, MARK, False))
    return count


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.frames: list[list] = []  # [span id, child seconds, layer]
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self.next_id = 1
        self.op = -1
        self.counts: dict[str, int] = {}
        self.deltas: list[tuple[str, set, list]] = []  # (layer, distinct, [calls])

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        package_modules = [
            m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        replacements = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                    or id(value) in replacements
                ):
                    continue
                post = self._post_hook(layer, value)
                replacements[id(value)] = (
                    value,
                    self._wrap(f"{layer}.{value.__name__}", layer, value, post),
                )
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        containers = modules["containers"]
        for cls_name, key in CONTAINER_CLASSES.items():
            cls = getattr(containers, cls_name)
            for meth in CONTAINER_METHODS:
                fn = getattr(cls, meth)
                setattr(cls, meth, self._wrap(f"containers.{key}.{meth}", "containers", fn))
        for layer, classes in CLASS_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    fn = getattr(cls, meth)
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", layer, fn))

    def _post_hook(self, layer, fn):
        if layer in ("automata", "wordexpr", "enriched", "treeauto"):
            ret = str(fn.__annotations__.get("return", ""))
            if "Automaton" in ret or ret.endswith("TA") or "TA |" in ret:
                return self._builder_result
        if fn.__name__ in ("explore", "tree_explore", "td_explore"):
            return self._exploration_result
        if fn.__name__ in ("validate_words", "validate_trees"):
            return self._validation_result
        return None

    def _wrap(self, name, layer, fn, post=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self.frames
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, 0.0, layer]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                parent = frames[-1] if frames else None
                if parent is not None:
                    parent[1] += dt
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append(
                        (tracer.op, sid, parent[0] if parent else 0, name, t0, t1)
                    )
                else:
                    tracer.spans_dropped += 1
            if post is not None:
                post(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        setattr(traced, MARK, True)
        return traced

    # -- result hooks -----------------------------------------------------

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _exploration_result(self, result):
        layer = "automata" if type(result).__name__ == "ExplorationResult" else "treeauto"
        self._count(f"{layer}.explore_states", len(result.states))
        if layer == "automata":
            self._count("automata.explore_transitions", len(result.transitions))

    def _validation_result(self, report):
        self._count("validate.comparisons", report.comparisons)

    def _builder_result(self, auto):
        # Builders nested in other library code build parts of a bigger
        # automaton; only the one an entry layer asked for is queried directly.
        # The benchmark adopts what it builds itself explicitly.
        if self.frames and all(frame[2] in ENTRY_LAYERS for frame in self.frames):
            self.adopt(auto)

    def adopt(self, auto):
        """Wrap the delta of an automaton that an entry layer or the
        benchmark queries, so its transitions are counted."""
        target = auto.auto if type(auto).__name__ == "PushdownAutomaton" else auto
        kind = type(target).__name__
        if kind in WORD_AUTOMATA:
            layer = "automata"
        elif kind in TREE_AUTOMATA:
            layer = "treeauto"
        else:
            return auto
        if getattr(target.delta, MARK, False):
            return auto
        distinct: set = set()
        calls = [0]
        self.deltas.append((layer, distinct, calls))
        inner = self._wrap(f"{layer}.delta", layer, target.delta)
        tracer = self

        def delta(sym, state):
            if tracer.active:
                calls[0] += 1
                distinct.add((sym, state))
            return inner(sym, state)

        setattr(delta, MARK, True)
        object.__setattr__(target, "delta", delta)
        return auto

    # -- bookkeeping ------------------------------------------------------

    def reset(self):
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        self.frames.clear()
        self.spans.clear()
        self.spans_dropped = 0
        self.counts.clear()
        for _layer, distinct, calls in self.deltas:
            distinct.clear()
            calls[0] = 0

    def layer_metrics(self) -> dict:
        s = self.stats
        counts = self.counts

        def calls(*names):
            return sum(s[n][0] for n in names if n in s)

        def self_s(*names):
            return sum(s[n][2] for n in names if n in s)

        def total_s(*names):
            return sum(s[n][1] for n in names if n in s)

        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for layer in ("automata", "treeauto"):
            n_calls = sum(c[0] for lay, _d, c in self.deltas if lay == layer)
            n_distinct = sum(len(d) for lay, d, _c in self.deltas if lay == layer)
            put(f"{layer}.delta_calls", n_calls, "count")
            put(f"{layer}.delta_distinct", n_distinct, "count")
            put(
                f"{layer}.delta_reuse_ratio",
                1 - n_distinct / n_calls if n_calls else 0.0,
                "ratio",
            )
        word_weight = ("automata.WordAutomaton.weight",)
        put("automata.weight_calls", calls(*word_weight), "count")
        put(
            "automata.weight_self_s",
            self_s(*word_weight, "automata.WordAutomaton.config"),
            "s",
        )
        put("automata.explore_calls", calls("automata.explore"), "count")
        put("automata.explore_self_s", self_s("automata.explore"), "s")
        put("automata.explore_states", counts.get("automata.explore_states", 0), "count")
        put(
            "automata.explore_transitions",
            counts.get("automata.explore_transitions", 0),
            "count",
        )
        put("automata.determinize_self_s", self_s("automata.determinize"), "s")
        td = ("treeauto.TopDownContainerTA.weight",)
        bu = ("treeauto.BottomUpContainerTA.weight", "treeauto.BottomUpContainerTA.config")
        put("treeauto.td_weight_calls", calls(*td), "count")
        put("treeauto.td_weight_self_s", self_s(*td), "s")
        put("treeauto.bu_weight_calls", calls(bu[0]), "count")
        put("treeauto.bu_weight_self_s", self_s(*bu), "s")
        put("treeauto.tree_explore_self_s", self_s("treeauto.tree_explore"), "s")
        put("treeauto.td_explore_self_s", self_s("treeauto.td_explore"), "s")
        put("treeauto.explore_states", counts.get("treeauto.explore_states", 0), "count")
        put("wordexpr.parse_self_s", self_s("wordexpr.parse_expression"), "s")
        for method in ("positions", "derivation", "inductive"):
            name = "position" if method == "positions" else method
            put(f"wordexpr.build_s.{method}", total_s(f"wordexpr.{name}_automaton"), "s")
            put(
                f"enriched.build_s.{method}",
                total_s(f"enriched.word_{name}_automaton", f"enriched.tree_{name}_automaton"),
                "s",
            )
        put("wordexpr.derive_calls", calls("wordexpr.monadic_derive"), "count")
        put("wordexpr.derive_self_s", self_s("wordexpr.monadic_derive"), "s")
        put("wordexpr.normalize_calls", calls("wordexpr.aci_normalize"), "count")
        put("wordexpr.normalize_self_s", self_s("wordexpr.aci_normalize"), "s")
        derive = ("enriched.enriched_derive", "enriched.enriched_derive_left")
        put("enriched.derive_calls", calls(*derive), "count")
        put("enriched.derive_self_s", self_s(*derive), "s")
        put("enriched.predecessors_calls", calls("enriched.predecessors"), "count")
        put("enriched.predecessors_self_s", self_s("enriched.predecessors"), "s")
        for key in CONTAINER_CLASSES.values():
            prefix = f"containers.{key}"
            put(f"{prefix}.bind_calls", calls(f"{prefix}.bind"), "count")
            put(f"{prefix}.bind_self_s", self_s(f"{prefix}.bind"), "s")
            put(f"{prefix}.map_calls", calls(f"{prefix}.map"), "count")
            put(f"{prefix}.combine_calls", calls(f"{prefix}.combine"), "count")
        put("util.render_calls", calls("util.render"), "count")
        put("util.render_self_s", self_s("util.render"), "s")
        put("validate.comparisons", counts.get("validate.comparisons", 0), "count")
        probes = (
            "validate.word_probes",
            "validate.sample_word_from",
            "validate.tree_probes",
            "validate.sample_tree_from",
            "validate.random_probe_tree",
        )
        put("validate.probes_self_s", self_s(*probes), "s")
        put(
            "validate.constructions_self_s",
            self_s("validate.word_constructions", "validate.tree_constructions"),
            "s",
        )
        put("cli.main_self_s", self_s(*(n for n in s if n.startswith("cli."))), "s")
        put("algebra.parse_tree_self_s", self_s("algebra.parse_tree"), "s")
        for layer in LAYERS:
            put(
                f"layer.{layer}.self_s",
                self_s(*(n for n in s if n.startswith(layer + "."))),
                "s",
            )
        return out

    def write(self, path, header: dict):
        """Write the aggregated counters and the recorded spans as JSON."""
        stats = {
            name: {"calls": c, "inclusive_s": t, "self_s": st}
            for name, (c, t, st) in sorted(self.stats.items())
            if c
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **header,
                    "span_fields": ["op", "id", "parent", "name", "start_s", "end_s"],
                    "spans_dropped": self.spans_dropped,
                    "stats": stats,
                    "spans": self.spans,
                },
                fh,
            )
