"""Span tracing around the public functions of each powerproof layer.

A layer is a module of the package.  Tracing replaces each listed function
with a wrapper wherever a powerproof module has bound it, because ``cli`` and
``search`` import names with ``from ... import``.  Every wrapped call records a
span (name, start, end, parent); the spans stay in memory until the traced run
ends.  Calls are single-threaded, so a span's children nest strictly inside
it, and its self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from stats import ratio

# Modules are looked up by their full name: the attribute ``powerproof.search``
# on the package is the search function, not the module.
LAYERS = {
    "cli": ("main",),
    "search": ("search", "reconstruct", "reduce_presentation"),
    "proofwords": ("symmetrize", "verify", "parse_proof", "stats", "fold"),
    "cosets": ("enumerate_cosets",),
    "bracelets": ("enumerate_reduced_bracelets", "enumerate_lyndon", "bracelet_canon"),
}
# words is traced only where the search layer calls it.  Bracelet enumeration
# and proof checking call words functions millions of times, and no metric
# needs those spans.
WORDS_CALLER = "search"


def _search_facts(args, kwargs, result) -> dict:
    relators = args[1] if len(args) > 1 else kwargs["relators"]
    return {
        "states": result.states_visited,
        "moves": result.moves_tried,
        "found": int(result.found),
        "members": len(relators.members),
    }


def _coset_facts(args, kwargs, result) -> dict:
    return {"defined": result.cosets_defined, "order": result.order or 0}


def _class_facts(args, kwargs, result) -> dict:
    return {"classes": len(result)}


FACTS = {
    "search.search": _search_facts,
    "cosets.enumerate_cosets": _coset_facts,
    "bracelets.enumerate_reduced_bracelets": _class_facts,
}


@dataclass
class Spans:
    """Spans in parallel arrays: span i is called ``names[name[i]]``, ran from
    ``start[i]`` to ``end[i]`` and has the span ``parent[i]`` as its caller,
    or -1 for none.  ``facts`` holds counts read off some calls' results."""

    names: list[str] = field(default_factory=list)
    name: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("q"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    facts: dict[int, dict] = field(default_factory=dict)

    @classmethod
    def from_rows(cls, rows, facts=None) -> "Spans":
        """Spans from (name, parent, start, end) rows."""
        spans = cls(facts=facts or {})
        for name, parent, start, end in rows:
            if name not in spans.names:
                spans.names.append(name)
            spans.name.append(spans.names.index(name))
            spans.parent.append(parent)
            spans.start.append(start)
            spans.end.append(end)
        return spans

    def __len__(self) -> int:
        return len(self.name)


class Tracer:
    """Installs span-recording wrappers on entry and removes them on exit.
    Spans accumulate over every time the tracer is entered."""

    def __init__(self):
        self.spans = Spans()
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        sp = self.spans
        if name not in self._ids:
            self._ids[name] = len(sp.names)
            sp.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = sp.name, sp.parent, sp.start, sp.end
        stack, facts, extract = self._stack, sp.facts, FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if extract is not None:
                facts[idx] = extract(args, kwargs, result)
            return result

        return traced

    def _rebind(self, fn, wrapped, modules) -> None:
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, wrapped)

    def __enter__(self) -> "Tracer":
        layers = {layer: importlib.import_module(f"powerproof.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "powerproof" or n.startswith("powerproof.")]
        for layer, names in LAYERS.items():
            for name in names:
                fn = getattr(layers[layer], name)
                self._rebind(fn, self.wrap(f"{layer}.{name}", fn), modules)
        caller = importlib.import_module(f"powerproof.{WORDS_CALLER}")
        for attr, fn in list(vars(caller).items()):
            if inspect.isfunction(fn) and fn.__module__ == "powerproof.words":
                self._rebind(fn, self.wrap(f"words.{attr}", fn), [caller])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def self_times(spans: Spans) -> array:
    """Each span's duration minus the durations of its direct children."""
    own = array("d", (e - s for s, e in zip(spans.start, spans.end)))
    for i, p in enumerate(spans.parent):
        if p >= 0:
            own[p] -= spans.end[i] - spans.start[i]
    return own


def write_spans(path, spans: Spans) -> None:
    """Write spans as gzipped tab-separated lines, times in seconds."""
    with gzip.open(path, "wt") as f:
        f.write("id\tname\tparent\tstart_s\tend_s\n")
        for i, (n, p, s, e) in enumerate(zip(spans.name, spans.parent, spans.start, spans.end)):
            f.write(f"{i}\t{spans.names[n]}\t{p}\t{s:.9f}\t{e:.9f}\n")


ENUMERATORS = ("bracelets.enumerate_reduced_bracelets", "bracelets.enumerate_lyndon")


def layer_metrics(spans: Spans, jobs: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.  Seconds and counts are means per
    job; rates and ratios are taken over all jobs."""
    own = self_times(spans)
    ids = {name: k for k, name in enumerate(spans.names)}
    calls, total, own_total = Counter(), Counter(), Counter()
    enumerators = {ids[n] for n in ENUMERATORS if n in ids}
    canon, reduced = ids.get("bracelets.bracelet_canon"), ids.get(ENUMERATORS[0])
    bracelets_s, canon_calls = 0.0, 0
    for i, nid in enumerate(spans.name):
        d = spans.end[i] - spans.start[i]
        calls[nid] += 1
        total[nid] += d
        own_total[nid] += own[i]
        p = spans.parent[i]
        caller = spans.name[p] if p >= 0 else None
        if nid in enumerators and caller not in enumerators:
            bracelets_s += d
        elif nid == canon and caller == reduced:
            canon_calls += 1

    def count(name: str) -> int:
        return calls[ids.get(name)]

    def seconds(name: str) -> float:
        return total[ids.get(name)]

    def facts(name: str) -> list[dict]:
        # A call that raised recorded no facts.
        return [f for i, f in spans.facts.items() if spans.name[i] == ids.get(name)]

    def fact(name: str, key: str) -> int:
        return sum(f[key] for f in facts(name))

    search_s = seconds("search.search")
    states, moves = fact("search.search", "states"), fact("search.search", "moves")
    member_states = sum(f["states"] * f["members"] for f in facts("search.search"))
    concat_calls = count("words.concat_reduce")
    cosets_s = seconds("cosets.enumerate_cosets")
    defined = fact("cosets.enumerate_cosets", "defined")
    order = fact("cosets.enumerate_cosets", "order")
    classes = fact(ENUMERATORS[0], "classes")

    per_job = {
        "cli.main_s": seconds("cli.main"),
        "cli.self_s": own_total[ids.get("cli.main")],
        "search.search_s": search_s,
        "search.self_s": sum(own_total[k] for name, k in ids.items() if name.startswith("search.")),
        "search.calls": count("search.search"),
        "search.found": fact("search.search", "found"),
        "search.states_visited": states,
        "search.moves_tried": moves,
        "search.reconstruct_s": seconds("search.reconstruct"),
        "words.concat_reduce_calls": concat_calls,
        "words.concat_reduce_s": seconds("words.concat_reduce"),
        "proofwords.symmetrize_s": seconds("proofwords.symmetrize"),
        "proofwords.symmetrize_calls": count("proofwords.symmetrize"),
        "proofwords.verify_s": seconds("proofwords.verify"),
        "proofwords.verify_calls": count("proofwords.verify"),
        "proofwords.parse_s": seconds("proofwords.parse_proof"),
        "proofwords.stats_s": seconds("proofwords.stats"),
        "proofwords.fold_s": seconds("proofwords.fold"),
        "cosets.enumerate_s": cosets_s,
        "cosets.calls": count("cosets.enumerate_cosets"),
        "cosets.cosets_defined": defined,
        "cosets.coincidences": defined - order,
        "bracelets.enumerate_s": bracelets_s,
        "bracelets.calls": count(ENUMERATORS[0]),
        "bracelets.classes": classes,
        "bracelets.canon_calls": canon_calls,
    }
    metrics = {name: value / jobs for name, value in per_job.items()}
    metrics.update({
        "search.states_per_s": ratio(states, search_s),
        "search.moves_per_s": ratio(moves, search_s),
        "search.states_per_move": ratio(states, moves),
        "search.relator_members": ratio(member_states, states),
        "search.append_pass_ratio": ratio(concat_calls, member_states),
        "cosets.useful_ratio": ratio(order, defined),
        "cosets.defined_per_s": ratio(defined, cosets_s),
        "bracelets.canon_hit_ratio": ratio(classes, canon_calls),
        "bracelets.classes_per_s": ratio(classes, bracelets_s),
    })
    return metrics
