"""In-memory spans and counters recorded around erskit's public functions.

The tracer patches module and class attributes of the imported erskit
package for the duration of a traced pass and restores them afterwards, so
the program itself carries no tracing code.  Span-wrapped functions record
(name, start, end, parent); counter-wrapped functions only bump a count,
because they are called millions of times per pass.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

# (span name, owner, attribute).  An owner is a module or class path; a
# module-level function is replaced in every erskit module that imported
# it by name, so calls made inside the package are traced too.
SPANNED = [
    ("roots.generate", "erskit.roots", "generate"),
    ("roots.check_ebs", "erskit.roots", "check_ebs"),
    ("roots.oracle", "erskit.roots", "reflection_closure_oracle"),
    ("classify", "erskit.classify", "classify_rank1"),
    ("classify", "erskit.classify", "classify_rank2"),
    ("classify", "erskit.classify", "twist_4z"),
    ("classify", "erskit.classify", "ears_data"),
    ("presentation.emit", "erskit.presentation", "emit_sr"),
    ("presentation.emit", "erskit.presentation", "emit_sr_sharp"),
    ("presentation.emit", "erskit.presentation", "emit_tsr"),
    ("unfold.handy", "erskit.unfold", "build_handy"),
    ("unfold.graded", "erskit.unfold", "build_graded"),
    ("unfold.words", "erskit.unfold", "witness_words"),
    ("unfold.transport", "erskit.unfold", "transport_images"),
    ("unfold.lookup", "erskit.unfold", "loop_weight_dim"),
    ("unfold.verify_pi", "erskit.unfold", "verify_pi"),
    ("unfold.substitute", "erskit.unfold:Realization", "evaluate_word"),
    ("quantum_torus.verify", "erskit.quantum_torus", "verify_q"),
    ("quantum_torus.verify", "erskit.quantum_torus", "structure_suite"),
    ("cli.render", "erskit.cli", "_render"),
]

COUNTED = [
    ("ambient.j_calls", "erskit.ambient:AmbientSpace", "j"),
    ("ambient.reflect_calls", "erskit.ambient:AmbientSpace", "reflect"),
    ("cyclo.cyc_created", "erskit.cyclo:Cyc", "__init__"),
    ("roots.member_calls", "erskit.roots:EllipticRootSet", "member"),
    ("unfold.loop_brackets", "erskit.unfold", "loop_bracket"),
    ("unfold.aut_calls", "erskit.unfold", "aut_n"),
    ("quantum_torus.hat_brackets", "erskit.quantum_torus", "hat_bracket"),
]

# per span name: (count, function of the result) added when the outermost
# span of that name closes
RESULT_COUNTS = {
    "unfold.words": ("unfold.words_vectors", len),
    "unfold.graded": ("unfold.basis_size",
                      lambda alg: sum(len(b) for b in alg.basis.values())),
    "presentation.emit": ("presentation.relations_emitted",
                          lambda rels: len(rels.label_words)),
}
# per span name: (counter, count) where the counter's increments inside the
# outermost span of that name are also added to the count
ENCLOSED_COUNTS = {
    "unfold.words": ("ambient.reflect_calls", "unfold.words_reflections"),
}


def _owner(path: str):
    mod, _, cls = path.partition(":")
    obj = sys.modules[mod]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    @contextlib.contextmanager
    def region(self, name: str):
        """One span: record it, and yield a one-element list in which the
        caller may leave the spanned call's result for RESULT_COUNTS."""
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(sid)
        outer = self._open[name] == 0
        self._open[name] += 1
        enclosed = ENCLOSED_COUNTS.get(name) if outer else None
        before = self.counts[enclosed[0]] if enclosed else 0
        result = []
        rec["start"] = time.perf_counter()
        try:
            yield result
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
        if enclosed:
            self.counts[enclosed[1]] += self.counts[enclosed[0]] - before
        if outer and result and name in RESULT_COUNTS:
            count, measure = RESULT_COUNTS[name]
            self.counts[count] += measure(result[0])

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.region(name) as result:
                result.append(fn(*args, **kwargs))
            return result[0]

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, path, attr in SPANNED:
            self._patch(path, attr, self.span(name, getattr(_owner(path), attr)))
        for name, path, attr in COUNTED:
            self._patch(path, attr, self.count(name, getattr(_owner(path), attr)))

    def _patch(self, path: str, attr: str, wrapper):
        owner = _owner(path)
        orig = getattr(owner, attr)
        targets = [owner]
        if ":" not in path:
            targets = [
                mod for key, mod in list(sys.modules.items())
                if key.split(".")[0] == "erskit"
                and getattr(mod, attr, None) is orig
            ]
        for target in targets:
            self._patches.append((target, attr, orig))
            setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches = []

    def reset(self):
        self.spans = []
        self._stack = []
        self._open.clear()
        # the count wrappers hold this Counter object, so clear it in place
        self.counts.clear()

    # -- reduction --------------------------------------------------------
    def self_times(self) -> dict[tuple[str, str], float]:
        """Per (top-level span, span name): total duration minus the time
        covered by child spans."""
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for rec in self.spans:
            parent = rec["parent"]
            if parent is None:
                root[rec["id"]] = rec["id"]
            else:
                child[parent] += rec["end"] - rec["start"]
                root[rec["id"]] = root[parent]
        out: dict[tuple[str, str], float] = {}
        for rec in self.spans:
            key = (self.spans[root[rec["id"]]]["name"], rec["name"])
            own = rec["end"] - rec["start"] - child[rec["id"]]
            out[key] = out.get(key, 0.0) + own
        return out
