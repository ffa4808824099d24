"""Spans around every public ``quartpd`` function, and their analysis.

``Tracer.install`` wraps each public function and each public method of a
public class defined in a loaded ``quartpd.*`` module, at every binding of
it in those modules, so ``cli.classify_numeric`` and
``oracle.classify_numeric`` record the same span name.  A span is
(name, start, end, parent, decision, note); spans stay in memory until
``export``.  Names are ``<module>.<qualname>`` with the ``quartpd.``
prefix dropped, e.g. ``oracle.sphere_minimize`` or ``quadext.QuadExt.sign``.

A few spans carry a note read from their arguments and result, which the
per-layer metrics need: the binary decision category, the oracle's
iteration count and grid size, whether a classifier was decisive.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from enum import Enum

_DECISIVE = ("positive-definite", "positive-semidefinite-not-definite", "positive-semidefinite", "indefinite")


def _kind(verdict) -> str:
    return str(getattr(verdict, "kind", ""))


def _binary_note(bound, result):
    q = next(iter(bound.arguments.values()))
    if q.a0 < 0 or q.a4 < 0:
        category = "negative_diagonal"
    elif q.a0 == 0 or q.a4 == 0:
        category = "zero_diagonal"
    elif _kind(result) == "indefinite":
        category = "witness"
    else:
        category = "criterion"
    return [category, result.witness is not None]


def _oracle_note(bound, result):
    T, cfg = list(bound.arguments.values())[:2]
    # the unwrapped method, so that reading the note records no span
    grid = inspect.unwrap(type(cfg).effective_grid)(cfg, T.dim)
    return [result.iterations_used, grid]


NOTES = {
    "binary.classify": _binary_note,
    "oracle.sphere_minimize": _oracle_note,
    "oracle.classify_numeric": lambda bound, res: _kind(res) in _DECISIVE,
    "cyclic.classify_cyclic": lambda bound, res: _kind(res.verdict) in _DECISIVE,
    "cyclic.classify_relaxed": lambda bound, res: _kind(res.verdict) in _DECISIVE,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.decision = -1
        self._name_ids = {}
        self._wrappers = {}
        self._undo = []

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name):
        sid, parent = len(self.spans), (self.stack[-1] if self.stack else -1)
        self.spans.append(None)
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (self._nid(name), t0, t1, parent, self.decision, None)

    def _wrap(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name = fn.__module__.removeprefix("quartpd.") + "." + fn.__qualname__
        nid, spans, stack, note = self._nid(name), self.spans, self.stack, NOTES.get(name)
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = len(spans), (stack[-1] if stack else -1)
            spans.append(None)
            stack.append(sid)
            info = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (nid, t0, t1, parent, self.decision, info)
            if note:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[sid] = (nid, t0, t1, parent, self.decision, note(bound, result))
            return result

        self._wrappers[id(fn)] = traced
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "quartpd" or n.startswith("quartpd.")]
        ours = lambda obj: getattr(obj, "__module__", "").startswith("quartpd") and not obj.__name__.startswith("_")
        classes = set()
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and ours(obj):
                    self._set(mod, attr, self._wrap(obj))
                elif inspect.isclass(obj) and ours(obj) and not issubclass(obj, (Enum, BaseException)):
                    classes.add(obj)
        for cls in classes:
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    self._set(cls, attr, type(raw)(self._wrap(raw.__func__)))
                elif inspect.isfunction(raw):
                    self._set(cls, attr, self._wrap(raw))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def export(self):
        return {"names": self.names, "spans": self.spans}


# -- analysis (parent side) -------------------------------------------------

# tolerance for float rounding when summing span durations, in seconds
_EPS = 1e-9


def self_times(spans):
    """Self time of every span, with the nesting checks.

    Returns (self times, violations): a violation is a child outside its
    parent's interval or in another decision, overlapping siblings, a
    negative self time, or a decision whose self times do not sum to its
    root span.
    """
    children = defaultdict(list)
    violations = []
    for sid, (_, t0, t1, parent, dec, _) in enumerate(spans):
        if parent < 0:
            continue
        p = spans[parent]
        if not (p[1] <= t0 <= t1 <= p[2]) or p[4] != dec:
            violations.append(f"span {sid} is not inside its parent {parent}")
        children[parent].append(sid)
    selfs = []
    for sid, (_, t0, t1, _, _, _) in enumerate(spans):
        kids = sorted(children.get(sid, ()), key=lambda c: spans[c][1])
        for a, b in zip(kids, kids[1:]):
            if spans[b][1] < spans[a][2]:
                violations.append(f"children {a} and {b} of span {sid} overlap")
        s = (t1 - t0) - sum(spans[c][2] - spans[c][1] for c in kids)
        if s < -_EPS:
            violations.append(f"span {sid} has negative self time {s}")
        selfs.append(s)
    roots, total, count = {}, defaultdict(float), Counter()
    for sid, sp in enumerate(spans):
        total[sp[4]] += selfs[sid]
        count[sp[4]] += 1
        if sp[3] < 0:
            roots[sp[4]] = sp[2] - sp[1]
    for dec, dur in roots.items():
        if abs(total[dec] - dur) > _EPS * count[dec]:
            violations.append(f"decision {dec}: self times sum to {total[dec]}, root lasts {dur}")
    return selfs, violations


def layer_metrics(trace, unsettled):
    """Per-layer metrics of a traced run.

    ``trace`` is ``Tracer.export()``; ``unsettled`` is the set of decision
    ids whose report shows the prefilter stage as undetermined.
    """
    names = trace["names"]
    spans = [tuple(s) for s in trace["spans"]]
    selfs, violations = self_times(spans)
    decisions = {s[4] for s in spans if s[3] < 0}
    D = max(len(decisions), 1)
    by = defaultdict(list)
    for sid, s in enumerate(spans):
        by[names[s[0]]].append(sid)

    def dur(sid):
        return spans[sid][2] - spans[sid][1]

    def calls(name):
        return len(by.get(name, ()))

    def mean_ms(sids):
        return 1e3 * sum(dur(s) for s in sids) / len(sids) if sids else 0.0

    def ancestors(sid):
        while spans[sid][3] >= 0:
            sid = spans[sid][3]
            yield names[spans[sid][0]]

    cli_self = sum(selfs[s] for s, sp in enumerate(spans) if sp[3] < 0 or names[sp[0]].startswith("cli."))
    parse_ms = sum(
        dur(s)
        for s, sp in enumerate(spans)
        if names[sp[0]].startswith("tensorio.") and not any(a.startswith("tensorio.") for a in ancestors(s))
    )
    classify = by.get("binary.classify", [])
    cat = defaultdict(list)
    for s in classify:
        note = spans[s][5]  # an exception name when the call raised
        cat[note[0] if isinstance(note, list) else "raised"].append(s)
    witness = cat["witness"]
    cyc = by.get("cyclic.classify_cyclic", []) + by.get("cyclic.classify_relaxed", [])
    sphere = [s for s in by.get("oracle.sphere_minimize", []) if isinstance(spans[s][5], list)]
    numeric = by.get("oracle.classify_numeric", [])
    dense = by.get("tensor.SymmetricTensor4.dense", [])
    dense_in_numeric = sum(1 for s in dense if "oracle.classify_numeric" in ancestors(s))
    unsettled_ids = decisions & set(unsettled)
    classify_unsettled = sum(1 for s in classify if spans[s][4] in unsettled_ids)
    evaluate = by.get("tensor.SymmetricTensor4.evaluate_form", [])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "cli.self_ms": 1e3 * cli_self / D,
        "tensorio.parse_ms": 1e3 * parse_ms / D,
        "binary.classify.calls_per_decision": calls("binary.classify") / D,
        "binary.classify.calls_per_unsettled_decision": ratio(classify_unsettled, len(unsettled_ids)),
        "binary.classify.ms.negative_diagonal": mean_ms(cat["negative_diagonal"]),
        "binary.classify.ms.zero_diagonal": mean_ms(cat["zero_diagonal"]),
        "binary.classify.ms.criterion": mean_ms(cat["criterion"]),
        "binary.classify.ms.witness": mean_ms(witness),
        "binary.witness_searches": len(witness),
        "binary.witness_found_ratio": ratio(sum(1 for s in witness if spans[s][5][1]), len(witness)),
        "quadext.sign.calls_per_decision": calls("quadext.QuadExt.sign") / D,
        "cyclic.classify.calls": len(cyc),
        "cyclic.classify.ms": mean_ms(cyc),
        "cyclic.decided_ratio": ratio(sum(1 for s in cyc if spans[s][5] is True), len(cyc)),
    }
    for fn in ("classify_numeric", "sphere_minimize", "zero_set_probe"):
        sids = by.get(f"oracle.{fn}", [])
        m[f"oracle.{fn}.ms"] = mean_ms(sids)
        m[f"oracle.{fn}.calls_per_decision"] = len(sids) / D
    m.update(
        {
            "oracle.iterations_mean": ratio(sum(spans[s][5][0] for s in sphere), len(sphere)),
            "oracle.grid_points_per_call": ratio(sum(spans[s][5][1] for s in sphere), len(sphere)),
            "oracle.decisive_ratio": ratio(sum(1 for s in numeric if spans[s][5] is True), len(numeric)),
            "tensor.dense.calls_per_decision": len(dense) / D,
            "tensor.dense.calls_per_classify_numeric": ratio(dense_in_numeric, len(numeric)),
            "tensor.evaluate_form.calls": len(evaluate) / D,
            "tensor.evaluate_form.ms": 1e3 * sum(dur(s) for s in evaluate) / D,
            "inequalities.verify.ms": mean_ms(by.get("inequalities.verify", [])),
            "inequalities.exact_spot_check.calls": calls("inequalities.exact_spot_check") / D,
            "trace.decisions": len(decisions),
            "trace.spans_per_decision": len(spans) / D,
        }
    )
    return m, violations
