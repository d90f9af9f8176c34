"""Span tracing of qecwb's layers, installed from outside the package.

``Tracer.install`` replaces each public function in ``TARGETS`` at every
``qecwb`` module attribute that holds it (``qecwb.cli.enlarge`` and
``qecwb.conditions.enlarge`` as well as ``qecwb.channels.enlarge``), so a
call is traced whichever binding its caller uses.  A span records its name,
start, end, parent span and op id; spans stay in memory and are reduced by
``Tracer.summary`` when the traced work ends.  ``uninstall`` restores the
original functions.

Self time is a span's duration minus the durations of its direct children
(calls are sequential, so children never overlap).  Busy time of a name
counts only its outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name).  "Class.method" wraps a method on its class.
TARGETS = (
    ("qecwb.channels", "enlarge", "channels.enlarge"),
    ("qecwb.recovery", "standard_ad_recovery", "recovery.build"),
    ("qecwb.recovery", "cp_recovery", "recovery.build"),
    ("qecwb.recovery", "fletcher_recovery", "recovery.build"),
    ("qecwb.recovery", "repetition_recovery", "recovery.build"),
    ("qecwb.recovery", "RecoveryOperation.completeness_defect", "recovery.completeness_defect"),
    ("qecwb.recovery", "polar_decompose", "recovery.polar_decompose"),
    ("qecwb.recovery", "residue", "recovery.residue"),
    ("qecwb.linalg", "psd_sqrt", "linalg.psd_sqrt"),
    ("qecwb.linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("qecwb.fidelity", "entanglement_fidelity", "fidelity.entanglement_fidelity"),
    ("qecwb.fidelity", "baseline_no_qec", "fidelity.baseline_no_qec"),
    ("qecwb.fidelity", "threshold_analysis", "fidelity.threshold_analysis"),
    ("qecwb.fidelity", "second_order_coeff", "fidelity.second_order_coeff"),
    ("qecwb.conditions", "kl_gram", "conditions.kl_gram"),
    ("qecwb.conditions", "classify_pair", "conditions.classify_pair"),
    ("qecwb.conditions", "exact_correctable", "conditions.exact_correctable"),
    ("qecwb.conditions", "violation_order", "conditions.violation_order"),
    ("qecwb.conditions", "weight_le1_ad_errors", "conditions.weight_le1_ad_errors"),
    ("qecwb.codes", "enumerate_pairs", "codes.enumerate_pairs"),
    ("qecwb.codes", "permutation_equivalent", "codes.permutation_equivalent"),
    ("qecwb.fletcher", "closed_form_optimum", "fletcher.closed_form_optimum"),
    ("qecwb.fletcher", "numeric_optimum", "fletcher.numeric_optimum"),
    ("qecwb.cli", "main", "cli.main"),
)
LAYERS = ("channels", "recovery", "fidelity", "conditions", "codes", "fletcher", "cli")
TRACE_MARK = "PERFBENCH_TRACE "  # prefixes the span summary a traced subcommand prints


def layer_of(span_name: str) -> str:
    layer = span_name.split(".", 1)[0]
    return "recovery" if layer == "linalg" else layer


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, raised]
        self.stack = []
        self.op = None
        self.counters = {"fidelity.terms": 0, "conditions.blocks": 0, "enlarge.distinct": 0}
        self._enlarge_keys = set()
        self._restore = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counted = name in ("channels.enlarge", "fidelity.entanglement_fidelity", "conditions.kl_gram")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counted:
                self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        if name == "channels.enlarge":
            channel, n = args[0], args[1]
            self._enlarge_keys.add((n, b"".join(t.op.tobytes() for t in channel.kraus)))
        elif name == "fidelity.entanglement_fidelity":
            self.counters["fidelity.terms"] += len(result.terms)
        else:
            self.counters["conditions.blocks"] += len(result.blocks)

    def end_scope(self) -> None:
        """Close a reuse scope: enlargements repeated inside it count as rebuilds."""
        self.counters["enlarge.distinct"] += len(self._enlarge_keys)
        self._enlarge_keys.clear()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qecwb" or name.startswith("qecwb."))]
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self.wrap(span_name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-name [calls, busy_s, self_s], per-layer errors, and the counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        names = {}
        errors = {layer: 0 for layer in LAYERS}
        for i, (name, start, end, parent, _, raised) in enumerate(spans):
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[2] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry[1] += end - start
            if raised:
                # count an exception once per layer it leaves, not per nested span
                p = spans[parent] if parent >= 0 else None
                if p is None or not (p[5] and layer_of(p[0]) == layer_of(name)):
                    errors[layer_of(name)] += 1
        return {"spans": names, "errors": errors, "counters": dict(self.counters)}


def merge(summaries: list[dict]) -> dict:
    """Sum span summaries from several tracers (one per process or round)."""
    out = {"spans": {}, "errors": {layer: 0 for layer in LAYERS}, "counters": {}}
    for s in summaries:
        for name, (calls, busy, self_s) in s["spans"].items():
            entry = out["spans"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += self_s
        for layer, n in s["errors"].items():
            out["errors"][layer] += n
        for key, n in s["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + n
    return out
