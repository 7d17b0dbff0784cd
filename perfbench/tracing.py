"""Spans around the package's layers, recorded from outside the package.

The package is not edited.  ``Tracer.install`` rebinds the public names that
one layer imports from another (plus a few class attributes) to wrappers
that record a span per call, and ``Tracer.uninstall`` puts the originals
back.  A span is ``[name, start_ns, end_ns, parent, request]``; spans stay
in memory until the run ends.  A hook whose module or attribute no longer
exists is reported as missing, never skipped silently.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

ROOT_SPAN = "cli.request"

CLI = "qutrit_exact.cli.main"
PATTERNS = "qutrit_exact.adjoint.patterns"

# (span name, module, attribute): names one layer imports from another
MODULE_HOOKS = (
    ("circuit.parse", CLI, "parse_circuit"),
    ("circuit.expand", CLI, "t_count"),
    ("sim.circuit_matrix", CLI, "circuit_matrix"),
    ("sim.compare", CLI, "equal_exact"),
    ("sim.compare", CLI, "equal_up_to_phase"),
    ("cli.parse_target", CLI, "parse_target"),
    ("cli.parse_target", CLI, "parse_phase_value"),
    ("analysis.is_clifford", CLI, "is_clifford"),
    ("analysis.hierarchy", CLI, "hierarchy_level"),
    ("analysis.ringcert", CLI, "matrix_ring_certificate"),
    ("analysis.ringcert", CLI, "refute_phase_membership"),
    ("adjoint.obstruct", CLI, "single_qutrit_ct_obstruction"),
    ("adjoint.adjoint_of", PATTERNS, "adjoint_of"),
    ("adjoint.patterns", PATTERNS, "block_lde"),
    ("adjoint.patterns", PATTERNS, "residue_pattern"),
    ("adjoint.patterns", PATTERNS, "pattern_equiv"),
    ("rings.to_alpha", "qutrit_exact.adjoint.rep", "to_alpha"),
    ("analysis.is_clifford", "qutrit_exact.analysis.hierarchy", "is_clifford"),
    ("analysis.is_pauli", "qutrit_exact.analysis.hierarchy", "is_pauli"),
    # the obstruction imports is_clifford inside the function at call time
    ("analysis.is_clifford", "qutrit_exact.analysis.clifford", "is_clifford"),
)

# (span name, module, class, attribute)
CLASS_HOOKS = (
    ("sim.matmul", "qutrit_exact.sim.matrix", "UnitaryMatrix", "__matmul__"),
    ("rings.inverse", "qutrit_exact.rings.cyclo", "Cyclo36", "inverse"),
)

# (counter, module, class, attributes): counted, not timed
COUNT_HOOKS = (
    ("rings.mul", "qutrit_exact.rings.cyclo", "Cyclo36", ("__mul__", "__rmul__")),
    ("rings.add", "qutrit_exact.rings.cyclo", "Cyclo36", ("__add__", "__radd__")),
)

# results handed to the benchmark after each request, for workload properties
KEEP = frozenset({"sim.circuit_matrix", "circuit.parse", "adjoint.obstruct"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts = {name: 0 for name, *_ in COUNT_HOOKS}
        self.kept: list[tuple] = []
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        kept = self.kept if name in KEEP else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if kept is not None:
                kept.append((name, args, result))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            counts[name] += 1
            return fn(a, b)

        return wrapper

    def run(self, fn, *args):
        """Call ``fn`` as one request: the root span of a new request id."""
        self.request += 1
        return self._timed(ROOT_SPAN, fn)(*args)

    # -- install / uninstall ------------------------------------------------

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _owner(self, module: str, cls: str | None, attr: str, label: str):
        mod = sys.modules.get(module)
        if mod is None:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.missing.append(label)
                return None
        owner = getattr(mod, cls, None) if cls else mod
        if owner is None or not callable(getattr(owner, "__dict__", {}).get(attr)):
            self.missing.append(label)
            return None
        return owner

    def install(self) -> None:
        for name, module, attr in MODULE_HOOKS:
            owner = self._owner(module, None, attr, f"{name} ({module}.{attr})")
            if owner is not None:
                self._bind(owner, attr, self._timed(name, getattr(owner, attr)))
        for name, module, cls, attr in CLASS_HOOKS:
            owner = self._owner(module, cls, attr, f"{name} ({module}.{cls}.{attr})")
            if owner is not None:
                self._bind(owner, attr, self._timed(name, owner.__dict__[attr]))
        for name, module, cls, attrs in COUNT_HOOKS:
            for attr in attrs:
                owner = self._owner(module, cls, attr, f"{name} ({module}.{cls}.{attr})")
                if owner is not None:
                    self._bind(owner, attr, self._counted(name, owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: self ns and calls; per request: root duration."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        per_request: dict[int, list[int]] = {}
        for i, (name, start, end, parent, req) in enumerate(self.spans):
            own = end - start - child[i]
            self_ns[name] = self_ns.get(name, 0) + own
            calls[name] = calls.get(name, 0) + 1
            acc = per_request.setdefault(req, [0, 0])
            acc[0] += own
            if parent < 0:
                acc[1] += end - start
        return self_ns, calls, per_request
