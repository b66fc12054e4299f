"""Spans and counts taken from outside the program, at its public functions.

``Tracer.install`` wraps each name in ``TARGETS`` and rebinds it in every
``artifact`` module namespace that holds it: ``from .exactlin import snf``
copies the binding into ``chain``, ``circle`` and ``flavors``, so patching
``exactlin`` alone would miss those calls.  Methods are patched once, on
their class.

Each call records a span: case id, name, start, end and parent span.  Spans
stay in memory (compact arrays) and are written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
Counts are taken at the same wrappers.  ``distinct_frac`` hashes each
input's content (shape, entries and p), so it shows how much repeated work
a memo could save.
"""

import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _content(M, p) -> int:
    return hash((M.rows, M.cols, p, frozenset(M.entries.items())))


def _p(args, kwargs, pos: int) -> int:
    return args[pos] if len(args) > pos else kwargs.get("p", 0)


def _snf(t: "Tracer", args, kwargs, result) -> None:
    M = args[0]
    t.counts["exactlin.snf.cells"] += M.rows * M.cols
    t.keys["exactlin.snf"].add(_content(M, _p(args, kwargs, 1)))


def _solve(t: "Tracer", args, kwargs, result) -> None:
    t.counts["exactlin.solve.rhs_cols"] += args[1].cols


def _from_pair(t: "Tracer", args, kwargs, result) -> None:
    # args[0] is the class: from_pair is a classmethod
    p = _p(args, kwargs, 3)
    t.keys["exactlin.from_pair"].add(
        hash((_content(args[1], p), _content(args[2], p))))


def _e_y(t: "Tracer", args, kwargs, result) -> None:
    t.counts["circle.e_y.gens_out"] += len(result.module)


def _cm_flavors(t: "Tracer", args, kwargs, result) -> None:
    t.counts["connsum.cm_flavors.gens_out"] += sum(
        len(cx.module) for cx in result.complexes.values())


# (span name, module, attribute, extra counts taken from the call).
# "Class.method" patches the method on its class.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("exactlin.snf", "artifact.exactlin", "snf", _snf),
    ("exactlin.solve", "artifact.exactlin", "solve", _solve),
    ("exactlin.from_pair", "artifact.exactlin", "PresentedGroup.from_pair",
     _from_pair),
    ("exactlin.lattices_equal", "artifact.exactlin", "lattices_equal", None),
    ("exactlin.subgroups_equal", "artifact.exactlin", "subgroups_equal", None),
    ("exactlin.matmul", "artifact.exactlin", "IntMatrix.__matmul__", None),
    ("chain.present_homology", "artifact.chain", "present_homology", None),
    ("chain.homology", "artifact.chain", "homology", None),
    ("chain.induced_on_homology", "artifact.chain", "induced_on_homology",
     None),
    ("chain.verify_exact_at", "artifact.chain", "verify_exact_at", None),
    ("chain.validate", "artifact.chain", "validate", None),
    ("chain.graded_matmul", "artifact.chain", "GradedMap.__matmul__", None),
    ("circle.s_u", "artifact.circle", "s_u", None),
    ("circle.e_y", "artifact.circle", "e_y", _e_y),
    ("circle.fundamental_sequences", "artifact.circle",
     "fundamental_sequences", None),
    ("circle.koszul_b", "artifact.circle", "koszul_b", None),
    ("connsum.cm_flavors", "artifact.connsum", "cm_flavors", _cm_flavors),
    ("flavors.tower_model", "artifact.flavors", "tower_model", None),
    ("flavors.assemble", "artifact.flavors", "assemble", None),
    ("flavors.cone_identities", "artifact.flavors", "cone_identities", None),
    ("flavors.ladder_check", "artifact.flavors", "ladder_check", None),
    ("flavors.four_flavors", "artifact.flavors", "four_flavors", None),
    ("cli.parse_all", "artifact.cli", "parse_all", None),
    ("cli.run", "artifact.cli", "run", None),
)

# counts taken beside the call counts, and the spans whose inputs are hashed
COUNTS = ("exactlin.snf.cells", "exactlin.solve.rhs_cols",
          "circle.e_y.gens_out", "connsum.cm_flavors.gens_out")
DISTINCT = ("exactlin.snf", "exactlin.from_pair")

CASE = "case"


class Tracer:
    """Span recorder for one process.  Not thread-safe: the benchmark runs
    one case at a time on one thread."""

    def __init__(self) -> None:
        self.names: List[str] = [CASE]
        self.case = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.keys: Dict[str, set] = defaultdict(set)
        self.case_id = -1
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.case.append(self.case_id)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_case(self, case_id: int, fn: Callable[[], object]) -> object:
        """Run ``fn`` as case ``case_id`` under a root span."""
        self.case_id = case_id
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, span: str, fn: Callable, extra: Optional[Callable]
              ) -> Callable:
        name_id = len(self.names)
        self.names.append(span)
        counts = self.counts

        def traced(*args, **kwargs):
            counts[span] += 1
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                extra(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded ``artifact`` module."""
        modules = [m for n, m in sys.modules.items()
                   if n == "artifact" or n.startswith("artifact.")]
        for span, modname, attr, extra in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span, raw.__func__, extra))
                else:
                    new = self._wrap(span, raw, extra)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            traced = self._wrap(span, orig, extra)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, traced)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def export(self) -> dict:
        """Everything recorded, as plain data (for a parent process)."""
        return {"names": self.names,
                "spans": [self.case.tolist(), self.name.tolist(),
                          self.parent.tolist(), self.start.tolist(),
                          self.end.tolist()],
                "counts": dict(self.counts),
                "keys": {k: sorted(v) for k, v in self.keys.items()}}

    def absorb(self, data: dict, case_id: int) -> None:
        """Append another process's export as case ``case_id``."""
        remap = []
        for nm in data["names"]:
            if nm not in self.names:
                self.names.append(nm)
            remap.append(self.names.index(nm))
        base = len(self.start)
        cases, names, parents, starts, ends = data["spans"]
        for nm, par, s, e in zip(names, parents, starts, ends):
            self.case.append(case_id)
            self.name.append(remap[nm])
            self.parent.append(par + base if par >= 0 else -1)
            self.start.append(s)
            self.end.append(e)
        self.counts.update(data["counts"])
        for k, v in data["keys"].items():
            self.keys[k].update(v)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        out: Dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.names[self.name[i]]] += (self.end[i] - self.start[i]
                                              - child[i])
        return out

    def distinct_frac(self, span: str) -> float:
        calls = self.counts[span]
        return len(self.keys[span]) / calls if calls else 0.0

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("case\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.case[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                         f"{self.parent[i]}\n")

    def dump(self, path: str, extra: Dict[str, float]) -> None:
        data = self.export()
        data["extra"] = extra
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
