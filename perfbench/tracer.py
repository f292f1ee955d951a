"""Per-layer tracing of layerlat from outside the package.

The tracer wraps public functions of the package at their layer boundaries.
It never edits the package's source: it rebinds each wrapped name in every
``layerlat`` module that holds it (a function imported with ``from .bunch
import validate`` is bound separately in each importing module), and it wraps
``Chain`` methods on the class.

Functions that take milliseconds get spans: (name, parent span, start, end),
kept in memory and written out when the run ends.  Methods that take well
under a microsecond (``Chain.compare/mul/negate``) and helpers called
hundreds of thousands of times only get call counters, because a span would
cost more than the call it measures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Any, Callable

# (module, attribute, metric prefix) of each function that gets a span
SPANNED = (
    ("layerlat.bunch", "parse_bunch", "bunch.parse_bunch"),
    ("layerlat.bunch", "validate", "bunch.validate"),
    ("layerlat.chain", "check_chain_laws", "chain.check_chain_laws"),
    ("layerlat.oracle", "enumerate_finite_chains", "oracle.enumerate_finite_chains"),
    ("layerlat.oracle", "check_flea_axioms", "oracle.check_flea_axioms"),
    ("layerlat.decompose", "roundtrip_table", "decompose.roundtrip_table"),
    ("layerlat.decompose", "decompose_table", "decompose.decompose_table"),
    ("layerlat.decompose", "table_of_chain", "decompose.table_of_chain"),
    ("layerlat.decompose", "recover_bunch_samples", "decompose.recover_bunch_samples"),
    ("layerlat.embed", "check_embedding", "embed.check_embedding"),
    ("layerlat.densify", "densify_driver", "densify.densify_driver"),
    ("layerlat.densify", "fill_gap", "densify.fill_gap"),
    ("layerlat.standardize", "cantor_map", "standardize.cantor_map"),
    ("layerlat.standardize", "extend_with_products", "standardize.extend_with_products"),
    ("layerlat.standardize", "sup_extend", "standardize.sup_extend"),
    ("layerlat.cli", "main", "cli.main"),
)

# (module, attribute, metric prefix) of each function that only gets a counter
COUNTED = (
    ("layerlat.ogroup", "hom_compose", "ogroup.hom_compose"),
    ("layerlat.bunch", "transition", "bunch.transition"),
    ("layerlat.oracle", "brute_residuum", "oracle.brute_residuum"),
)

COUNTED_METHODS = ("compare", "mul", "negate")


def _max_den_bits(placement) -> int:
    return max(q.denominator.bit_length() for _, q in placement.placed())


class Tracer:
    """Spans and counters for one traced round; install before the calls to
    measure and uninstall before anything that should not be counted."""

    def __init__(self) -> None:
        # a span is [name, parent index, start, end, time covered by children]
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.observed: Counter[str] = Counter()
        self.max_den_bits = 0
        self.final_layers = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, on_return=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[3] - rec[2]
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_validate(self, report) -> None:
        self.observed["bunch.validate.sampled_checks"] += sum(
            1 for c in report.checks if c.method == "sampled")

    def _on_enumerate(self, tables) -> None:
        self.observed["oracle.tables_returned"] += len(tables)

    def _on_placement(self, placement) -> None:
        self.max_den_bits = max(self.max_den_bits, _max_den_bits(placement))

    def _on_densify(self, result) -> None:
        self.final_layers = max(self.final_layers, len(result[0].skeleton))

    # -- installation -------------------------------------------------------

    def _plan(self) -> list[tuple[Any, str, Any, Any]]:
        hooks = {
            "bunch.validate": self._on_validate,
            "oracle.enumerate_finite_chains": self._on_enumerate,
            "standardize.cantor_map": self._on_placement,
            "standardize.extend_with_products": self._on_placement,
            "densify.densify_driver": self._on_densify,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "layerlat" or n.startswith("layerlat.")]
        patches = []
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for modname, attr, name in table:
                original = getattr(sys.modules[modname], attr)
                if kind == "span":
                    wrapped = self._spanned(name, original, hooks.get(name))
                else:
                    wrapped = self._counted(name, original)
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is original:
                            patches.append((mod, key, original, wrapped))
        chain_cls = sys.modules["layerlat.chain"].Chain
        patches.append((chain_cls, "__init__", chain_cls.__init__,
                        self._spanned("chain.init", chain_cls.__init__)))
        for method in COUNTED_METHODS:
            original = getattr(chain_cls, method)
            patches.append((chain_cls, method, original,
                            self._counted(f"chain.{method}", original)))
        return patches

    def install(self) -> None:
        if not self._patches:
            self._patches = self._plan()
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # -- results ------------------------------------------------------------

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][1]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][1]
        return False

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        out: dict[str, float] = {}
        for _, _, name in SPANNED:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        out["chain.init.calls"] = 0
        out["chain.init.self_s"] = 0.0
        for name, _, start, end, children in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - children
        for _, _, name in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        for method in COUNTED_METHODS:
            out[f"chain.{method}.calls"] = self.counts[f"chain.{method}"]
        out["bunch.validate.sampled_checks"] = self.observed["bunch.validate.sampled_checks"]

        # numerators and denominators of the ratios, so that run.py can
        # combine them over workloads
        out["oracle.check_flea_axioms.searched"] = sum(
            1 for i, s in enumerate(self.spans) if s[0] == "oracle.check_flea_axioms"
            and self._under(i, "oracle.enumerate_finite_chains"))
        out["oracle.tables_returned"] = self.observed["oracle.tables_returned"]
        out["densify.insertions"] = sum(
            1 for i, s in enumerate(self.spans)
            if s[0] == "densify.fill_gap" and self._under(i, "densify.densify_driver"))
        out["densify.chain_builds"] = sum(
            1 for i, s in enumerate(self.spans)
            if s[0] == "chain.init" and self._under(i, "densify.densify_driver"))
        out["densify.final_layers"] = self.final_layers
        out["standardize.max_den_bits"] = self.max_den_bits

        ogroup = sys.modules["layerlat.ogroup"]
        out["ogroup.hom_fn.cache_size"] = ogroup.hom_fn.cache_info().currsize
        out["ogroup.member_fn.cache_size"] = ogroup.member_fn.cache_info().currsize
        return out

    def span_records(self) -> list[dict[str, Any]]:
        """Spans as plain records, start times relative to the first span."""
        if not self.spans:
            return []
        origin = self.spans[0][2]
        return [{"name": name, "parent": parent, "start": start - origin,
                 "end": end - origin, "self": end - start - children}
                for name, parent, start, end, children in self.spans]
