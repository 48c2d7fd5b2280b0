"""Span recorder that wraps signalgame's public functions at run time.

Nothing under ``src/`` changes: ``install`` replaces module and class
attributes with timing wrappers and ``uninstall`` puts the originals back.
Each span records (name, start, end, parent index) plus a few attributes read
from the wrapped call's result. Spans stay in memory until the run ends.

``LanguageTable.fitness_scaled_ids`` runs once per simulated step and once
per chain state, far too often for one span per call, so it is recorded as a
leaf instead: a call count and total time per parent span. Self time of a
span is its duration minus its child spans and leaf calls.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self.leaves: dict[tuple[str, int], list] = {}  # (name, parent) -> [count, seconds]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span[4] = attrs(result)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def _wrap_leaf(self, name: str, fn: Callable) -> Callable:
        leaves, stack = self.leaves, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (name, stack[-1] if stack else -1)
                entry = leaves.get(key)
                if entry is None:
                    leaves[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def patch(self, owner: object, attr: str, name: str, *, leaf: bool = False,
              attrs: Callable | None = None) -> None:
        original = vars(owner)[attr]
        wrapper = self._wrap_leaf(name, original) if leaf else self._wrap(name, original, attrs)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public entry points of every signalgame module."""
        from signalgame import chain, cli, dynamics, languages, replicator

        self.patch(languages.LanguageTable, "__init__", "languages.table_build")
        self.patch(languages.LanguageTable, "fitness_scaled_ids", "languages.fitness", leaf=True)
        for method in ("transition_row", "transition_prob", "step_resistance"):
            self.patch(chain._ChainModel, method, f"chain.{method}")
        states = lambda out: {"states": int(out.shape[0])}  # noqa: E731
        self.patch(chain._ChainModel, "kernel", "chain.kernel", attrs=states)
        self.patch(chain._ChainModel, "resistance_matrix", "chain.resistance_matrix", attrs=states)
        self.patch(chain._ChainModel, "recurrent_classes", "chain.recurrent_classes",
                   attrs=lambda out: {"classes": len(out)})
        self.patch(chain._ChainModel, "least_resistance", "chain.least_resistance")
        self.patch(chain, "stationary", "chain.stationary")
        self.patch(chain, "stochastic_potential", "chain.stochastic_potential")
        # chain imported min_in_arborescence by name; wrap the name chain calls.
        self.patch(chain, "min_in_arborescence", "arborescence.min_in_arborescence")
        records = lambda out: {"records": len(out.records)}  # noqa: E731
        self.patch(dynamics, "run", "dynamics.run", attrs=records)
        self.patch(cli, "run", "dynamics.run", attrs=records)
        self.patch(dynamics.Trajectory, "to_csv", "dynamics.to_csv")
        steps = lambda out: {"steps": len(out.mean_fitness_path) - 1}  # noqa: E731
        self.patch(replicator, "integrate", "replicator.integrate", attrs=steps)
        self.patch(cli, "integrate", "replicator.integrate", attrs=steps)
        for cmd in ("simulate", "verify", "sweep", "replicator"):
            self.patch(cli, f"cmd_{cmd}", f"cli.cmd_{cmd}")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per name: calls, total (inclusive) seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (_, parent), (_, seconds) in self.leaves.items():
            if parent >= 0:
                covered[parent] += seconds
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - cov
        for (name, _), (count, seconds) in self.leaves.items():
            entry = out[name]
            entry["calls"] += count
            entry["total_s"] += seconds
            entry["self_s"] += seconds
        return dict(out)

    def root_seconds(self) -> float:
        """Time covered by top-level spans and leaf calls made outside any span."""
        spans = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        return spans + sum(s for (_, parent), (_, s) in self.leaves.items() if parent < 0)

    def attr_values(self, name: str, key: str) -> list:
        return [a[key] for n, _, _, _, a in self.spans if n == name and a and key in a]

    def to_json(self) -> dict:
        return {
            "spans": [[n, s, e, p, a] for n, s, e, p, a in self.spans],
            "leaves": [[n, p, c, t] for (n, p), (c, t) in self.leaves.items()],
        }
