"""Per-layer counters and times, taken by wrapping the program from outside.

The tracer replaces public functions of each gradefactor module, in every
module namespace that holds them, by wrappers that count calls and time
them; the two scale kernels are wrapped on the Scale class.  The CLI's
phases are timed by second wrappers on the names the cli module calls.
`uninstall` puts every original back.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# (module, function) -> the metric prefix its calls are recorded under
LAYER_FUNCTIONS = {
    ("concepts", "enumerate_concepts"): "concepts.enumerate",
    ("factorization", "find_factors"): "factorization.find_factors",
    ("factorization", "optimal_factorization"): "factorization.optimal",
    ("factorization", "coverage_curve"): "factorization.coverage_curve",
    ("matrix", "compose"): "matrix.compose",
    ("data", "read_csv"): "data.read_csv",
    ("data", "write_csv"): "data.write_csv",
    ("data", "read_raw_csv"): "data.read_raw_csv",
    ("data", "discretize"): "data.discretize",
    ("data", "read_fimi"): "data.read_fimi",
}

# names the cli module calls -> the phase of a CLI run they belong to
CLI_PHASES = {
    "read_csv": "load",
    "read_fimi": "load",
    "read_raw_csv": "load",
    "read_ranges_csv": "load",
    "find_factors": "factorize",
    "optimal_factorization": "factorize",
    "compose": "verify",
    "coverage_curve": "coverage",
    "write_csv": "write",
    "_write_json": "write",
    "_write_coverage_tsv": "write",
}

# every per-layer metric the tracer fills, with its unit
TRACED_METRICS = {
    "scale.tnorm_calls": "count",
    "scale.residuum_calls": "count",
    "scale.tnorm_cells": "count",
    "scale.residuum_cells": "count",
    "scale.tnorm_s": "s",
    "scale.residuum_s": "s",
    "concepts.enumerate_s": "s",
    "concepts.concepts_found": "count",
    "factorization.find_factors_s": "s",
    "factorization.find_factors_self_s": "s",
    "factorization.coverage_curve_s": "s",
    "factorization.optimal_s": "s",
    "matrix.compose_calls": "count",
    "matrix.compose_s": "s",
    "data.read_csv_s": "s",
    "data.read_csv_cells": "count",
    "data.write_csv_s": "s",
    "data.write_csv_cells": "count",
    "data.read_raw_csv_s": "s",
    "data.discretize_s": "s",
    "data.read_fimi_s": "s",
    "cli.load_s": "s",
    "cli.factorize_s": "s",
    "cli.verify_s": "s",
    "cli.coverage_s": "s",
    "cli.write_s": "s",
}


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.totals: defaultdict[str, float] = defaultdict(float)
        self._scale_in_find_factors = 0.0
        self._find_factors_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _kernel(self, fn, prefix: str):
        totals = self.totals

        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            totals[prefix + "_calls"] += 1
            totals[prefix + "_cells"] += np.size(result)
            totals[prefix + "_s"] += elapsed
            if self._find_factors_depth:
                self._scale_in_find_factors += elapsed
            return result

        return traced

    def _layer(self, fn, prefix: str):
        totals = self.totals

        def traced(*args, **kwargs):
            scale_before = self._scale_in_find_factors
            if prefix == "factorization.find_factors":
                self._find_factors_depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[prefix + "_s"] += elapsed
                if prefix == "factorization.find_factors":
                    self._find_factors_depth -= 1
                    inner = self._scale_in_find_factors - scale_before
                    totals["factorization.find_factors_self_s"] += elapsed - inner
            if prefix == "concepts.enumerate":
                totals["concepts.concepts_found"] += len(result)
            elif prefix == "matrix.compose":
                totals["matrix.compose_calls"] += 1
            elif prefix == "data.read_csv":
                totals["data.read_csv_cells"] += result.entries.size
            elif prefix == "data.write_csv":
                totals["data.write_csv_cells"] += args[0].entries.size
            return result

        return traced

    def _phase(self, fn, phase: str):
        totals = self.totals

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[f"cli.{phase}_s"] += time.perf_counter() - start

        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        pkg = self.package
        scale_cls = pkg.scale.Scale
        self._set(scale_cls, "tnorm", self._kernel(scale_cls.tnorm, "scale.tnorm"))
        self._set(scale_cls, "residuum", self._kernel(scale_cls.residuum, "scale.residuum"))
        namespaces = [pkg, pkg.scale, pkg.matrix, pkg.concepts, pkg.factorization,
                      pkg.data, pkg.cli]
        for (module, name), prefix in LAYER_FUNCTIONS.items():
            original = getattr(getattr(pkg, module), name)
            wrapped = self._layer(original, prefix)
            for space in namespaces:
                if getattr(space, name, None) is original:
                    self._set(space, name, wrapped)
        for name, phase in CLI_PHASES.items():
            if hasattr(pkg.cli, name):
                self._set(pkg.cli, name, self._phase(getattr(pkg.cli, name), phase))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)
