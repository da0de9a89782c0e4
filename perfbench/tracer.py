"""Outside-in span tracer for the biobstacle package.

The package's modules bind each other's functions at import time
(``from .obstacle import solve_bop``), so wrapping a function in its home
module is not enough: every module attribute, and every module-level
tuple, list or dict, that holds the function object is rebound to the
wrapper. ``scipy.sparse.linalg.splu`` is looked up at call time through the
``spla`` alias and is wrapped on the scipy module itself; the free solve in
``biobstacle.problems`` is wrapped where it was imported. Nothing under
``src/`` changes, and ``uninstall`` puts every original object back.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``info`` holds a count taken from the
call's arguments or result after the span has closed, so computing it does
not count toward the span's time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from pathlib import Path
from time import perf_counter

import scipy.sparse.linalg

PACKAGE = "biobstacle"
SPLU = "scipy.splu"

INSTANCE_BUILDERS = frozenset({
    "problems.random_instance",
    "problems.manufactured_instance",
    "problems.strict_instance",
    "problems.biactive_instance",
})

# span name -> metric stem; a span's self time goes to the nearest named
# span among itself and its same-layer ancestors
NAMED = {
    "grid.assemble": "grid.assemble",
    "multipliers.classify_sets": "multipliers.classify",
    "multipliers.verify_strict_set_monotonicity": "multipliers.monotonicity",
    "derivatives.reduced_linear_solve": "derivatives.reduced_solve",
    "derivatives.directional_derivative": "derivatives.cone_vi",
    "derivatives.mosco_convergence_experiment": "derivatives.mosco",
    "tracking.objective": "tracking.objective",
    "tracking.adjoint_subgradient": "tracking.subgradient",
    "radial_series.series_study": "radial_series.study",
    "radial_series.check_gap_bounds": "radial_series.gap_bounds",
    "radial_series.gap_bounds": "radial_series.gap_bounds",
    "radial_series.verify_vi_solution_property": "radial_series.vi_property",
    **{f"verify.criterion_{k}": f"verify.criterion_{k}" for k in range(1, 10)},
    **{f"cli.run_{e}": f"cli.{e}"
       for e in ("solve", "derivative", "mosco", "control", "counterexample")},
}

# layers whose whole self time is one metric
LAYER_TOTALS = {
    "problems": "problems.instance_s",
    "controls": "controls.apply_s",
    "obstacle": "obstacle.solve_s",
    "oracle": "oracle.enumerate_s",
    "reporting": "reporting.write_s",
}

CALL_COUNTS = {
    "grid.assemble.calls": "grid.assemble",
    "controls.apply.calls": "controls.apply_control",
    "obstacle.solve.calls": "obstacle.solve_bop",
    "oracle.enumerate.calls": "oracle.solve_by_enumeration",
    "multipliers.classify.calls": "multipliers.classify_sets",
    "derivatives.reduced_solve.calls": "derivatives.reduced_linear_solve",
    "tracking.objective.calls": "tracking.objective",
    "tracking.subgradient.calls": "tracking.adjoint_subgradient",
}


def _factor_info(args, kwargs, lu):
    """(reduced-system size, L+U nonzeros) of one factorization."""
    return (int(lu.shape[0]), int(lu.L.nnz + lu.U.nnz))


def _solution_info(args, kwargs, solution):
    return (solution.solver, int(solution.iterations))


def _descent_info(args, kwargs, trace):
    """Accepted steps of one descent loop."""
    return sum(1 for row in trace.rows if row["step"] > 0.0)


def _bytes_info(args, kwargs, path):
    return Path(path).stat().st_size


INFO = {
    SPLU: _factor_info,
    "obstacle.solve_bop": _solution_info,
    "tracking.descent_loop": _descent_info,
}


class Tracer:
    """Wraps the package's public functions; spans stay in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info = INFO.get(name)
        if info is None and name.startswith("reporting.write_"):
            info = _bytes_info

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers: dict[int, tuple[object, object]] = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        problems = sys.modules[PACKAGE + ".problems"]
        wrappers[id(problems.spsolve)] = (
            problems.spsolve, self._wrap("problems.spsolve", problems.spsolve))

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for module in modules:
            for attr, value in list(vars(module).items()):
                if type(value) in (tuple, list):
                    new = type(value)(swap(v) for v in value)
                    changed = any(a is not b for a, b in zip(new, value))
                elif type(value) is dict:
                    new = {k: swap(v) for k, v in value.items()}
                    changed = any(new[k] is not value[k] for k in value)
                else:
                    new = swap(value)
                    changed = new is not value
                if changed:
                    self._rebind(module, attr, new)
        self._rebind(scipy.sparse.linalg, "splu",
                     self._wrap(SPLU, scipy.sparse.linalg.splu))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        taken = self.spans[:]
        self.spans.clear()
        return taken


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def _layer(name: str) -> str:
    return name.partition(".")[0]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Additive per-layer counts and self times from one list of spans."""
    own = self_times(spans)
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    for key in CALL_COUNTS:
        m[key] = 0
    for key in ("problems.instance.calls", "obstacle.factorizations",
                "obstacle.factor_unknowns", "obstacle.lu_nnz",
                "obstacle.pdas_iterations", "obstacle.psor_sweeps",
                "reporting.write.calls", "reporting.bytes"):
        m[key] = 0
    for key in ("obstacle.factorize_s", *LAYER_TOTALS.values(), *(stem + "_s" for stem in set(NAMED.values()))):
        m[key] = 0.0
    count_of = {name: key for key, name in CALL_COUNTS.items()}

    descent_solves = accepted = line_search = 0
    for i, (name, start, end, parent, info) in enumerate(spans):
        if name in count_of:
            m[count_of[name]] += 1
        chain = []  # ancestors, nearest first
        j = parent
        while j >= 0:
            chain.append(spans[j][0])
            j = spans[j][3]
        if name == SPLU and chain and _layer(chain[0]) == "obstacle":
            m["obstacle.factorizations"] += 1
            m["obstacle.factor_unknowns"] += info[0]
            m["obstacle.lu_nnz"] += info[1]
            m["obstacle.factorize_s"] += own[i]
            continue
        # any other factorization counts as its caller's own time
        base = chain[0] if name == SPLU and chain else name
        layer = _layer(base)
        if layer in LAYER_TOTALS:
            add(LAYER_TOTALS[layer], own[i])
        for candidate in [base, *chain]:
            if _layer(candidate) != layer:
                break
            if candidate in NAMED:
                add(NAMED[candidate] + "_s", own[i])
                break
        if name in INSTANCE_BUILDERS and not INSTANCE_BUILDERS.intersection(chain):
            m["problems.instance.calls"] += 1
        if name.startswith("reporting.write_") and not any(
                c.startswith("reporting.write_") for c in chain):
            m["reporting.write.calls"] += 1
            m["reporting.bytes"] += info
        if name == "obstacle.solve_bop":
            solver, iterations = info
            m["obstacle.pdas_iterations" if solver == "pdas"
              else "obstacle.psor_sweeps"] += iterations
            if "tracking.descent_loop" in chain:
                descent_solves += 1
        if name == "tracking.descent_loop":
            accepted += info
            line_search -= 1  # the loop's first objective is not a trial
        if name == "tracking.objective" and chain and chain[0] == "tracking.descent_loop":
            line_search += 1
    m["tracking.descent_solves"] = descent_solves
    m["tracking.accepted_steps"] = accepted
    m["tracking.line_search_evals"] = line_search
    return m


def with_ratios(m: dict[str, float]) -> dict[str, float]:
    """Add the ratio metrics to additive ones; a ratio with no base is 0."""
    def ratio(a: str, b: str) -> float:
        return m[a] / m[b] if m[b] > 0 else 0.0

    return {
        **m,
        "obstacle.factorizations_per_solve": ratio("obstacle.factorizations",
                                                   "obstacle.solve.calls"),
        "tracking.solves_per_step": ratio("tracking.descent_solves",
                                          "tracking.accepted_steps"),
        "tracking.accept_ratio": ratio("tracking.accepted_steps",
                                       "tracking.line_search_evals"),
    }


def breakdown(spans: list[list], root: str) -> dict[str, float]:
    """Inclusive time of every span named ``root`` and the self time of each
    layer inside those subtrees; factorizations are listed as ``splu``."""
    own = self_times(spans)
    inside = [False] * len(spans)
    out: dict[str, float] = {"inclusive_s": 0.0, "calls": 0}
    for i, (name, start, end, parent, _) in enumerate(spans):
        inside[i] = name == root or (parent >= 0 and inside[parent])
        if not inside[i]:
            continue
        if name == root and not (parent >= 0 and inside[parent]):
            out["inclusive_s"] += end - start
            out["calls"] += 1
        key = "splu_s" if name == SPLU else _layer(name) + "_s"
        out[key] = out.get(key, 0.0) + own[i]
    return out
