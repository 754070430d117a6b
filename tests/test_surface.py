"""The public surface: what entmd exports is what it calls, and every exported
``Method`` is solvable."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import entmd
import entmd.experiments
import entmd.solvers
from entmd import Method, ProblemInstance, SolveConfig, Status, solve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", ["objective", "gradient", "polyak_stepsize", "hd_plus_step", "hd_step",
                                  "egpm_step"])
def test_uncalled_step_wrappers_are_gone(name):
    assert not hasattr(entmd, name)
    assert not hasattr(entmd.solvers, name)
    assert name not in entmd.solvers.__all__


@pytest.mark.parametrize("function, knob", [("instability_escape_distance", "rel_perturb"),
                                            ("l1_minimal_solution", "atol"), ("bias_report", "max_iters"),
                                            ("grid_search_constant", "num"), ("grid_search_constant", "span"),
                                            ("_constant_grid", "num"), ("_constant_grid", "span"),
                                            ("_lockstep", "keep"), ("_iterate", "step")])
def test_uncalled_knobs_are_gone(function, knob):
    # no caller set them: each is now a fixed value in the function or its callee's default
    module = next(m for m in (entmd, entmd.experiments, entmd.solvers) if hasattr(m, function))
    assert knob not in inspect.signature(getattr(module, function)).parameters


def test_solve_accepts_every_method_kind():
    p = ProblemInstance([[1.0]], [1.0])
    makers = [name for name, attr in vars(Method).items() if isinstance(attr, classmethod)]
    assert len(makers) == 6
    for name in makers:
        maker = getattr(Method, name)
        # md_constant needs its stepsize; every other maker has defaults
        required = [prm for prm in inspect.signature(maker).parameters.values() if prm.default is prm.empty]
        method = maker(*[0.5] * len(required))
        x0 = np.full(2 if method.kind == "eg_pm" else 1, 0.5)
        res = solve(p, SolveConfig(method, x0, max_iters=200))
        assert res.status is Status.CONVERGED, name


def _tracer_targets():
    """The (module, attribute) pairs of perfbench/tracer.py's TARGETS, read from its source."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(elt.elts[0].value, elt.elts[1].value) for elt in node.value.elts]
    raise AssertionError("perfbench/tracer.py has no TARGETS list")


def test_every_traced_target_resolves_to_a_callable():
    targets = _tracer_targets()
    assert targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
