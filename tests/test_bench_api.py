"""The benchmark's frozen API, read off its sources without importing them.

``bench/workloads.py`` imports cuspforge names inside its workloads, and
``bench/tracing.py`` wraps (module, attribute) pairs of cuspforge by name;
a name that no longer resolves breaks the benchmark only when it runs.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def _is_cuspforge(module):
    return module == "cuspforge" or (module or "").startswith("cuspforge.")


def test_every_name_the_workloads_import_from_cuspforge_resolves():
    imported = {}
    for node in ast.walk(_tree("workloads.py")):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_cuspforge(alias.name):
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and _is_cuspforge(node.module):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert {"truncated_quotient", "subcomplex_selection", "summand_certificate",
            "lie_cusp_certificate"} <= set(imported)
    # and every keyword the workloads pass to an imported callable is one of its parameters
    for node in ast.walk(_tree("workloads.py")):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported:
            params = inspect.signature(imported[node.func.id]).parameters
            for kw in node.keywords:
                assert kw.arg is None or kw.arg in params, f"{node.func.id}({kw.arg}=...)"


def test_every_pair_the_tracer_wraps_resolves():
    (targets,) = [node for node in _tree("tracing.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "targets"]
    modules = {}
    for node in ast.walk(targets):
        if isinstance(node, ast.ImportFrom) and node.module == "cuspforge":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(f"cuspforge.{alias.name}")
    listed = targets.body[-1].value
    assert len(listed.elts) > 20
    for entry in listed.elts:
        _, owner, attr, _ = entry.elts
        path = ast.unparse(owner).split(".")
        obj = modules[path[0]]
        for part in path[1:]:
            obj = getattr(obj, part)
        assert callable(getattr(obj, attr.value, None)), f"{ast.unparse(owner)}.{attr.value}"

