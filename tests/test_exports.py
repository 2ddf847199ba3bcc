"""Every public name has a caller: each name the package exports is used
somewhere in src/ or scripts/ outside its own definition, or it is a
result of the paper (or a classical result the package implements) kept
for direct use and listed below with that result."""
import ast
import inspect
from pathlib import Path

import dipath_ramsey

ROOT = Path(__file__).resolve().parents[1]

# exported name -> the result it implements
PAPER_ARTIFACTS = {
    "symmetric_adversary":
        "lower bound for digraphs with antiparallel edges: proper vertex "
        "coloring, then digit products of its classes",
    "tournament_acyclic_set":
        "Erdős–Moser: a tournament on n vertices has a transitive set of "
        "floor(log2 n) + 1 vertices",
    "sparse_acyclic_set":
        "the acyclic-set lemma for sparse oriented graphs behind the lower bound",
    "acyclic_edge_coloring":
        "level-digit coloring of an acyclic block in the lower bound",
    "dfs_long_path":
        "DFS lemma: a k-pseudorandom digraph on n vertices has a path of "
        "n - 2k + 1 edges",
    "symmetric_multicolor_finder":
        "upper bound for complete symmetric digraphs: Raynaud's two-run "
        "Hamilton cycle under the Gallai-Roy color recursion",
    "max_mono_path":
        "the oracle's one-number answer: the longest monochromatic path of "
        "a coloring",
    "find_cycle":
        "a directed graph is acyclic exactly when it has no directed cycle; "
        "the cycle is the witness",
    "longest_path_dag":
        "longest path of an acyclic digraph in linear time",
    "longest_path_exact":
        "exact longest simple path, the per-class value the oracle reports",
}


def _exported() -> set[str]:
    return {name for name in dipath_ramsey.__all__
            if not inspect.ismodule(getattr(dipath_ramsey, name))}


def _used_names() -> set[str]:
    """Names read in src/ (package __init__ excluded) and scripts/, each
    top-level definition's own name not counted inside its body."""
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").rglob("*.py"))
    used = set()
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.Assign):
                own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            else:
                own = {getattr(stmt, "name", None)}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    used.add(name)
    return used


def test_every_export_has_a_caller_or_names_its_result():
    uncalled = _exported() - _used_names()
    assert sorted(uncalled - set(PAPER_ARTIFACTS)) == []


def test_paper_artifacts_are_exported_and_uncalled():
    exported, used = _exported(), _used_names()
    assert sorted(set(PAPER_ARTIFACTS) - exported) == []
    # one that gained a caller no longer needs its entry
    assert sorted(set(PAPER_ARTIFACTS) & used) == []
    assert all(PAPER_ARTIFACTS.values())
