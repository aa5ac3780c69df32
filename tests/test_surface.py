"""The library's public surface: every top-level ``def`` and ``class`` in
``src/skyforge`` whose name has no leading underscore.  Adding, renaming or
removing one changes this list, so the change shows in review."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "skyforge"

PUBLIC = [
    "ArgumentError", "Bitmap", "ColumnarView", "EnumerationCapError", "EstimatorFailure",
    "Literal", "LogEntry", "LookupEstimator", "MeasureSet", "MeasureSpec", "PrunedState",
    "Relation", "RidgeEstimator", "RunConfig", "RunResult", "SearchConfig", "SearchState",
    "SkyforgeError", "SkylineGrid", "StateSpace", "SubprocessEstimator", "TestLog",
    "UniversalTable", "build_correlation_graph", "build_manifest", "build_universal",
    "can_prune", "check_div_bound", "check_eps_cover", "check_pruned", "compress_rows",
    "dataset_name", "derive_all_literals", "dis_score", "div_score", "diversify_level",
    "enumerate_all", "eps_covered", "estimate_bounds", "execute_run", "execute_verify",
    "ingest_csv", "kmeans_1d", "main", "naive_dominates", "naive_eps_dominates",
    "naive_exact_pareto", "param_eps_dominates", "run_algorithm", "state_count_bound",
    "valuate", "write_csv",
]


def public_names() -> list:
    names = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names.append(node.name)
    return sorted(names)


def test_public_top_level_names_are_pinned():
    assert public_names() == PUBLIC
    assert len(PUBLIC) == 52
