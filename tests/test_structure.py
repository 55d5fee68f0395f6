"""Design guards: one transform-domain slice path, one SVD call site, and a
runtime that needs numpy only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import trpca

SRC = Path(trpca.__file__).parent

SLICE_PATH = {"Transform.to_slices", "Transform.from_slices"}
FILE_LAYOUT = {"from_flat", "to_flat"}  # tensor3's slice-major container layout


def uses(name: str) -> list[tuple[str, str]]:
    """``(file, enclosing function)`` of every reference to ``name`` as an
    attribute (``np.linalg.svd``) or an imported name (``from ... import svd``)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = scope + (node.name,)
            if isinstance(node, ast.Attribute) and node.attr == name:
                found.append((path.name, ".".join(scope)))
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == name for alias in node.names
            ):
                found.append((path.name, ".".join(scope)))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    return found


def test_svd_only_in_slice_svd():
    sites = uses("svd")
    assert sites, "the guard found no SVD at all"
    assert set(sites) == {("tlinalg.py", "slice_svd")}


def test_slice_layout_only_in_transform():
    sites = uses("moveaxis")
    outside = [
        site for site in sites
        if site not in {("transform.py", f) for f in SLICE_PATH}
        and site not in {("tensor3.py", f) for f in FILE_LAYOUT}
    ]
    assert not outside
    assert {f for _, f in sites} >= SLICE_PATH


def test_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, trpca; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "False"
