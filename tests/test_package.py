import ast
from pathlib import Path

import vqround

PACKAGE_DIR = Path(vqround.__file__).parent


def test_package_has_no_bare_asserts():
    # ``python -O`` strips assert statements, so a runtime check written
    # as one silently disappears; checks raise typed errors instead.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
