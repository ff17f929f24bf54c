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


def _config_fields(tree):
    """(class, field) for every annotated field of a ``*Config`` dataclass."""
    return {
        (node.name, stmt.target.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def _attribute_reads(node, in_config_class=False):
    """Attribute names loaded anywhere under ``node``, skipping each
    ``*Config`` class's own ``__post_init__`` (validation is not a use) and
    attributes of ``args`` (the CLI's parsed flags, not a config)."""
    if isinstance(node, ast.FunctionDef) and in_config_class and node.name == "__post_init__":
        return set()
    reads = set()
    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")):
        reads.add(node.attr)
    inside = isinstance(node, ast.ClassDef) and node.name.endswith("Config")
    for child in ast.iter_child_nodes(node):
        reads |= _attribute_reads(child, inside)
    return reads


def test_every_config_field_has_a_reader():
    # A settable value that the package never reads is a knob without a
    # caller: setting it changes nothing.
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))]
    fields = set().union(*(_config_fields(tree) for tree in trees))
    reads = set().union(*(_attribute_reads(tree) for tree in trees))
    assert "FinetuneConfig" in {cls for cls, _ in fields}
    assert sorted(f"{cls}.{name}" for cls, name in fields if name not in reads) == []


def _imported_names(tree):
    """(name, line) for every name an import statement binds."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [((alias.asname or alias.name).split(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
                   if name not in used]
    assert unused == []


def test_cli_uses_no_private_name_of_another_module():
    # The front end goes through each module's public functions, which
    # are the ones the benchmark's tracer can see.
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    modules = {alias.asname or alias.name for node in relative if node.module is None
               for alias in node.names}
    found = [f"{node.module}.{alias.name}" for node in relative if node.module
             for alias in node.names if alias.name.startswith("_")]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")]
    assert found == []
