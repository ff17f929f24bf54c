import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import vqround
from vqround.quantize import RoundingSpec

PACKAGE_DIR = Path(vqround.__file__).parent
REPO_DIR = Path(__file__).resolve().parent.parent


def test_package_has_no_bare_asserts():
    # ``python -O`` strips assert statements, so a runtime check written
    # as one silently disappears; checks raise typed errors instead.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


# Code outside the package that reads its results: the scripts, the
# benchmark, and the acceptance suite, which checks the paper's invariants.
READER_FILES = sorted((REPO_DIR / "scripts").glob("*.py")) + sorted(
    (REPO_DIR / "perfbench").glob("*.py")) + [REPO_DIR / "tests" / "test_acceptance.py"]


def _is_dataclass(node):
    """Whether ``node`` is a class under ``@dataclass`` or ``@dataclass(...)``."""
    if not isinstance(node, ast.ClassDef):
        return False
    decorators = [dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list]
    return any(isinstance(dec, ast.Name) and dec.id == "dataclass" for dec in decorators)


def _dataclass_fields(tree):
    """(class, field) for every annotated field of a dataclass."""
    return {
        (node.name, stmt.target.id)
        for node in ast.walk(tree)
        if _is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def _attribute_reads(node, in_dataclass=False):
    """Attribute names loaded anywhere under ``node``, skipping each
    dataclass's own ``__post_init__`` (validation is not a use) and
    attributes of ``args`` (the CLI's parsed flags, not a field)."""
    if isinstance(node, ast.FunctionDef) and in_dataclass and node.name == "__post_init__":
        return set()
    reads = set()
    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")):
        reads.add(node.attr)
    inside = _is_dataclass(node)
    for child in ast.iter_child_nodes(node):
        reads |= _attribute_reads(child, inside)
    return reads


def test_every_config_field_has_a_reader():
    # A settable value that nothing reads is a knob without a caller:
    # setting it changes nothing. A result field that nothing reads is
    # work without a consumer.
    package = [ast.parse(path.read_text(), filename=str(path))
               for path in sorted(PACKAGE_DIR.glob("*.py"))]
    readers = package + [ast.parse(path.read_text(), filename=str(path))
                         for path in READER_FILES]
    fields = set().union(*(_dataclass_fields(tree) for tree in package))
    reads = set().union(*(_attribute_reads(tree) for tree in readers))
    assert {"FinetuneConfig", "LipschitzCheck"} <= {cls for cls, _ in fields}
    assert sorted(f"{cls}.{name}" for cls, name in fields if name not in reads) == []


def test_rounding_constants_are_not_parameters():
    # The stretch and the threshold are fixed (quantize.GAMMA, ZETA and
    # HARD_THRESHOLD). forward_logits keeps its third parameter, an empty
    # RoundingSpec, only because the benchmark passes one positionally.
    takers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(p is not None and p.arg == "spec" for p in params):
                    takers.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert takers == ["distill.forward_logits"]
    assert dataclasses.fields(RoundingSpec) == ()


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


def test_package_imports_no_ctypes():
    # Memory goes back to the OS through what numpy and the standard
    # library free, not through calls into the C allocator. numpy loads
    # ctypes itself, so only the package's own import statements tell.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in modules
                      if name.split(".")[0] == "ctypes"]
    assert found == []


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


# Public names that nothing in the package or its readers calls, each
# kept for a caller outside them.
UNCALLED_PUBLIC_NAMES = {
    "cli.entry",  # the console script in pyproject.toml
    "distill.e2e_step",  # acceptance test 08's finite-difference check goes through it
    "quantize.rounding_regularizer",  # the reference the backward's tests compare against
}


def _named(node):
    """Every name that ``node`` loads or stores, as a variable or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_caller():
    # A public function or class that nothing names is code without a
    # caller. A definition naming itself (recursion) does not count.
    public, named = set(), set()
    for path in sorted(PACKAGE_DIR.glob("*.py")) + READER_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            names = _named(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if path.parent == PACKAGE_DIR and not stmt.name.startswith("_"):
                    public.add((path.stem, stmt.name))
            named |= names
    uncalled = {f"{module}.{name}" for module, name in public if name not in named}
    assert sorted(uncalled - UNCALLED_PUBLIC_NAMES) == []
    assert sorted(UNCALLED_PUBLIC_NAMES - uncalled) == []



def _defined(stmt):
    """The names a module-level statement defines: its function or
    class, or the variables it assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def test_every_private_name_has_a_caller():
    # A module-level private function, class or constant that no other
    # statement of the package names is a leftover of code that went.
    private, named = set(), set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            defined = _defined(stmt)
            private |= {(path.stem, name) for name in defined
                        if name.startswith("_") and not name.startswith("__")}
            named |= _named(stmt) - defined
    assert {("hessian", "_CHUNK_ROWS"), ("hessian", "_error_form")} <= private
    assert sorted(f"{module}.{name}" for module, name in private if name not in named) == []

def run_python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``vqround``; returns its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


BENCHMARK_IMPORTS = """
import sys
sys.dont_write_bytecode = True
sys.path.insert(0, {perfbench!r})
import tracer, workloads
import vqround
tracer_ = tracer.Tracer()
tracer_.install()
tracer_.uninstall()
print(vqround.__file__)
print(" ".join(workloads.WORKLOADS))
"""


def test_benchmark_imports_this_checkout(tmp_path):
    # The benchmark imports the package's public names and wraps its
    # modules' functions; a change that drops one fails here rather than
    # in every benchmark run.
    code = BENCHMARK_IMPORTS.format(perfbench=str(REPO_DIR / "perfbench"))
    package, names = run_python(code, tmp_path).splitlines()
    assert Path(package).resolve().parent == PACKAGE_DIR.resolve()
    assert names.split() == ["layer-256", "vq-512", "e2e-toy", "init-2048"]


SCIPY_MODULES = """
import sys
import vqround.cli
print(" ".join(sorted(name for name in sys.modules if name.startswith("scipy."))))
"""


def test_cli_imports_no_scipy_spatial(tmp_path):
    # scipy.spatial costs every process ~35 ms and ~4 MB to import; the
    # nearest-centroid re-rank sums its distances as cdist does instead.
    # Tests may still import it as an oracle.
    modules = run_python(SCIPY_MODULES, tmp_path).split()
    assert any(name.startswith("scipy.sparse") for name in modules)
    assert [name for name in modules if name.split(".")[1] == "spatial"] == []


HELP_THREADS = """
import argparse, contextlib, io, threading
import vqround
assert threading.active_count() == 1, threading.enumerate()
from vqround import cli
(commands,) = [action.choices for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
for argv in [["--help"]] + [[name, "--help"] for name in commands]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert threading.active_count() == 1, (argv, threading.enumerate())
print(" ".join(sorted(commands)))
"""


def test_import_and_help_start_no_thread(tmp_path):
    assert run_python(HELP_THREADS, tmp_path).split() == ["analyze", "init", "optimize", "vq"]


POOL_THREADS = """
import multiprocessing, os, threading
import numpy as np
from vqround import cli, parallel
from vqround.tensor_io import save_tensor
{run}
others = [t for t in threading.enumerate() if t is not threading.main_thread()]
assert all(t.name.startswith("vqround-worker") for t in others), others
if parallel._pool is not None:
    assert parallel._pool[1]._work_queue.empty()
assert multiprocessing.active_children() == []
try:
    os.waitpid(-1, os.WNOHANG)
    raise AssertionError("the command left a child process")
except ChildProcessError:
    pass
print(len(others), parallel.workers())
"""

# 4096 blocks of 8 at k = 1024: L * k = 2^22, above the gate, so every
# assignment pass splits.
VQ_RUN = """
save_tensor(np.random.default_rng(0).random((64, 512)), "a.vqt")
assert cli.main(["vq", "--latent", "a.vqt", "--k", "1024", "--iters", "2", "--out", "cb"]) == 0
"""

# 512x768 weights and 768x256 calibration: above every gate of the
# curvature init, so its Hessian, sweep and recon_err all use the pool.
INIT_RUN = """
rng = np.random.default_rng(0)
save_tensor(rng.normal(size=(512, 768)), "w.vqt")
save_tensor(rng.normal(size=(768, 256)), "x.vqt")
assert cli.main(["init", "--weights", "w.vqt", "--calib", "x.vqt", "--out-prefix", "o"]) == 0
"""


def assert_only_idle_pool_workers(run, tmp_path):
    # A split starts no process; after the command only the pool's idle
    # workers are left, one per worker the splits used, and the
    # interpreter joins them at exit (the child exits 0).
    last = run_python(POOL_THREADS.format(run=run), tmp_path).splitlines()[-1]
    threads, workers = map(int, last.split())
    assert threads == (workers if workers > 1 else 0)


def test_vq_leaves_only_idle_pool_workers(tmp_path):
    assert_only_idle_pool_workers(VQ_RUN, tmp_path)


def test_init_leaves_only_idle_pool_workers(tmp_path):
    assert_only_idle_pool_workers(INIT_RUN, tmp_path)


FORKED_PASS = """
import multiprocessing
import numpy as np
from vqround import parallel, reparam
parallel.os.sched_getaffinity = lambda pid: {0, 1}
rng = np.random.default_rng(0)
blocks, centroids = rng.normal(size=(8192, 8)), rng.normal(size=(1024, 8))
want = reparam._nearest(blocks, centroids)

def child():
    got = reparam._nearest(blocks, centroids)
    raise SystemExit(0 if all(g.tobytes() == w.tobytes() for g, w in zip(got, want)) else 1)

proc = multiprocessing.get_context("fork").Process(target=child, daemon=True)
proc.start()
proc.join(60)
print(proc.exitcode)
"""


def test_forked_child_splits_on_a_pool_of_its_own(tmp_path):
    # A child forked after a split pass inherits the pool but none of its
    # threads; its own split pass must not wait on them.
    assert run_python(FORKED_PASS, tmp_path).split() == ["0"]


FORKED_INIT = """
import multiprocessing
import numpy as np
from vqround import parallel
from vqround.hessian import curvature_init
from vqround.quantize import compute_quant_params
parallel.os.sched_getaffinity = lambda pid: {0, 1}
rng = np.random.default_rng(0)
W, X = rng.normal(size=(512, 768)), rng.normal(size=(768, 256))
p = compute_quant_params(W, 3)
want, want_err = curvature_init(W, X, p)

def child():
    got, err = curvature_init(W, X, p)
    same = err == want_err and all(getattr(got, name).tobytes() == getattr(want, name).tobytes()
                                   for name in ("w_q", "base", "h_tilde"))
    raise SystemExit(0 if same else 1)

proc = multiprocessing.get_context("fork").Process(target=child, daemon=True)
proc.start()
proc.join(60)
print(proc.exitcode)
"""


def test_forked_child_inits_on_a_pool_of_its_own(tmp_path):
    # As above, for the curvature init's splits.
    assert run_python(FORKED_INIT, tmp_path).split() == ["0"]
