"""numpy is loaded on first array use, never on import.

Every module of the package binds ``np`` from ``phcover._lazy``, so that
the scalar sampled checks run in a process that never imports numpy.  The
checks that need it load it inside the check, and must give the same bytes
as in a process that loaded it up front (the golden tests only see the
latter: the test process has imported numpy long before they run).
"""

import ast
import hashlib
import os
import pathlib
import subprocess
import sys

from test_golden import VERIFY_ALL_GOLDEN

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phcover"


def _fresh_python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, check=True)


def _numpy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "numpy" for a in node.names):
                yield node
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] == "numpy":
                yield node


def test_numpy_is_imported_only_by_the_lazy_binding():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module_level = set(map(id, tree.body))
        for node in _numpy_imports(tree):
            # the binding's own import runs inside its __getattr__
            if path.name != "_lazy.py" or id(node) in module_level:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


SCALAR_RUN = """
import sys
from phcover import cli, construction as cons
from phcover.field import field_of_order as F

assert cons.verify_triangles(F(8), samples=300)["passed"]
assert cons.verify_pentagons(F(16), samples=300)["passed"]
assert cons.reductivity_report(F(4), samples=300)["passed"]
assert cons.equivariance_report(F(8), n_matrices=5, samples=60)["passed"]
assert cli.main(["verify", "pentagons", "--field", "16", "--samples", "50"]) == 0
print("numpy" in sys.modules)
"""


def test_scalar_sampled_checks_run_without_numpy():
    """Sampled triangles over GF(8), pentagons over GF(16), reductivity over
    GF(4), equivariance over GF(8) and a sampled `verify` command."""
    assert _fresh_python("-c", SCALAR_RUN).stdout.split()[-1] == b"False"


def test_verify_all_loading_numpy_midway_gives_the_same_bytes():
    out = _fresh_python("-m", "phcover.cli", "verify", "all", "--field", "2",
                        "--samples", "1000", "--seed", "12345").stdout
    assert hashlib.sha256(out).hexdigest() == VERIFY_ALL_GOLDEN[2]


COVER_RUN = """
import sys
from phcover import construction as cons

assert cons.cover_report()["passed"]
print("numpy.ma" in sys.modules)
"""


def test_cover_report_leaves_numpy_ma_unloaded():
    """A 1-D np.unique without index or inverse imports numpy.ma (numpy
    2.4), about 15 ms and 1 MB; the cover check takes its fibre sizes
    without it."""
    assert _fresh_python("-c", COVER_RUN).stdout.split()[-1] == b"False"
