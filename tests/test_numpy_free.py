"""The package in an interpreter without numpy.

numpy is the ``pinlef[arrays]`` extra: every export, every decider and the
``pinlef`` command work without it, and the array API raises an
ImportError that names the extra.  Each test runs a fresh interpreter whose
import system refuses numpy, as one without it installed would.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pinlef
from pinlef import cli

# Refuses numpy and its submodules the way a missing package is refused.
# A ``sys.modules["numpy"] = None`` entry would also block it, but other
# libraries (hypothesis among them) then fail for reasons of their own.
BLOCK_NUMPY = """
import sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoNumpy())
"""

COMMANDS = ("decide", "enumerate", "oracle", "surface-info")
KINDS = ("minus", "plus", "both")
FORMATS = ("text", "machine")
EXAMPLES = ("rp4.pinlef", "s2xrp2.pinlef", "s2xtrp2.pinlef")
# The package's modules, bottom up: each may import only those before it.
STACK = (
    "errors",
    "_record",
    "finite_linalg",
    "surfaces",
    "constraints",
    "lefschetz",
    "threefolds",
    "charclasses",
    "cli",
)


def _without_numpy(script: str) -> str:
    """Run ``script`` after BLOCK_NUMPY in a fresh interpreter, with this
    directory on its path; its stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(p for p in (src, here, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_NUMPY + script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_export_resolves():
    out = _without_numpy(
        """
import sys
import pinlef
for name in pinlef.__all__:
    getattr(pinlef, name)
print(len(pinlef.__all__), any(m.split(".")[0] == "numpy" for m in sys.modules))
"""
    )
    assert out == f"{len(pinlef.__all__)} False\n"


def _outputs(argvs: list[list[str]]) -> list[list]:
    """Exit status, stdout and stderr of ``cli.main`` on each argv."""
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        results.append([status, out.getvalue(), err.getvalue()])
    return results


def test_every_command_matches_the_output_with_numpy():
    argvs = [
        [command, str(cli.bundled_example(name)), "--kind", kind, "--format", fmt]
        for name in EXAMPLES
        for command in COMMANDS
        for kind in KINDS
        for fmt in FORMATS
    ]
    script = f"""
import json
from test_numpy_free import _outputs
print(json.dumps(_outputs({argvs!r})))
"""
    without = json.loads(_without_numpy(script))
    assert without == _outputs(argvs)
    assert all(status in (0, 1) and err == "" for status, _, err in without)


def test_the_array_api_names_the_extra_from_one_loader():
    out = _without_numpy(
        """
import traceback
import pinlef as P
calls = {
    "mat_gf2": lambda: P.mat_gf2([[1, 0]]),
    "rref_gf2": lambda: P.rref_gf2([[1, 0], [1, 1]]),
    "in_row_module_z4": lambda: P.in_row_module_z4([[1, 0]], [1, 0]),
    "z2_intersection": lambda: P.homology_presentation(
        P.orientable_surface(1)
    ).z2_intersection,
}
for name, call in calls.items():
    try:
        call()
    except ImportError as exc:
        raised_in = traceback.extract_tb(exc.__traceback__)[-1].name
        print(name, "pinlef[arrays]" in str(exc), raised_in)
    else:
        print(name, "returned")
"""
    )
    assert out.split("\n") == [
        "mat_gf2 True load_numpy",
        "rref_gf2 True load_numpy",
        "in_row_module_z4 True load_numpy",
        "z2_intersection True load_numpy",
        "",
    ]


def _relative_imports(nodes):
    """Every ``from . import`` / ``from .x import`` under the nodes, at any
    depth, except inside ``if TYPE_CHECKING:`` (its ``else`` is read)."""
    for node in nodes:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _relative_imports(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node
        yield from _relative_imports(ast.iter_child_nodes(node))


def test_every_import_points_down_the_stack():
    package = Path(cli.__file__).resolve().parent
    modules = sorted(p.stem for p in package.glob("*.py"))
    assert modules == sorted(STACK + ("__init__",))
    upward = []
    for i, name in enumerate(STACK):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in _relative_imports([tree]):
            if node.module:
                targets = [node.module.split(".")[0]]
            else:
                targets = [alias.name for alias in node.names]
            upward += [
                f"{name}.py:{node.lineno} imports {target}"
                for target in targets
                if target not in STACK[:i]
            ]
    assert upward == []


def test_enhancements_load_nothing_above_surfaces():
    out = _without_numpy(
        """
import sys
from pinlef import surfaces as sf
s = sf.non_orientable_surface(3, 1)
for kind in ("minus", "plus"):
    everything = sf.enumerate_enhancements(s, kind)
    sf.act_h1(everything[5], (1, 0, 1))
sf.base_enhancement_minus(s), sf.base_enhancement_plus(s)
print(*sorted(m for m in sys.modules if m.startswith("pinlef.")))
"""
    )
    assert out == "pinlef._record pinlef.errors pinlef.finite_linalg pinlef.surfaces\n"
