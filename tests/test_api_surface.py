"""No dead API: every public name in the package is used.

A public function or class defined at module level in src/bohmlab/*.py
(other than __init__.py) must be named somewhere outside its own
definition: in another module of the package, elsewhere in its own
module, or in a demo.  Re-exports in __init__.py do not count, since a
name that only __init__ lists is still run by no task, criterion or demo.

One level down, a public method or property of such a class must be
named as an attribute, `.name`, outside its own definition in the same
places.  The match is by name, not by type, so a member that shares its
name with a used attribute of another object passes.  Keywords and
dataclass fields are out of scope.

Across modules, no src module or demo imports an `_`-private name from a
bohmlab module other than itself: a private helper another module needs
is public API and carries a public name.

An Evolution holds the grid, potential (with its charge), mass, hbar,
step and window that made it.  So a public function of bohm, intrinsics
or weakval that takes an Evolution takes none of these again, where a
value that disagreed with the evolution would give a wrong answer
silently.

A config's propagator section has exactly the fields of PropagatorConfig,
so a knob cannot stay in one after it has left the other.

In harness, only the propagate task, which writes every frame, names
evolve_store: every other task streams its frames (evolve_stream) and
holds no (nt, n) record.  No harness definition names
integrate_trajectories either: every Bohmian task reads rk4_frames as it
yields and holds no (nt, N) position record.  Nor does one name
dwell_operator_field or dwell_operator_state: the dwell task's weak value
comes from the frame loop's window overlaps, with no backward sweep.

A qgrid.Evolution has one mode: only __init__ tells an (nt, n) record
from an iterable of frames, and no other method branches on which one
made it.  It keeps no record of chosen grid columns: a stream keeps no
frame, and the dwell readers take the window rows its frame loop made.

qgrid sits below bohm: it names nothing bohm defines, and an Evolution
holds no velocity field.  The RK4 pass builds the field it reads and
holds it, so bohm needs no weak reference to break a cycle.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from bohmlab import PropagatorConfig, harness

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "bohmlab").glob("*.py")
                 if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def _definitions(source):
    """(label, pattern, first line, last line) of each public definition:
    top-level functions and classes, and the methods of public classes."""
    defs = []
    for node in _public(ast.parse(source).body, (ast.FunctionDef, ast.ClassDef)):
        defs.append((node.name, rf"\b{re.escape(node.name)}\b",
                     node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{method.name}",
                      rf"\.{re.escape(method.name)}\b",
                      method.lineno, method.end_lineno)
                     for method in _public(node.body, ast.FunctionDef)]
    return defs


def _unreferenced():
    sources = {p: p.read_text() for p in MODULES + DEMOS}
    dead = []
    for module in MODULES:
        lines = sources[module].splitlines()
        for label, pattern, first, last in _definitions(sources[module]):
            regex = re.compile(pattern)
            own_rest = "\n".join(lines[:first - 1] + lines[last:])
            others = (text for path, text in sources.items() if path != module)
            if not any(regex.search(text) for text in (own_rest, *others)):
                dead.append(f"{module.stem}.{label}")
    return dead


def _private_imports():
    """`file: from X import _name` for each private name that a src module
    or demo imports from a bohmlab module (dunders such as __version__
    are public)."""
    found = []
    for path in [*(ROOT / "src" / "bohmlab").glob("*.py"), *DEMOS]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.level or node.module.split(".")[0] == "bohmlab")):
                continue
            found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                      f"import {alias.name}" for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.endswith("__")]
    return found


# Parameters that repeat what an Evolution holds, by annotation or by name.
_REPEATED_TYPES = re.compile(r"\b(PotentialModel|PropagatorConfig)\b")
_REPEATED_NAMES = {"charge", "mass", "hbar", "region"}
# The one exception: perfbench/tracer.py binds this cfg, which the function
# does not read; it goes with the benchmark revision (ROADMAP item 1).
REPEATS_ALLOWED = ["weakval.dwell_operator_field(cfg)"]


def _repeated_inputs():
    """`module.function(parameter)` for each parameter of a public function
    of bohm, intrinsics or weakval that repeats its Evolution parameter."""
    found = []
    for name in ("bohm", "intrinsics", "weakval"):
        tree = ast.parse((ROOT / "src" / "bohmlab" / f"{name}.py").read_text())
        for fn in _public(tree.body, ast.FunctionDef):
            params = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
            notes = {p.arg: ast.unparse(p.annotation) if p.annotation else ""
                     for p in params}
            if any(re.search(r"\bEvolution\b", note) for note in notes.values()):
                found += [f"{name}.{fn.name}({arg})" for arg, note in notes.items()
                          if arg in _REPEATED_NAMES or _REPEATED_TYPES.search(note)]
    return found


def test_modules_found():
    assert MODULES and DEMOS  # an empty glob would pass vacuously


def test_every_public_name_is_used():
    assert _unreferenced() == []


def test_no_private_name_crosses_modules():
    assert _private_imports() == []


def test_evolution_consumers_take_nothing_it_holds():
    assert _repeated_inputs() == REPEATS_ALLOWED


def test_propagator_defaults_are_the_config_fields():
    assert (set(harness.DEFAULTS["propagator"])
            == {field.name for field in fields(PropagatorConfig)})


def _definitions_naming(module, name):
    """The top-level definitions of a src module (or "<module level>") that
    name `name`, bare or as an attribute; an import does not count."""
    tree = ast.parse((ROOT / "src" / "bohmlab" / f"{module}.py").read_text())
    return [getattr(top, "name", "<module level>") for top in tree.body
            if any(isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Attribute) and node.attr == name
                   for node in ast.walk(top))]


def test_only_the_propagate_task_stores_frames():
    assert _definitions_naming("harness", "evolve_store") == ["_task_propagate"]


def test_no_task_collects_the_position_record():
    # harness still imports the name: perfbench/tracer.py wraps it
    assert _definitions_naming("harness", "integrate_trajectories") == []


@pytest.mark.parametrize("name", ["dwell_operator_field",
                                  "dwell_operator_state"])
def test_no_task_sweeps_backward(name):
    # harness still imports dwell_operator_field: perfbench/tracer.py wraps it
    assert _definitions_naming("harness", name) == []


def test_evolution_has_one_mode():
    tree = ast.parse((ROOT / "src" / "bohmlab" / "qgrid.py").read_text())
    [cls] = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "Evolution"]
    asks_type = [fn.name for fn in cls.body
                 if isinstance(fn, ast.FunctionDef) and fn.name != "__init__"
                 and any(isinstance(node, ast.Call)
                         and ast.unparse(node.func) == "isinstance"
                         for node in ast.walk(fn))]
    assert asks_type == []
    assert [node.lineno for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and node.attr in ("_stored", "_columns")
            or isinstance(node, ast.Name)
            and node.id in ("_stored", "_columns")] == []


def _names(tree):
    """Every name a tree uses or imports, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
            | {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names})


def test_qgrid_sits_below_bohm():
    source = {name: ast.parse((ROOT / "src" / "bohmlab" / f"{name}.py")
                              .read_text()) for name in ("bohm", "qgrid")}
    defined = {target.id for node in source["bohm"].body
               for target in getattr(node, "targets", [])
               if isinstance(target, ast.Name)}
    defined |= {node.name for node in source["bohm"].body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    qgrid_names = _names(source["qgrid"])
    assert sorted(defined & qgrid_names) == []
    assert "bohm" not in qgrid_names
    [evolution] = [node for node in source["qgrid"].body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "Evolution"]
    assert "velocity" not in _names(evolution) | {
        node.name for node in evolution.body
        if isinstance(node, ast.FunctionDef)}
    assert "weakref" not in _names(source["bohm"])


def _is_numpy_import(node):
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "numpy" for alias in node.names)


def test_openblas_pin_runs_first():
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, so the
    # pin in __init__.py comes before any code: only the docstring and the
    # os/sys imports it reads precede it, and every `from . import` (whose
    # modules import numpy) follows it
    body = ast.parse((ROOT / "src" / "bohmlab" / "__init__.py").read_text()).body
    pins = [i for i, node in enumerate(body) if isinstance(node, ast.If)
            and "OPENBLAS_NUM_THREADS" in ast.unparse(node.test)
            and any(_is_numpy_import(n) for n in ast.walk(node))]
    assert len(pins) == 1
    before, after = body[:pins[0]], body[pins[0] + 1:]
    assert all(isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
               or isinstance(node, ast.Import)
               and {a.name for a in node.names} <= {"os", "sys"}
               for node in before)
    relative = [node for node in body
                if isinstance(node, ast.ImportFrom) and node.level]
    assert relative and all(node in after for node in relative)
