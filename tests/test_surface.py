"""The library ships only what its entry points reach, and the README's
quick start runs.

Every public top-level function and class of `src/rdibeams` must be
referenced from another library module, from its own module outside its
own body, from `bench/workloads.py` or from the README quick start; the
console script counts for the function it names.  `__init__`'s re-exports
reach nothing by themselves."""
import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rdibeams"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
DEFS = (ast.FunctionDef, ast.ClassDef)


def quick_start() -> str:
    """The fenced python block under the README's quick-start heading."""
    section = (ROOT / "README.md").read_text().split("## Library quick start")[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def references(code: str) -> set[tuple[str, str]]:
    """(module, name) of every library name `code` imports from a library
    module or from the package's re-exports, or reads off a name bound to a
    library module."""
    exports = {alias.name: node.module for node in ast.parse(
        (PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    tree, aliases, found = ast.parse(code), {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level and module.split(".")[0] != "rdibeams":
                continue
            path = module.removeprefix("rdibeams").removeprefix(".")
            for alias in node.names:
                if path:
                    found.add((path, alias.name))
                elif alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif alias.name in exports:
                    found.add((exports[alias.name], alias.name))
        elif isinstance(node, ast.Import):
            aliases.update({alias.asname: alias.name.split(".")[1]
                            for alias in node.names if alias.asname
                            and alias.name.startswith("rdibeams.")})
    return found | {(aliases[node.value.id], node.attr)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases}


def own_uses(module: str) -> set[tuple[str, str]]:
    """The names a module uses outside the body of the def they name."""
    return {(module, node.id)
            for stmt in ast.parse((PACKAGE / f"{module}.py").read_text()).body
            for node in ast.walk(stmt) if isinstance(node, ast.Name)
            and not (isinstance(stmt, DEFS) and node.id == stmt.name)}


def test_every_public_name_is_reached_from_an_entry_point():
    scripts = re.findall(r'=\s*"rdibeams\.(\w+):(\w+)"',
                         (ROOT / "pyproject.toml").read_text())
    reached = {*scripts, *references(quick_start()),
               *references((ROOT / "bench" / "workloads.py").read_text())}
    for module in MODULES:
        reached |= own_uses(module) | {
            ref for ref in references((PACKAGE / f"{module}.py").read_text())
            if ref[0] != module}
    assert ("cli", "main") in reached
    unreached = [f"{module}.{stmt.name}" for module in MODULES
                 for stmt in ast.parse((PACKAGE / f"{module}.py").read_text())
                 .body if isinstance(stmt, DEFS)
                 and not stmt.name.startswith("_")
                 and (module, stmt.name) not in reached]
    assert unreached == []


def test_float_path_is_confined_to_the_laguerre_function():
    # every closed form is numpy code taking a float as its one-point case;
    # the one branch on a float argument is the two-float recurrence of
    # `specialfn.laguerre_function`, which the closed-form streamline
    # right-hand side reaches one point at a time
    branches = {(module, getattr(stmt, "name", None)) for module in MODULES
                for stmt in ast.parse((PACKAGE / f"{module}.py").read_text())
                .body for node in ast.walk(stmt)
                if isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Name)
                and node.left.func.id == "type"
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(node.comparators[0], ast.Name)
                and node.comparators[0].id == "float"}
    assert branches == {("specialfn", "laguerre_function")}


def test_readme_quick_start_runs():
    exec(compile(quick_start(), "README.md quick start", "exec"), {})


FAMILY_SETS = {"DRESSED_BASE", "MAGNETIC_FAMILIES", "SINGULAR_ON_AXIS"}


def family_reads(node) -> set[str]:
    """The `Family` members and the family sets of `catalog` that node
    reads, by name, bare or through a module."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            owner = sub.value
            if getattr(owner, "id", getattr(owner, "attr", None)) == "Family":
                found.add(sub.attr)
            elif sub.attr in FAMILY_SETS:
                found.add(sub.attr)
        elif isinstance(sub, ast.Name) and sub.id in FAMILY_SETS:
            found.add(sub.id)
    return found


def test_families_are_told_apart_by_the_table_alone():
    # every fact that tells the stationary families apart is a record of
    # `catalog._FAMILIES`, so no comparison reads a family member or a
    # family set, but for these: a test of whether a family is dressed
    # (`in DRESSED_BASE`), the `applies` of a row of `verify.CHECKS`, and
    # `verify.proper_time_average`
    compares = set()
    for module in MODULES:
        for stmt in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            applies = {id(sub) for node in ast.walk(stmt)
                       if isinstance(node, ast.keyword)
                       and node.arg == "applies"
                       for sub in ast.walk(node.value)}
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Compare) or id(node) in applies:
                    continue
                reads = set().union(*map(family_reads,
                                         [node.left, *node.comparators]))
                dressed = reads == {"DRESSED_BASE"} and all(
                    isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
                if reads and not dressed:
                    compares.add((module, getattr(stmt, "name", None)))
    assert compares == {("verify", "proper_time_average")}


def module_names(tree, package: str) -> set[str]:
    """The names the code of tree binds to a module, anywhere in it:
    `import x [as y]`, and `from p import m` where p's attribute m is a
    module (a library module once it is imported)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            source = importlib.import_module(
                "." * node.level + (node.module or ""), package)
            names |= {a.asname or a.name for a in node.names
                      if inspect.ismodule(getattr(source, a.name, None))}
    return names


def test_no_library_module_rebinds_an_attribute_of_a_module():
    # a negative control is a hook on a spec's closed forms, not a patch of
    # the library: no module assigns to an attribute of a name bound to a
    # module, and none calls setattr, but for the frozen SolutionSpec's
    # object.__setattr__ in its own __post_init__
    found = []
    for module in MODULES:
        importlib.import_module(f"rdibeams.{module}")
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = module_names(tree, "rdibeams")
        allowed = {id(node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef)
                   and cls.name == "SolutionSpec"
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)
                   and fn.name == "__post_init__" for node in ast.walk(fn)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "__setattr__"
                   and getattr(node.func.value, "id", None) == "object"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed and (
                    getattr(node.func, "id", None) == "setattr"
                    or getattr(node.func, "attr", None) == "__setattr__"):
                found.append(f"{path.name}:{node.lineno}")
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target] if isinstance(node, (
                    ast.AugAssign, ast.AnnAssign, ast.For)) else []
            while any(isinstance(t, (ast.Tuple, ast.List, ast.Starred))
                      for t in targets):  # unpacked: each element a target
                targets = [e for t in targets for e in (
                    t.elts if isinstance(t, (ast.Tuple, ast.List))
                    else [t.value] if isinstance(t, ast.Starred) else [t])]
            found += [f"{path.name}:{t.lineno}" for t in targets
                      if isinstance(t, ast.Attribute)
                      and isinstance(t.value, ast.Name)
                      and t.value.id in modules]
    assert found == []
