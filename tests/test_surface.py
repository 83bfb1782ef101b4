"""The package surface: every function, class and method in src has a caller,
every defaulted parameter is set by some caller, every exported name
resolves, and the README's library example runs."""

import ast
import collections
import pathlib
import re

import r2tr

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "r2tr"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _references(node):
    """Counter of the names that `node` reads as a Name or an Attribute."""
    names = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _definitions(tree):
    """(label, name, node) of each module-level function and class, and of
    each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def uncalled_definitions(src_dir, acceptance_path):
    """Labels of the definitions in src_dir/*.py (but __init__.py) whose name
    is read nowhere else in those files, is not imported or read as an
    attribute by the acceptance tests, and is not the console script `main`."""
    modules = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted(pathlib.Path(src_dir).glob("*.py"))
               if path.name != "__init__.py"}
    everywhere = sum((_references(tree) for tree in modules.values()),
                     collections.Counter())
    acceptance = ast.parse(pathlib.Path(acceptance_path).read_text())
    allowed = {"main"}
    for node in ast.walk(acceptance):
        if isinstance(node, ast.ImportFrom):
            allowed.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            allowed.add(node.attr)
    uncalled = []
    for module, tree in modules.items():
        for label, name, node in _definitions(tree):
            elsewhere = everywhere[name] - _references(node)[name]
            if elsewhere <= 0 and name not in allowed:
                uncalled.append(f"{module}:{label}")
    return uncalled


def test_every_src_definition_has_a_caller():
    # no helper stays in src that only its own unit test calls
    assert uncalled_definitions(SRC, ACCEPTANCE) == []


def _calls(trees):
    """name -> the Call nodes in trees whose callee is that Name or Attribute."""
    calls = collections.defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append(node)
    return calls


def _passes(call, index, param):
    """True if call passes param: by keyword or **, or at position index
    (None for a keyword-only parameter) or through *."""
    return (any(kw.arg in (param, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or (index is not None and len(call.args) > index))


def unset_defaults(src_dir, acceptance_path):
    """module:function(parameter) of each defaulted parameter of a src_dir/*.py
    function or method (but __init__.py's) that no call in those files or in
    the acceptance tests sets, by keyword or by position."""
    modules = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted(pathlib.Path(src_dir).glob("*.py"))
               if path.name != "__init__.py"}
    calls = _calls([*modules.values(), ast.parse(pathlib.Path(acceptance_path).read_text())])
    unset = []
    for module, tree in modules.items():
        for label, name, node in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            if "." in label:  # a method: calls do not pass self
                positional = positional[1:]
            defaulted = ([(k, a.arg) for k, a in enumerate(positional)][-len(args.defaults):]
                         if args.defaults else [])
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for index, param in defaulted:
                if not any(_passes(call, index, param) for call in calls[name]):
                    unset.append(f"{module}:{label}({param})")
    return unset


def test_every_src_default_is_set_somewhere():
    # a default that no caller overrides is a constant, not a parameter
    assert unset_defaults(SRC, ACCEPTANCE) == []


def unused_imports(src_dir):
    """module:name of each name that a src_dir/*.py module (but __init__.py)
    imports and never reads as a Name."""
    unused = []
    for path in sorted(pathlib.Path(src_dir).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}:{bound}")
    return unused


def test_every_src_import_is_read():
    assert unused_imports(SRC) == []


def test_public_names_resolve():
    assert len(set(r2tr.__all__)) == len(r2tr.__all__)
    assert [name for name in r2tr.__all__ if not hasattr(r2tr, name)] == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    traj = namespace["traj"]
    # the pi pulse inverts I; two exchange periods on the match swap the
    # polarizations back and forth
    assert traj.iz[0] < -0.45
    assert traj.iz.max() > 0.45
