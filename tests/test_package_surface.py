"""The package carries no function, class or parameter that only tests reach.

Every top-level def and class in ``src/qqual`` must be named somewhere in
the package (as a name, an attribute or an import), unless it is one of
the few kept for tests on purpose, each with its reason below.  Method
names are not checked: they collide too often with unrelated attributes
to be told apart statically.

Every defaulted parameter of a top-level function must likewise be passed,
by keyword or by position, at some call site in the package or in the
benchmark under ``perfbench/``; a parameter that every caller leaves at its
default is a constant.

Every name a module assigns at its top level (a constant, say) must be
read somewhere in the package or in ``perfbench/``.

Every value a construction can set (a defaulted ``__init__`` parameter,
or a dataclass field with ``init=True``) must be passed at some
construction in the package or in ``perfbench/``, by keyword or by
position, or be stored into from outside the object (``obj.f = ...`` or
``obj.f[k] = ...``); a field that nothing sets is a constant.

Every config key in ``cli.DEFAULTS`` must be read as ``config["key"]``
somewhere in ``cli.py``; a key that no command reads is a setting that
does nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qqual"
BENCHMARK = ROOT / "perfbench"

# name -> why tests need it in the package; empty since the simulator's
# reference implementations moved to tests/qsim_oracles.py
KEPT_FOR_TESTS = {}

# (function, parameter) pairs that only tests pass, each with its reason
PARAMS_KEPT_FOR_TESTS = {
    ("heatmap", "max_cells"): "tests shrink it so that grids of a few dozen cells "
                              "exercise the block merging that a 200-cell map needs",
}


def unreferenced_top_level_names():
    defined = []
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted((module, name) for module, name in defined if name not in referenced)


def test_every_top_level_name_is_used_by_the_package():
    unused = unreferenced_top_level_names()
    assert [f"{module}:{name}" for module, name in unused
            if name not in KEPT_FOR_TESTS] == []


def test_kept_names_are_still_test_only():
    # a kept name that the package now uses, or that is gone, leaves the list
    unused = {name for _, name in unreferenced_top_level_names()}
    assert sorted(set(KEPT_FOR_TESTS) - unused) == []


def _assigned_names(tree):
    """Names the module assigns at its top level, dunders aside."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and not sub.id.startswith("__"):
                    yield sub.id


def _read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unread_module_names(package=PACKAGE, benchmark=BENCHMARK):
    assigned = []
    read = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assigned += [(path.name, name) for name in _assigned_names(tree)]
        read.update(_read_names(tree))
    for path in sorted(benchmark.glob("*.py")):
        read.update(_read_names(ast.parse(path.read_text(), filename=str(path))))
    return sorted({(module, name) for module, name in assigned if name not in read})


def test_every_module_level_name_is_read():
    assert [f"{module}:{name}" for module, name in unread_module_names()] == []


def _defaulted_args(args, skip=0):
    """(parameter, position or None) of every defaulted parameter; the
    first ``skip`` positional parameters (``self``) take no position."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _defaulted_params(tree):
    """(function, parameter, position or None) of every defaulted parameter
    of the module's top-level functions."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for param, pos in _defaulted_args(node.args):
                yield node.name, param, pos


def _passed_params(tree):
    """(callee name, parameter name or positional count) of every call; a
    call that unpacks *args or **kwargs may pass anything ("*")."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        yield name, len(node.args)
        for kw in node.keywords:
            yield name, "*" if kw.arg is None else kw.arg
        if any(isinstance(a, ast.Starred) for a in node.args):
            yield name, "*"


def _never_passed(settable, passed):
    """The (module, callee, parameter) of ``settable`` that no call in
    ``passed`` sets, by keyword or by position."""
    counts = {}
    for name, what in passed:
        if isinstance(what, int):
            counts[name] = max(counts.get(name, 0), what)
    return sorted((module, fn, param) for module, fn, param, pos in settable
                  if (fn, param) not in passed and (fn, "*") not in passed
                  and (pos is None or counts.get(fn, 0) <= pos))


def params_no_caller_sets(package=PACKAGE, benchmark=BENCHMARK):
    defaulted = []
    passed = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defaulted += [(path.name, *entry) for entry in _defaulted_params(tree)]
        passed.update(_passed_params(tree))
    for path in sorted(benchmark.glob("*.py")):
        passed.update(_passed_params(ast.parse(path.read_text(), filename=str(path))))
    return _never_passed(defaulted, passed)


def test_every_defaulted_parameter_is_passed_by_some_caller():
    unset = params_no_caller_sets()
    assert [f"{module}:{fn}({param})" for module, fn, param in unset
            if (fn, param) not in PARAMS_KEPT_FOR_TESTS] == []


def test_kept_params_are_still_test_only():
    unset = {(fn, param) for _, fn, param in params_no_caller_sets()}
    assert sorted(set(PARAMS_KEPT_FOR_TESTS) - unset) == []


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _takes_init(stmt):
    """False for a field declared ``field(init=False)``."""
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return not any(kw.arg == "init" and getattr(kw.value, "value", True) is False
                       for kw in value.keywords)
    return True


def _settable_fields(tree):
    """(class, field or parameter, position or None) of every value a
    construction of a top-level class can set."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_dataclass(node):
            fields = [stmt.target.id for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                      and _takes_init(stmt)]
            for i, name in enumerate(fields):
                yield node.name, name, i
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                for param, pos in _defaulted_args(stmt.args, skip=1):
                    yield node.name, param, pos


def _stored_attributes(tree):
    """Attribute names stored into from outside the object: ``obj.f = ...``
    or ``obj.f[k] = ...``, where obj is not ``self``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in getattr(target, "elts", [target]):
                if isinstance(sub, ast.Subscript):
                    sub = sub.value
                if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) != "self":
                    yield sub.attr


def fields_no_construction_sets(package=PACKAGE, benchmark=BENCHMARK):
    settable = []
    passed = set()
    stored = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        settable += [(path.name, *entry) for entry in _settable_fields(tree)]
        passed.update(_passed_params(tree))
        stored.update(_stored_attributes(tree))
    for path in sorted(benchmark.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        passed.update(_passed_params(tree))
        stored.update(_stored_attributes(tree))
    return [(module, cls, name) for module, cls, name in _never_passed(settable, passed)
            if name not in stored]


def test_every_field_is_set_by_some_construction():
    assert [f"{module}:{cls}.{name}"
            for module, cls, name in fields_no_construction_sets()] == []


def test_field_rule_flags_only_fields_nothing_sets(tmp_path):
    package, benchmark = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    benchmark.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass\nclass Rec:\n"
        "    a: int\n    b: int = 0\n    c: dict = field(default_factory=dict)\n"
        "    d: int = field(init=False)\n    unset: str = 'x'\n\n\n"
        "class Canvas:\n"
        "    def __init__(self, w, h=1, bg='white'):\n        self.bg = bg\n\n\n"
        "def use():\n"
        "    r = Rec(1, 2)\n    r.c['k'] = 3\n    return r, Canvas(1, 2)\n")
    assert fields_no_construction_sets(package, benchmark) == [
        ("mod.py", "Canvas", "bg"), ("mod.py", "Rec", "unset")]


def config_keys_never_read():
    """(command, key) of every DEFAULTS entry that cli.py never reads as
    ``config["key"]``."""
    from qqual import cli

    tree = ast.parse((PACKAGE / "cli.py").read_text())
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "config"
            and isinstance(node.slice, ast.Constant)}
    return sorted((command, key) for command, block in cli.DEFAULTS.items()
                  for key in block if key not in read)


def test_every_config_key_is_read():
    assert [f"{command}.{key}" for command, key in config_keys_never_read()] == []
