import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import types
import typing

import pytest

import airsense
from airsense import cli
from airsense.config import Config

# public names that only the tests call, each with the reason it stays
UNCALLED_ON_PURPOSE = {
    "focal_cls_term": "acceptance criterion 12 checks it",
    "moller_trumbore": "the per-triangle entry point the traversal's bit-identity tests use",
    "gather_conv": "the float64 reference every convolution engine is checked against",
}


def test_every_public_name_resolves():
    for info in pkgutil.iter_modules(airsense.__path__):
        module = importlib.import_module(f"airsense.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"airsense.{info.name}.__all__ lists undefined {missing}"


def test_no_module_imports_another_modules_private_names():
    for info in pkgutil.iter_modules(airsense.__path__):
        module = importlib.import_module(f"airsense.{info.name}")
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").startswith("airsense"))
                   for alias in node.names if alias.name.startswith("_")]
        assert not private, f"airsense.{info.name} imports private names {private}"


def _nodes_under(*dirs: str):
    """Every AST node of the Python files under the repository's dirs."""
    root = pathlib.Path(__file__).resolve().parents[1]
    for path in (p for d in dirs for p in (root / d).rglob("*.py")):
        yield from ast.walk(ast.parse(path.read_text()))


def _names_used_by_the_program() -> set[str]:
    """Names loaded, attributes read and names imported anywhere under src/,
    scripts/ and bench/. Definitions, __all__ strings and docstrings are not
    uses."""
    used = set()
    for node in _nodes_under("src", "scripts", "bench"):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _names_used_by_the_program()
    uncalled = [f"airsense.{info.name}.{name}"
                for info in pkgutil.iter_modules(airsense.__path__)
                for name in getattr(importlib.import_module(f"airsense.{info.name}"),
                                    "__all__", ())
                if name not in used and name not in UNCALLED_ON_PURPOSE]
    assert not uncalled, f"public names that only the tests use: {uncalled}"


# defaulted parameters and fields that no program call sets, each with the
# reason it stays
UNSET_ON_PURPOSE = {
    "build_anchor_grid.sensor_elevation": "A.2's anchors read `cfg.sensor_elevation`",
    "assign_targets.thr": "the bench sets it through its `calls` wrapper",
    "main.argv": "the tests drive the CLI through it",
}

# top-level Config fields that no command reads, each with the reason it stays
UNREAD_ON_PURPOSE = dict.fromkeys(("grid", "match", "backbone", "sensor_elevation"),
                                  "A.2 (ROADMAP carried item 3)")


def _set_by_calls(nodes) -> dict[str, tuple[int, set[str]]]:
    """For each callee name among the calls in nodes (a bare name, or the
    attribute called): the most leading positional arguments any call
    passes, and every keyword passed. A *args argument sets every position
    from its own on, and **kwargs every keyword."""
    set_by: dict[str, tuple[int, set[str]]] = {}
    for call in nodes:
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        positions = (1 << 30 if any(isinstance(a, ast.Starred) for a in call.args)
                     else len(call.args))
        keywords = {k.arg or "**" for k in call.keywords}
        seen_positions, seen_keywords = set_by.get(name, (0, set()))
        set_by[name] = (max(seen_positions, positions), seen_keywords | keywords)
    return set_by


def _config_dataclasses() -> set[type]:
    """Config and every dataclass its fields reach by declared type."""
    reached, todo = set(), [Config]
    while todo:
        cls = todo.pop()
        reached.add(cls)
        todo += [tp for tp in typing.get_type_hints(cls).values()
                 if dataclasses.is_dataclass(tp) and tp not in reached]
    return reached


def _callables():
    """(qualified name, callee name, parameters after self or cls) of each
    public src function, method, and class with its own constructor; a
    dataclass's constructor takes its init fields."""
    for info in pkgutil.iter_modules(airsense.__path__):
        module = importlib.import_module(f"airsense.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj) and "__init__" in vars(obj):
                yield name, name, list(inspect.signature(obj).parameters.values())
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_") or not isinstance(
                        member, (staticmethod, classmethod, types.FunctionType)):
                    continue
                params = list(inspect.signature(getattr(member, "__func__", member))
                              .parameters.values())
                yield (f"{name}.{attr}", attr,
                       params if isinstance(member, staticmethod) else params[1:])


@pytest.mark.parametrize("source, callee, expected", [
    ("f(a, b)", "f", (2, set())),
    ("f(a, *rest)", "f", (1 << 30, set())),
    ("f(a, k=1)", "f", (1, {"k"})),
    ("f(**opts)", "f", (0, {"**"})),
    ("obj.f(a)\nf(a, b, c)\nf(k=1)", "f", (3, {"k"})),
], ids=["positions", "starred", "keyword", "double-starred", "merged-over-calls"])
def test_set_by_calls_counts_positions_and_keywords(source, callee, expected):
    assert _set_by_calls(ast.walk(ast.parse(source)))[callee] == expected


def test_setter_guard_reads_no_call_in_the_tests():
    # posed_mesh's offset= is passed only by test calls, so to the guard it
    # is unset
    program = _set_by_calls(_nodes_under("src", "scripts", "bench"))
    assert "posed_mesh" not in program
    assert "offset" in _set_by_calls(_nodes_under("tests"))["posed_mesh"][1]


def test_every_defaulted_parameter_and_field_has_a_setter():
    """A default that no program call overrides is a constant in disguise.
    Calls in the tests do not count: an option only the tests set is a
    constant to the program. Fields of the dataclasses under Config are
    exempt, since the config loader sets them, and so are the parameters of
    the oracles that only the tests call."""
    set_by = _set_by_calls(_nodes_under("src", "scripts", "bench"))
    exempt = {cls.__name__ for cls in _config_dataclasses()} | set(UNCALLED_ON_PURPOSE)
    unset = []
    for qualname, callee, params in _callables():
        if qualname in exempt:
            continue
        positions, keywords = set_by.get(callee, (0, set()))
        unset += [f"{qualname}.{p.name}" for i, p in enumerate(params)
                  if p.default is not p.empty
                  and not (p.kind != p.KEYWORD_ONLY and i < positions)
                  and p.name not in keywords and "**" not in keywords]
    assert sorted(unset) == sorted(UNSET_ON_PURPOSE), (
        f"defaulted parameters and fields that no call sets: {sorted(unset)}; "
        f"only {sorted(UNSET_ON_PURPOSE)} may stay unset")


def test_every_nested_config_field_is_read_by_the_program():
    """Each field of a dataclass under Config is read as .<field> somewhere in
    src/ other than its own class's __post_init__, where the checks read it;
    the sections in UNREAD_ON_PURPOSE stay exempt."""
    hints = typing.get_type_hints(Config)
    exempt = {Config} | {hints[name] for name in UNREAD_ON_PURPOSE}
    nodes = list(_nodes_under("src"))
    in_check = {node: cls.name for cls in nodes if isinstance(cls, ast.ClassDef)
                for fn in cls.body if getattr(fn, "name", None) == "__post_init__"
                for node in ast.walk(fn)}
    reads = {(node.attr, in_check.get(node)) for node in nodes
             if isinstance(node, ast.Attribute)}
    unread = [f"{cls.__name__}.{f.name}" for cls in _config_dataclasses() - exempt
              for f in dataclasses.fields(cls)
              if not any(attr == f.name and owner != cls.__name__ for attr, owner in reads)]
    assert not unread, f"fields under Config that only their own checks read: {sorted(unread)}"


def test_every_config_field_is_read_by_a_command():
    """Each top-level Config field is read as cfg.<field> in the CLI."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    unread = [f.name for f in dataclasses.fields(Config) if f.name not in read]
    assert sorted(unread) == sorted(UNREAD_ON_PURPOSE), (
        f"Config fields that no command reads as cfg.<field>: {sorted(unread)}; "
        f"only {sorted(UNREAD_ON_PURPOSE)} may stay unread")
