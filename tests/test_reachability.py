"""Every definition in the package is reached by a command or by the
benchmark tracer.

The walk is static and over-approximates.  Its roots are module-level code,
``cli.main`` and every name in ``perfbench/trace.py`` (read, never changed).
From a reached function or class it follows the names the body loads: a
bare name to the definition it binds in that module, directly or through an
import; ``module.name`` to that module's definition; and any other
``.attr`` to every method called ``attr``.  Methods are reached only that
way.  A reached class brings its bases, decorators, class body and dunder
methods along.
"""

import ast
from pathlib import Path

import koszuldepth

PACKAGE = Path(koszuldepth.__file__).parent
TRACER = PACKAGE.parent.parent / "perfbench" / "trace.py"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


class _Module:
    """One package module: its top-level definitions, its methods, the
    names its imports bind and its module-level statements."""

    def __init__(self, path):
        tree = ast.parse(path.read_text())
        self.defs = {}
        self.methods = {}
        self.imports = {}
        self.body = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                            self.methods[f"{node.name}.{item.name}"] = item
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    # ("module", m) for `from . import m`, else (module, name)
                    target = (node.module or "module", alias.name)
                    self.imports[alias.asname or alias.name] = target
            elif not isinstance(node, ast.Import | ast.ImportFrom):
                self.body.append(node)


def _walk_class(node):
    """The parts of a class that run with it: bases, decorators, class-level
    statements and dunder methods; not the other methods."""
    for part in (*node.bases, *node.keywords, *node.decorator_list):
        yield from ast.walk(part)
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
            yield from (d for dec in item.decorator_list for d in ast.walk(dec))
        else:
            yield from ast.walk(item)


def _unreached():
    modules = {path.stem: _Module(path) for path in sorted(PACKAGE.glob("*.py"))}

    def resolve(mod, name):
        """The (module, name) definition that ``name`` binds in ``mod``."""
        while name not in modules[mod].defs:
            target = modules[mod].imports.get(name)
            if target is None or target[0] == "module":
                return None
            mod, name = target
        return mod, name

    def refs(mod, nodes):
        for node in nodes:
            if isinstance(node, ast.Name):
                hit = resolve(mod, node.id)
                if hit:
                    yield hit
            elif isinstance(node, ast.Attribute):
                value = node.value
                target = modules[mod].imports.get(value.id) if isinstance(value, ast.Name) else None
                if target and target[0] == "module":
                    if node.attr in modules[target[1]].defs:
                        yield target[1], node.attr
                else:
                    for other, module in modules.items():
                        for qual in module.methods:
                            if qual.split(".")[1] == node.attr:
                                yield other, qual

    def body_of(mod, qual):
        module = modules[mod]
        if qual in module.methods:
            return ast.walk(module.methods[qual])
        node = module.defs[qual]
        return _walk_class(node) if isinstance(node, ast.ClassDef) else ast.walk(node)

    tracer_names = set()
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.Name):
            tracer_names.add(node.id)
        elif isinstance(node, ast.Attribute):
            tracer_names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            tracer_names.add(node.value)

    todo = [("cli", "main")]
    for mod, module in modules.items():
        todo += refs(mod, (n for stmt in module.body for n in ast.walk(stmt)))
        todo += [(mod, name) for name in module.defs if name in tracer_names]
        todo += [(mod, qual) for qual in module.methods if qual.split(".")[1] in tracer_names]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += refs(key[0], body_of(*key))
    every = {(mod, qual) for mod, m in modules.items() for qual in (*m.defs, *m.methods)}
    return sorted(every - reached)


def test_every_definition_is_reached():
    unreached = [f"{mod}.{qual}" for mod, qual in _unreached()]
    assert not unreached, f"reached by no command and not by the tracer: {unreached}"
