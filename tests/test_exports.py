"""Every name that ``spai_ir`` or one of its modules exports in ``__all__``
exists, and no module imports a name it does not use."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from collections import Counter
from pathlib import Path

import spai_ir

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _modules():
    yield spai_ir
    for info in pkgutil.iter_modules(spai_ir.__path__):
        yield importlib.import_module(f"spai_ir.{info.name}")


def test_every_exported_name_resolves():
    checked = 0
    for module in _modules():
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names what it does not define: {missing}"
        checked += 1
    assert checked >= 9, checked


def _unused_imports(module) -> set[str]:
    """Names that ``module`` imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - set(getattr(module, "__all__", ()))


def test_unused_imports_are_only_the_traced_bindings():
    """A module may bind a name it does not use only for the benchmark's
    tracer, which wraps ``spai_ir.<module>.<name>`` for each of its
    ``TARGETS`` (see ``tests/test_tracer_bindings.py``)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {(module, attr) for _, _, modules, attr in tracer.TARGETS for module in modules}
    unused = {
        (module.__name__.removeprefix("spai_ir."), name)
        for module in _modules()
        for name in _unused_imports(module)
    }
    assert unused - traced == set()


def _definitions():
    """``(name, file)`` of every top-level function and class of ``spai_ir``
    and of every method that is not a dunder."""
    for path in sorted(Path(spai_ir.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield node.name, path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield item.name, path.name


def test_every_definition_is_named_elsewhere():
    """A function, class or method that nothing names besides its own
    definition is dead code (word-boundary match over the sources, tests,
    tools and the benchmark)."""
    root = TRACER.parents[1]
    text = "\n".join(
        path.read_text()
        for folder in ("src", "tests", "tools", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    )
    named = Counter(re.findall(r"\w+", text))
    defined = Counter(re.findall(r"\b(?:def|class) (\w+)", text))
    dead = [(name, file) for name, file in _definitions() if named[name] <= defined[name]]
    assert not dead, f"defined but never named elsewhere: {dead}"
