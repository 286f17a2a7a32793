"""Every name that ``spai_ir`` or one of its modules exports in ``__all__`` exists."""

import importlib
import pkgutil

import spai_ir


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
