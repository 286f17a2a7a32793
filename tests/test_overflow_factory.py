"""The range rule stays in one place: only :func:`spai_ir.precision.overflow`
makes a ``PrecisionOverflowSignal``, so every message reads ``overflow in
<what> in <precision>``, and no module defines a second overflow error."""

import ast
from pathlib import Path

import spai_ir
from spai_ir.precision import HALF, PrecisionOverflowSignal, overflow

NAME = PrecisionOverflowSignal.__name__
SOURCES = sorted(Path(spai_ir.__file__).parent.glob("*.py"))


def _makes_the_signal(node) -> bool:
    """Whether ``node`` calls ``PrecisionOverflowSignal`` or raises the bare class."""
    target = node.func if isinstance(node, ast.Call) else node.exc if isinstance(node, ast.Raise) else None
    return (isinstance(target, ast.Name) and target.id == NAME) or (
        isinstance(target, ast.Attribute) and target.attr == NAME)


def test_only_the_factory_makes_the_signal():
    inside, outside = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        factory = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and (path.name, func.name) == ("precision.py", "overflow")
                   for node in ast.walk(func)}
        for node in ast.walk(tree):
            if _makes_the_signal(node):
                (inside if id(node) in factory else outside).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 1, inside
    assert not outside, f"PrecisionOverflowSignal made outside precision.overflow: {outside}"


def test_no_module_defines_a_second_overflow_error():
    classes = [f"{path.name}:{node.name}" for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) and "Overflow" in node.name]
    assert classes == [f"precision.py:{NAME}"], classes


def test_the_factory_names_the_step_and_the_precision():
    err = overflow(HALF, "the update")
    assert isinstance(err, PrecisionOverflowSignal) and isinstance(err, ArithmeticError)
    assert str(err) == "overflow in the update in half"
