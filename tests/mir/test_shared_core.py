"""The shared machine core (:mod:`repro.mir`) serves every target.

Two angles:

* the text parser rejects malformed structure with a
  :class:`MachineParseError` naming the line, in every target's dialect;
* a namespace guard walks every module of ``repro.mir`` and rejects any
  symbol, import or string constant that names a concrete target — the
  shared code never asks which target it serves.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import repro.mir
from repro.mir.parser import MachineParseError
from repro.targets import TARGET_NAMES
from repro.vriscv import parse_machine_function as parse_vriscv
from repro.vx86 import parse_machine_function as parse_vx86


class TestMalformedStructure:
    @pytest.mark.parametrize("parse", [parse_vx86, parse_vriscv])
    @pytest.mark.parametrize(
        "text, line",
        [
            ("f:\nframe x, abc\n.LBB0:\n  ret\n", 2),
            ("f:\nframe x\n.LBB0:\n  ret\n", 2),
            ("f:\n.LBB0:\n  ret\n.LBB0:\n  ret\n", 4),
            ("f:\n  ret\n.LBB0:\n  ret\n", 3),
        ],
    )
    def test_error_names_the_line(self, parse, text, line):
        with pytest.raises(MachineParseError) as error:
            parse(text)
        assert error.value.line == line
        assert str(error.value).startswith(f"line {line}: ")


def mir_modules():
    modules = [repro.mir]
    for info in pkgutil.iter_modules(repro.mir.__path__):
        modules.append(importlib.import_module(f"repro.mir.{info.name}"))
    return modules


class TestMirParametricity:
    """Nothing target-specific may leak into the shared machine core."""

    FORBIDDEN = ("vx86", "vriscv", "riscv", "x86")

    def test_modules_exist(self):
        names = {module.__name__ for module in mir_modules()}
        assert {"repro.mir.parser", "repro.mir.semantics"} <= names

    def test_no_target_symbols_in_namespaces(self):
        for module in mir_modules():
            for name, value in vars(module).items():
                home = getattr(value, "__module__", "") or ""
                origin = f"{module.__name__}.{name} (from {home})"
                for word in self.FORBIDDEN:
                    assert word not in name.lower(), origin
                    assert word not in home.lower(), origin

    def test_no_target_imports_or_names_in_code(self):
        """Docstrings may cite the targets; imports and string constants
        in code (what a conditional on the target would need) may not."""
        for module in mir_modules():
            tree = ast.parse(inspect.getsource(module))
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(
                    node, (ast.Module, ast.ClassDef, ast.FunctionDef)
                )
                and ast.get_docstring(node) is not None
            }
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    text = ast.unparse(node).lower()
                    for word in self.FORBIDDEN:
                        assert word not in text, (module.__name__, text)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                ):
                    assert node.value not in TARGET_NAMES, (
                        module.__name__,
                        node.value,
                    )
