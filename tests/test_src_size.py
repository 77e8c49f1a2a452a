"""``tools/src_size.py`` counts lines and settable values over the syntax tree."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"

MODULE = '''"""def fake(a=1): a string is not code"""
import dataclasses
from dataclasses import dataclass
from typing import ClassVar


def f(a, b=1, *args, c, d=2, e=None, **kw):  # 3 defaults
    def inner(x=0, /, y=1):  # 2 defaults
        return lambda z=3: z  # a lambda is not a def
    return inner


@dataclass(frozen=True)
class A:
    x: float = 1.0  # 2 fields with a default
    y: int
    z: tuple = ()
    w = 5  # not annotated: not a field

    def m(self, k=4):  # 1 default
        return k


@dataclasses.dataclass
class B:
    u: float = 0.0  # 1 field


class C:
    v: float = 0.0  # not a dataclass
'''


@pytest.fixture(scope="module")
def src_size():
    spec = importlib.util.spec_from_file_location("src_size", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_a_module_of_known_size(src_size, tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(MODULE)
    (pkg / "empty.py").write_text("")
    (pkg / "notes.txt").write_text("def g(a=1): pass\n")
    assert src_size.main([str(pkg)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {"lines": MODULE.count("\n"), "settable": 9, "parameters": 6, "fields": 3}


def test_files_and_directories_add_up(src_size, tmp_path):
    (tmp_path / "a.py").write_text("def f(x=1):\n    pass\n")
    (tmp_path / "b.py").write_text("def g(*, y=2, z):\n    pass\n")
    got = src_size.count_paths([tmp_path / "a.py", tmp_path / "b.py"])
    assert got == src_size.count_paths([tmp_path])
    assert got == {"lines": 4, "settable": 2, "parameters": 2, "fields": 0}
