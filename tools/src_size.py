"""Print the size of the package source as one JSON line.

    python3 tools/src_size.py [PATH ...]

PATH is a directory or a ``.py`` file; the default is the repository's
``src/``.  The line reads ``{"lines": L, "settable": S, "parameters": P,
"fields": F}``:

- ``lines`` counts the newlines of every ``.py`` file, as ``wc -l`` does;
- ``parameters`` counts the function parameters that have a default,
  positional or keyword-only, over every ``def``;
- ``fields`` counts the fields with a default in every ``@dataclass``
  class: annotated assignments with a value in the class body;
- ``settable`` is ``parameters + fields``, the values a caller can set
  independently of the code.

The counts are read from the syntax tree, so comments and strings that
look like code do not count.
"""

from __future__ import annotations

import argparse
import ast
import json
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def count_source(text: str) -> dict:
    """The counts of one module's source text (``lines`` included)."""
    parameters = fields = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            parameters += len(args.defaults)
            parameters += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                          for stmt in node.body)
    return {"lines": text.count("\n"), "parameters": parameters, "fields": fields}


def count_paths(paths) -> dict:
    total = {"lines": 0, "parameters": 0, "fields": 0}
    for path in map(Path, paths):
        for f in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            for key, value in count_source(f.read_text()).items():
                total[key] += value
    return {"lines": total["lines"], "settable": total["parameters"] + total["fields"],
            "parameters": total["parameters"], "fields": total["fields"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", default=[str(SRC)])
    args = parser.parse_args(argv)
    print(json.dumps(count_paths(args.paths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
