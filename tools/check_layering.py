#!/usr/bin/env python3
"""Layering lint: enforce the import direction of the IR refactor.

The canonical construction path (docs/ir.md) layers the package as::

    repro.graph / repro.ir          (topology + lowered IR: no upward imports)
        -> repro.lid / repro.skeleton / repro.analysis   (backends)
        -> repro.exec / repro.inject                     (execution)
        -> repro.cli                                     (frontend)

Rules enforced here (each rule: *source prefix* must not import any of
the *forbidden prefixes*):

* ``repro.graph`` and ``repro.ir`` must not import ``repro.lid``,
  ``repro.skeleton`` or ``repro.cli`` — lowerings reach backends only
  through the string-keyed :mod:`repro._registry` service locator;
* ``repro.exec`` must not import ``repro.cli`` — workers materialize
  :class:`~repro.exec.graphs.GraphRef` via ``repro.graph.specs``;
* ``repro.serve`` must not import ``repro.cli`` — the campaign service
  replicates CLI semantics through the same engine entry points, never
  by calling back into the argparse frontend;
* ``repro.skeleton.codegen`` consumes only ``repro.ir`` (its input is
  a :class:`~repro.ir.LoweredSystem`) besides its own package — not
  ``repro.lid`` (the variant is duck-typed), not ``repro.exec``, and
  nothing above;
* ``repro.kernel`` knows components and signals only — no protocol
  layer (``repro.lid`` hands it a settle order, never a notion of
  stop) and nothing above; ``repro.errors`` and ``repro.obs`` stay
  allowed;
* no module of ``repro`` imports ``numpy`` or ``networkx`` — the
  runtime is stdlib-only and both are test oracles.  The one exemption
  is the lazy networkx import inside ``SystemGraph.to_networkx``.

A rule may carve out *allowed* sub-prefixes of a forbidden prefix
(e.g. ``repro.exec.cache`` inside a forbidden ``repro.exec``).

The walk covers *every* ``import``/``from ... import`` statement in the
AST — module level, function level, ``TYPE_CHECKING`` blocks — because
lazy imports are exactly how layering violations sneak in.  Relative
imports are resolved against the module's package before matching.

Exit status 0 when clean; 1 with one line per violation otherwise.
Run from anywhere: ``python tools/check_layering.py``.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: (source module prefix, forbidden module prefixes, allowed
#: sub-prefixes that override a forbidden match)
RULES: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("repro.graph", ("repro.lid", "repro.skeleton", "repro.cli"), ()),
    ("repro.ir", ("repro.lid", "repro.skeleton", "repro.cli"), ()),
    ("repro.exec", ("repro.cli",), ()),
    ("repro.serve", ("repro.cli",), ()),
    ("repro.skeleton.codegen",
     ("repro.lid", "repro.exec", "repro.inject", "repro.obs",
      "repro.analysis", "repro.bench", "repro.cli"), ()),
    ("repro.kernel",
     ("repro.lid", "repro.inject", "repro.graph", "repro.ir",
      "repro.skeleton", "repro.rtl", "repro.verify", "repro.analysis",
      "repro.exec", "repro.serve", "repro.bench", "repro.cli"), ()),
)


#: Packages the runtime must not import (the ``test`` extra has them).
THIRD_PARTY = ("numpy", "networkx")
#: (module, function) -> the package that function may import lazily.
THIRD_PARTY_EXEMPT = {("repro.graph.model", "to_networkx"): "networkx"}


def _module_name(path: str) -> str:
    rel = os.path.relpath(path, SRC_ROOT)
    parts = rel[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve_relative(module: str, level: int, target: str) -> str:
    """Absolute module named by ``from <level dots><target> import ...``."""
    parts = module.split(".")
    # A module's imports resolve against its package: repro.graph.model
    # with level=1 means repro.graph; level=2 means repro.
    base = parts[:len(parts) - level]
    return ".".join(base + ([target] if target else []))


def _imports(path: str, module: str) -> Iterator[Tuple[int, str]]:
    """Every module imported anywhere in *path*, with its line number."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(module, node.level,
                                         node.module or "")
                yield node.lineno, base
                # "from . import skeleton" imports the submodule too.
                for alias in node.names:
                    yield node.lineno, f"{base}.{alias.name}"
            elif node.module:
                yield node.lineno, node.module
                for alias in node.names:
                    yield node.lineno, f"{node.module}.{alias.name}"


def _matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def _exempt_lines(path: str, module: str) -> Dict[int, str]:
    """Line -> third-party package allowed there (exempt functions)."""
    functions = {function: package
                 for (owner, function), package in THIRD_PARTY_EXEMPT.items()
                 if owner == module}
    if not functions:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines: Dict[int, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in functions:
            for line in range(node.lineno, node.end_lineno + 1):
                lines[line] = functions[node.name]
    return lines


def check_file(path: str, module: str) -> List[str]:
    """Violations in one module."""
    violations: List[str] = []
    active = [(forbidden, allowed)
              for source, forbidden, allowed in RULES
              if _matches(module, source)]
    exempt = _exempt_lines(path, module)
    rel = os.path.relpath(path, REPO_ROOT)
    for lineno, imported in _imports(path, module):
        for package in THIRD_PARTY:
            if _matches(imported, package) and exempt.get(lineno) != package:
                violations.append(
                    f"{rel}:{lineno}: {module} imports {imported} "
                    f"(the runtime is stdlib-only; {package} is a "
                    f"test oracle)")
        for forbidden, allowed in active:
            if any(_matches(imported, p) for p in allowed):
                continue
            hits = [p for p in forbidden if _matches(imported, p)]
            for prefix in hits:
                violations.append(
                    f"{rel}:{lineno}: {module} imports "
                    f"{imported} (layer {prefix} is above it; "
                    f"use repro._registry)")
    return violations


def check() -> List[str]:
    violations: List[str] = []
    for dirpath, _dirnames, filenames in sorted(os.walk(SRC_ROOT)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            violations.extend(check_file(path, _module_name(path)))
    return sorted(set(violations))


def main() -> int:
    violations = check()
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
