"""Determinism linter: an AST pass over the registered code paths.

Byte-identical records and the content-addressed result store (PR 5's ~54x
warm resumes) both rest on one invariant: **everything between a spec and
its record is a pure function of the spec**.  This linter walks the AST of
every module on a registered code path — scenario families, strategy and
stage factories, the simulator (``sim/engine.py``, ``sim/fastpath.py``), the
geometry/graphs/network layers they call into — and flags the constructs
that break the invariant:

* ``det-unseeded-random`` — module-level :mod:`random` calls
  (``random.random()``, ``random.shuffle(...)``, a bare ``from random
  import shuffle``): process-global state, unseeded by the spec.  The seeded
  idiom ``random.Random(seed)`` is allowed;
* ``det-global-np-random`` — legacy global-state numpy RNG calls
  (``np.random.rand``, ``np.random.seed``, ``np.random.shuffle``, ...).
  The repo's seeded idioms — ``np.random.default_rng(seed)``,
  ``np.random.Generator``, ``np.random.SeedSequence`` and the bit
  generators — are allowed;
* ``det-wall-clock`` — ``time.time()`` / ``time.perf_counter()`` /
  ``datetime.now()`` and friends: records must never depend on when they
  were computed.  The :mod:`repro.obs` package carries a first-class
  allowance for this rule (see :data:`SCOPED_ALLOWANCES`): its spans time
  stages by design, and its byte-invisibility is proven differentially;
* ``det-set-iteration`` — ``for x in {...}`` / comprehensions directly over
  ``set(...)``: iteration order is undefined, so anything built from it
  (plan legs, record rows) is load-order lottery.  Wrap in ``sorted(...)``;
* ``det-env-branch`` — ``os.environ`` / ``os.getenv`` reads: the same spec
  must produce the same record on every machine.  Byte-invisible switches
  (the geometry cache toggle) carry an inline ``# repro: allow[...]``.

The linter is deliberately syntactic: it never imports the modules it
checks, so fixture files full of seeded violations are safe to analyze.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.registry_contract import relative_to_repo

__all__ = [
    "DEFAULT_SCOPE",
    "SCOPED_ALLOWANCES",
    "scope_files",
    "check_determinism",
    "lint_source",
]

#: Packages (and top-level modules) under ``repro`` whose code is reachable
#: from registered factories or the simulator: the registered code paths.
#: ``registry`` is the module every registry lookup runs through, and
#: ``switches`` holds the one environment read that picks their code paths.
#: ``service`` is in scope because the serve daemon promises byte identity
#: with CLI execution — a wall clock or environment branch anywhere on its
#: path would break it.
DEFAULT_SCOPE: tuple[str, ...] = (
    "baselines",
    "core",
    "geometry",
    "graphs",
    "network",
    "obs",
    "planning",
    "registry",
    "scenarios",
    "service",
    "sim",
    "switches",
    "workloads",
)

#: First-class per-package allowances: ``package -> rule ids`` whose findings
#: are dropped for files under ``repro/<package>/``.  The observability
#: registry (:mod:`repro.obs`) *exists* to read the clock — its spans time
#: stages by design, and its byte-invisibility is proven by differential
#: tests, not by avoiding ``perf_counter`` — so the wall-clock rule does not
#: apply there.  A scoped allowance beats sprinkling inline suppressions on
#: every timing line: the policy is declared once, here, and every other
#: rule (env branches, unseeded RNGs, set iteration) still applies to obs
#: in full.
SCOPED_ALLOWANCES: dict[str, frozenset[str]] = {
    "obs": frozenset({"det-wall-clock"}),
}

#: Seeded / explicitly-deterministic numpy RNG entry points.
_NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Seeded stdlib RNG constructors.
_STDLIB_RANDOM_ALLOWED = frozenset({"Random"})

_CLOCK_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime",
})
_DATETIME_CLOCK_METHODS = frozenset({"now", "utcnow", "today"})
_DATETIME_CLASSES = frozenset({"datetime", "date"})


def scope_files(scope: "Iterable[str] | None" = None) -> list[Path]:
    """Every ``.py`` file of the registered-code-path packages and modules, sorted."""
    import repro

    package_root = Path(repro.__file__).parent
    files: list[Path] = []
    for package in (scope if scope is not None else DEFAULT_SCOPE):
        directory = package_root / package
        if directory.is_dir():
            files.extend(sorted(directory.rglob("*.py")))
        elif directory.with_suffix(".py").is_file():
            files.append(directory.with_suffix(".py"))
    return files


class _ImportTable(ast.NodeVisitor):
    """First pass: which local names refer to the modules we care about."""

    def __init__(self) -> None:
        self.random_modules: set[str] = set()
        self.random_funcs: set[str] = set()       # from random import shuffle
        self.numpy_modules: set[str] = set()
        self.np_random_modules: set[str] = set()  # from numpy import random (as r)
        self.time_modules: set[str] = set()
        self.time_funcs: set[str] = set()         # from time import time
        self.datetime_modules: set[str] = set()
        self.datetime_classes: set[str] = set()   # from datetime import datetime
        self.os_modules: set[str] = set()
        self.env_funcs: set[str] = set()          # from os import getenv / environ

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.partition(".")[0]
            if alias.name == "random" or alias.name.startswith("random."):
                self.random_modules.add(local)
            elif alias.name in ("numpy", "np") or alias.name.startswith("numpy."):
                if alias.name == "numpy.random":
                    self.np_random_modules.add(alias.asname or "numpy")
                else:
                    self.numpy_modules.add(local)
            elif alias.name == "time":
                self.time_modules.add(local)
            elif alias.name == "datetime":
                self.datetime_modules.add(local)
            elif alias.name == "os" or alias.name.startswith("os."):
                self.os_modules.add(local)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                local = alias.asname or alias.name
                if alias.name in _STDLIB_RANDOM_ALLOWED:
                    continue
                self.random_funcs.add(local)
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.np_random_modules.add(alias.asname or "random")
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCK_FUNCS:
                    self.time_funcs.add(alias.asname or alias.name)
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in _DATETIME_CLASSES:
                    self.datetime_classes.add(alias.asname or alias.name)
        elif node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    self.env_funcs.add(alias.asname or alias.name)


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str, imports: _ImportTable) -> None:
        self.path = path
        self.imports = imports
        self.findings: list[Finding] = []

    # -- helpers ---------------------------------------------------------- #
    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule, path=self.path, line=getattr(node, "lineno", 0), message=message
        ))

    def _is_np_random(self, node: ast.expr) -> bool:
        """``np.random`` / ``numpy.random`` / a ``from numpy import random`` name."""
        if isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in self.imports.numpy_modules:
            return True
        return isinstance(node, ast.Name) and node.id in self.imports.np_random_modules

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    # -- calls ------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            # random.<fn>(...)
            if isinstance(owner, ast.Name) and owner.id in self.imports.random_modules \
                    and func.attr not in _STDLIB_RANDOM_ALLOWED:
                self._add("det-unseeded-random", node,
                          f"call to random.{func.attr}() uses the process-global "
                          "RNG; use random.Random(seed) from the spec instead")
            # np.random.<fn>(...)
            elif self._is_np_random(owner) and func.attr not in _NP_RANDOM_ALLOWED:
                self._add("det-global-np-random", node,
                          f"call to np.random.{func.attr}() uses numpy's global "
                          "RNG; use np.random.default_rng(seed) instead")
            # time.<clock>(...)
            elif isinstance(owner, ast.Name) and owner.id in self.imports.time_modules \
                    and func.attr in _CLOCK_FUNCS:
                self._add("det-wall-clock", node,
                          f"call to time.{func.attr}() reads the wall clock; "
                          "records must not depend on when they were computed")
            # datetime.now() / date.today() / datetime.datetime.now()
            elif func.attr in _DATETIME_CLOCK_METHODS and self._is_datetime_owner(owner):
                self._add("det-wall-clock", node,
                          f"call to {ast.unparse(owner)}.{func.attr}() reads the "
                          "wall clock; records must not depend on when they "
                          "were computed")
            # os.getenv(...)
            elif isinstance(owner, ast.Name) and owner.id in self.imports.os_modules \
                    and func.attr == "getenv":
                self._add("det-env-branch", node,
                          "os.getenv() makes the result environment-dependent; "
                          "thread configuration through the spec instead")
        elif isinstance(func, ast.Name):
            if func.id in self.imports.random_funcs:
                self._add("det-unseeded-random", node,
                          f"call to {func.id}() (from random import ...) uses the "
                          "process-global RNG; use random.Random(seed) instead")
            elif func.id in self.imports.time_funcs:
                self._add("det-wall-clock", node,
                          f"call to {func.id}() (from time import ...) reads the "
                          "wall clock")
            elif func.id in self.imports.env_funcs and func.id == "getenv":
                self._add("det-env-branch", node,
                          "getenv() makes the result environment-dependent; "
                          "thread configuration through the spec instead")
        self.generic_visit(node)

    def _is_datetime_owner(self, owner: ast.expr) -> bool:
        if isinstance(owner, ast.Name) and owner.id in self.imports.datetime_classes:
            return True
        return (
            isinstance(owner, ast.Attribute)
            and owner.attr in _DATETIME_CLASSES
            and isinstance(owner.value, ast.Name)
            and owner.value.id in self.imports.datetime_modules
        )

    # -- os.environ (read or branch, not just calls) ----------------------- #
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "environ" and isinstance(node.value, ast.Name) \
                and node.value.id in self.imports.os_modules:
            self._add("det-env-branch", node,
                      "os.environ makes the result environment-dependent; "
                      "thread configuration through the spec instead")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.imports.env_funcs and node.id == "environ":
            self._add("det-env-branch", node,
                      "os.environ makes the result environment-dependent; "
                      "thread configuration through the spec instead")
        self.generic_visit(node)

    # -- set iteration ----------------------------------------------------- #
    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._add("det-set-iteration", node.iter,
                      "iterating a set directly: the order is undefined; "
                      "wrap it in sorted(...)")
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        for generator in node.generators:
            if self._is_set_expr(generator.iter):
                self._add("det-set-iteration", generator.iter,
                          "comprehension over a set: the order is undefined; "
                          "wrap it in sorted(...)")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension


def lint_source(source: str, path: str) -> list[Finding]:
    """Lint one module's source text; ``path`` is used verbatim in findings."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise ValueError(f"{path}:{exc.lineno}: cannot lint unparsable file: {exc.msg}") from exc
    imports = _ImportTable()
    imports.visit(tree)
    visitor = _DeterminismVisitor(path, imports)
    visitor.visit(tree)
    return sorted(visitor.findings, key=lambda f: (f.line, f.rule, f.message))


def check_determinism(
    paths: "Iterable[str | Path] | None" = None,
) -> tuple[list[Finding], dict[str, str]]:
    """Lint the registered code paths (or explicit ``paths``).

    Returns ``(findings, sources)`` where ``sources`` maps each finding path
    to the file's text — the orchestrator reuses it to honour inline
    ``# repro: allow[...]`` suppressions without re-reading files.

    Findings covered by a :data:`SCOPED_ALLOWANCES` entry (by package and
    rule id) are dropped here, before suppression accounting.
    """
    if paths is None:
        files: list[Path] = scope_files()
    else:
        files = []
        for entry in paths:
            p = Path(entry)
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            else:
                files.append(p)
    findings: list[Finding] = []
    sources: dict[str, str] = {}
    for file in files:
        rel = relative_to_repo(file)
        try:
            source = file.read_text()
        except OSError as exc:
            raise FileNotFoundError(f"cannot lint {file}: {exc}") from exc
        sources[rel] = source
        findings.extend(
            f for f in lint_source(source, rel) if not _scope_allowed(rel, f.rule)
        )
    return findings, sources


def _scope_allowed(path: str, rule: str) -> bool:
    """Whether a finding falls under a first-class per-package allowance."""
    normalized = path.replace("\\", "/")
    return any(
        rule in rules and f"repro/{package}/" in normalized
        for package, rules in SCOPED_ALLOWANCES.items()
    )
