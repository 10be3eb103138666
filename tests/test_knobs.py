"""Census of settable values and reachable defs: no defaulted
parameter and no def that only tests use, and a pinned count of CLI
options.

* **parameters** — an AST walk over every ``def`` under ``src/`` with
  defaulted parameters. A parameter counts as set when some call to a
  function of that name (``f(...)``, ``obj.f(...)``; for ``__init__``
  the class name, ``cls(...)`` inside the class or
  ``super().__init__(...)`` in a subclass) passes it by keyword or by
  position, or forwards ``*args``. A ``**kw`` argument passes only the
  keys ``kw`` can hold: when ``kw`` is the calling def's own ``**kw``
  parameter, the keywords that def's callers pass it (followed through
  their own forwards) and the keys the def stores into it; when ``kw``
  is a dict the def builds (``dict(a=…)`` or ``{"a": …}``), its keys;
  anything else may pass every parameter. Calls are searched in
  ``src/``, ``benchmarks/``, ``tools/``, ``perfbench/`` and
  ``examples/``, not in ``tests/``: a value only tests set is a
  constant dressed as a knob. Make it a constant (a module constant a
  test may monkeypatch, for a work bound), or list it in ``ALLOWED``
  with its reason.
* **defs** — every ``def`` under ``src/`` whose name no code outside
  ``tests/`` mentions: as a name, an attribute, an import, or a word
  of a string other than a docstring. A word of an export list (a
  lazy export table or ``__all__``) is not a use: exporting a def
  calls nothing. Such a def serves only tests; delete it and test
  through the API that remains. Protocol hooks
  (:func:`_is_protocol_hook`) are reached without being named and are
  exempt.
* **options** — every option reachable from ``build_parser()``
  (``--help`` and positionals excluded; ``-o/--output`` is one
  option). A new option changes the count and so shows up as an edit
  here.
"""

from __future__ import annotations

import argparse
import ast
import functools
import os
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ("src", "benchmarks", "tools", "perfbench", "examples")

#: ``(relative path, function name, parameter)`` that only tests set,
#: kept on purpose: a seam through which a test substitutes a fake, or
#: a path
ALLOWED: dict[tuple[str, str, str], str] = {
    ("src/repro/analysis/context.py", "__init__", "cover"): (
        "seam: a hand-built cover for the hazard rules to judge"
    ),
    ("src/repro/analysis/context.py", "__init__", "netlist"): (
        "seam: a hand-built netlist for the netlist rules to judge"
    ),
    ("src/repro/analysis/registry.py", "rule", "registry"): (
        "seam: registers a fake rule into a test registry"
    ),
    ("src/repro/pipeline/maintenance.py", "gc", "now"): (
        "seam: the clock the age policy reads"
    ),
    (
        "src/repro/analysis/certify/differential.py",
        "archive_soundness_failure",
        "corpus_dir",
    ): "path: where a soundness failure is archived",
    ("src/repro/core/verify.py", "verify_hazard_freeness", "recorder"): (
        "seam: a flight recorder that watches the verifier's runs"
    ),
    ("src/repro/pipeline/dag.py", "__init__", "env_digest"): (
        "seam: the machine digest in a key, so two runs model two machines"
    ),
}

#: options reachable from ``build_parser()``
CLI_OPTIONS = 116


def _py_files(top: str):
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                yield os.path.join(dirpath, fn)


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _init_key(cls: str) -> str:
    """Index of the calls that run ``cls.__init__``: ``cls(...)`` and
    ``self.__init__(...)`` inside the class, ``super().__init__(...)``
    in a subclass."""
    return f"<init {cls}>"


def _calls() -> dict[str, list[tuple[ast.Call, ast.FunctionDef | None, list[str]]]]:
    """Every call in the caller directories, indexed by callee name,
    with the def it sits in and that def's callee names."""
    calls: dict[str, list] = defaultdict(list)

    def visit(node, cls, fn, names):
        for child in ast.iter_child_nodes(node):
            inner = child if isinstance(child, ast.ClassDef) else cls
            inner_fn, inner_names = fn, names
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner_fn, inner_names = child, [child.name]
                if child.name == "__init__" and cls is not None:
                    inner_names = [cls.name, _init_key(cls.name)]
            if isinstance(child, ast.Call):
                func = child.func
                name = _call_name(func)
                site = (child, fn, names)
                if cls is not None and isinstance(func, ast.Name) and name == "cls":
                    calls[_init_key(cls.name)].append(site)
                elif (
                    cls is not None
                    and isinstance(func, ast.Attribute)
                    and name == "__init__"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                ):
                    calls[_init_key(cls.name)].append(site)
                elif (
                    cls is not None
                    and isinstance(func, ast.Attribute)
                    and name == "__init__"
                    and isinstance(func.value, ast.Call)
                    and _call_name(func.value.func) == "super"
                ):
                    for base in cls.bases:
                        base_name = _call_name(base)
                        if base_name is not None:
                            calls[_init_key(base_name)].append(site)
                elif name is not None:
                    calls[name].append(site)
            visit(child, inner, inner_fn, inner_names)

    for top in CALLER_DIRS:
        for path in _py_files(top):
            visit(_parse(path), None, None, [])
    return calls


def _dict_keys(fn: ast.FunctionDef | None, var: str) -> set[str] | None:
    """The string keys the def ``fn`` gives its dict ``var`` (built as
    ``dict(a=…)`` or ``{"a": …}``, or its ``**`` parameter) and stores
    into it (``var["a"] = …``); None when ``var`` is no such dict."""
    if fn is None:
        return None
    built = fn.args.kwarg is not None and fn.args.kwarg.arg == var
    keys: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == var:
                value = node.value
                if isinstance(value, ast.Dict) and all(
                    isinstance(k, ast.Constant) for k in value.keys
                ):
                    keys.update(k.value for k in value.keys)
                elif (
                    isinstance(value, ast.Call)
                    and _call_name(value.func) == "dict"
                    and not value.args
                    and all(kw.arg is not None for kw in value.keywords)
                ):
                    keys.update(kw.arg for kw in value.keywords)
                else:
                    return None
                built = True
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == var
                and isinstance(target.slice, ast.Constant)
            ):
                keys.add(target.slice.value)
    return keys if built else None


def _passed(call: ast.Call, fn, fn_names, calls, seen=frozenset()) -> set[str] | None:
    """The keywords ``call`` (made inside the def ``fn``, which goes by
    ``fn_names`` in ``calls``) can pass; None when it can pass any."""
    names = {kw.arg for kw in call.keywords if kw.arg is not None}
    for kw in call.keywords:
        if kw.arg is not None:
            continue
        var = kw.value.id if isinstance(kw.value, ast.Name) else None
        keys = _dict_keys(fn, var) if var is not None else None
        if keys is None:
            return None
        names |= keys
        if fn.args.kwarg is not None and fn.args.kwarg.arg == var and id(fn) not in seen:
            # the def's own ``**kw`` also holds what its callers pass it
            for callee in fn_names:
                for site, outer, outer_names in calls.get(callee, ()):
                    got = _passed(site, outer, outer_names, calls, seen | {id(fn)})
                    if got is None:
                        return None
                    names |= got
    return names


def _defs():
    """``(path, callee names, def, is_method)`` for each def in ``src/``;
    an ``__init__`` goes by its class's name."""
    for path in _py_files("src"):
        tree = _parse(path)
        rel = os.path.relpath(path, ROOT)

        def visit(node, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield from visit(child, child)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [child.name]
                    if child.name == "__init__" and cls is not None:
                        names = [cls.name, _init_key(cls.name)]
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list
                    )
                    yield rel, names, child, cls is not None and not static
                    yield from visit(child, None)

        yield from visit(tree, None)


@functools.cache
def never_set_parameters() -> list[tuple[str, str, str]]:
    """``(path, function, parameter)`` for each defaulted parameter that
    no call outside ``tests/`` sets."""
    calls = _calls()
    found = []
    for rel, names, fn, is_method in _defs():
        args = fn.args
        positional = args.posonlyargs + args.args
        if is_method and positional:
            positional = positional[1:]
        pos_names = [a.arg for a in positional]
        defaulted = pos_names[len(pos_names) - len(args.defaults):] if args.defaults else []
        defaulted += [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        if not defaulted:
            continue
        set_names: set[str] = set()
        for name in names:
            for call, outer, outer_names in calls.get(name, ()):
                passed = _passed(call, outer, outer_names, calls)
                if passed is None or any(isinstance(a, ast.Starred) for a in call.args):
                    set_names.update(defaulted)
                    break
                set_names.update(pos_names[: len(call.args)])
                set_names.update(passed)
        for param in defaulted:
            if param not in set_names:
                found.append((rel, fn.name, param))
    return found


def _is_protocol_hook(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when code reaches ``fn`` without naming it: a dunder the
    interpreter calls, a lint rule its ``@rule`` decorator registers,
    or a ``_parser_<command>`` builder ``build_parser`` looks up."""
    return (
        (fn.name.startswith("__") and fn.name.endswith("__"))
        or any(
            isinstance(d, ast.Call) and _call_name(d.func) == "rule"
            for d in fn.decorator_list
        )
        or fn.name.startswith("_parser_")
    )


def _docstrings(tree: ast.Module) -> set[int]:
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _export_lists(tree: ast.Module) -> set[int]:
    """The string constants of ``__all__ = …`` assignments, the lazy
    export tables (``__all__, … = lazy_exports(…)``) included."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(
            isinstance(n, ast.Name) and n.id == "__all__"
            for t in targets
            for n in ast.walk(t)
        ):
            out.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return out


def _mentioned_names() -> set[str]:
    """Every name the caller directories mention outside docstrings and
    export lists."""
    names: set[str] = set()
    for top in CALLER_DIRS:
        for path in _py_files(top):
            tree = _parse(path)
            skipped = _docstrings(tree) | _export_lists(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in skipped
                ):
                    names.update(node.value.split())
    return names


@functools.cache
def defs_only_tests_use() -> list[tuple[str, str]]:
    """``(path, name)`` for each def in ``src/`` that no code outside
    ``tests/`` mentions, protocol hooks aside."""
    mentioned = _mentioned_names()
    return [
        (rel, fn.name)
        for rel, _names, fn, _is_method in _defs()
        if fn.name not in mentioned and not _is_protocol_hook(fn)
    ]


def cli_options() -> list[str]:
    """One ``"<prog> <first option string>"`` per option of any parser."""
    from repro.cli import build_parser

    seen: set[str] = set()
    parsers = [build_parser()]
    visited: set[int] = set()
    while parsers:
        parser = parsers.pop()
        if id(parser) in visited:
            continue
        visited.add(id(parser))
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif isinstance(action, argparse._HelpAction):
                continue
            elif action.option_strings:
                seen.add(f"{parser.prog} {action.option_strings[0]}")
    return sorted(seen)


def test_every_defaulted_parameter_has_a_caller():
    found = [hit for hit in never_set_parameters() if hit not in ALLOWED]
    assert found == [], "\n".join(
        f"{p}: {f}({a}=) is set only by tests" for p, f, a in found
    )


def test_allowlist_is_not_stale():
    assert set(ALLOWED) <= set(never_set_parameters())


def test_every_def_is_reached_outside_tests():
    found = defs_only_tests_use()
    assert found == [], "\n".join(f"{p}: {f} is only used by tests" for p, f in found)


def test_cli_option_count_is_pinned():
    assert len(cli_options()) == CLI_OPTIONS
