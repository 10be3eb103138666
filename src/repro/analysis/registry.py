"""Pluggable rule registry for the static-analysis engine.

A rule is a generator over a :class:`~repro.analysis.context.LintContext`
registered with the :func:`rule` decorator::

    @rule(
        "SG002",
        title="Complete State Coding conflict",
        severity=Severity.ERROR,
        scope=Scope.SG,
        preflight=True,
        paper="Definition 1",
    )
    def check_csc(ctx: LintContext, meta: RuleMeta) -> Iterator[Diagnostic]:
        ...
        yield meta.diagnostic("...", ctx.location("state-pair", "..."))

``scope`` phases execution (SG-level rules run before anything is
minimized; cover rules before the netlist is built) and ``preflight``
marks the Theorem-2 preconditions that gate synthesis — the
synthesizer's pre-flight pass runs exactly the ``preflight`` subset of
the same registry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Iterator

from .diagnostics import Diagnostic, Location, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .context import LintContext

__all__ = ["Scope", "RuleMeta", "Rule", "RuleRegistry", "rule", "default_registry"]


class Scope(enum.Enum):
    """Execution phase of a rule (what inputs it needs)."""

    SG = "sg"  # the state graph alone
    COVER = "cover"  # derived SOP spec + minimized cover
    NETLIST = "netlist"  # the mapped N-SHOT netlist


RuleBody = Callable[["LintContext", "RuleMeta"], Iterator[Diagnostic]]


@dataclass(frozen=True)
class RuleMeta:
    """Static metadata of one registered rule."""

    id: str
    title: str
    severity: Severity
    scope: Scope
    preflight: bool = False
    paper: str = ""  # paper reference (definition / theorem / equation)
    description: str = ""

    def diagnostic(
        self,
        message: str,
        location: Location,
        hint: str | None = None,
        severity: Severity | None = None,
        **data: object,
    ) -> Diagnostic:
        """Build a diagnostic stamped with this rule's id and severity."""
        return Diagnostic(
            rule_id=self.id,
            severity=severity if severity is not None else self.severity,
            message=message,
            location=location,
            hint=hint,
            data=data,
        )


@dataclass(frozen=True)
class Rule:
    """A registered rule: metadata plus its body."""

    meta: RuleMeta
    body: RuleBody

    def run(self, ctx: "LintContext") -> Iterator[Diagnostic]:
        return self.body(ctx, self.meta)


class RuleRegistry:
    """Ordered collection of rules, keyed by stable rule id."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register(self, r: Rule) -> None:
        if r.meta.id in self._rules:
            raise ValueError(f"rule id {r.meta.id!r} registered twice")
        self._rules[r.meta.id] = r

    def get(self, rule_id: str) -> Rule:
        return self._rules[rule_id]

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def ids(self) -> list[str]:
        return sorted(self._rules)

    def all(self) -> list[Rule]:
        """Every rule, in id order (deterministic execution order)."""
        return [self._rules[i] for i in sorted(self._rules)]

    def select(
        self,
        select: set[str] | None = None,
        ignore: set[str] | None = None,
    ) -> list[Rule]:
        """Rules filtered by explicit select/ignore id sets."""
        out = []
        for r in self.all():
            if select is not None and r.meta.id not in select:
                continue
            if ignore is not None and r.meta.id in ignore:
                continue
            out.append(r)
        return out


_DEFAULT = RuleRegistry()
#: the modules whose ``@rule`` bodies make up the built-in catalog; the
#: first holds every ``preflight`` rule
_BUILTIN_RULES = ("rules_sg", "rules_trigger", "rules_netlist", "rules_hazard")


def default_registry() -> RuleRegistry:
    """The process-wide registry the built-in rules register into.

    The built-in rule modules register when first imported, here, so
    the catalog costs nothing to a process that never lints.
    """
    for name in _BUILTIN_RULES:
        import_module(f"{__package__}.{name}")
    return _DEFAULT


def preflight_registry() -> RuleRegistry:
    """The process-wide registry with every ``preflight`` rule
    registered: only the module that holds them is imported, so the
    synthesizer's preflight loads none of the other rules."""
    import_module(f"{__package__}.{_BUILTIN_RULES[0]}")
    return _DEFAULT


def rule(
    rule_id: str,
    *,
    title: str,
    severity: Severity,
    scope: Scope,
    preflight: bool = False,
    paper: str = "",
    registry: RuleRegistry | None = None,
) -> Callable[[RuleBody], RuleBody]:
    """Register a rule body under a stable id (decorator)."""

    def wrap(fn: RuleBody) -> RuleBody:
        meta = RuleMeta(
            id=rule_id,
            title=title,
            severity=severity,
            scope=scope,
            preflight=preflight,
            paper=paper,
            description=(fn.__doc__ or "").strip().splitlines()[0]
            if fn.__doc__
            else title,
        )
        (registry if registry is not None else _DEFAULT).register(Rule(meta, fn))
        return fn

    return wrap
