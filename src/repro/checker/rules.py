"""Rule catalog and diagnostic records for the checker.

Every rule has a stable ID (``<FAMILY><###>``) so findings can be
referenced in docs, suppressed selectively on the command line, and
asserted in tests.  Severity ``error`` findings fail ``repro check``
(exit 1); ``warning`` findings are reported but do not affect the exit
status.

This module defines the catalog container and the family-neutral
parse-failure diagnostic; the families (ASYNC, RES, ERR, COST, OBS)
register themselves from their ``rules_*`` modules via
:func:`register_rules` when :mod:`repro.checker.engine` is imported.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LintRule:
    id: str
    name: str
    severity: str  #: ``error`` or ``warning``
    description: str


def rule_family(rule_id: str) -> str:
    """The alphabetic family prefix of a rule ID (``ASYNC102`` -> ``ASYNC``)."""
    return rule_id.rstrip("0123456789")


#: Parse failures belong to no family: a file that does not parse was
#: not checked by any of them, so the engine reports PARSE000 whatever
#: the selection.
PARSE_FAILURE = "PARSE000"

RULES: dict[str, LintRule] = {
    PARSE_FAILURE: LintRule(
        PARSE_FAILURE,
        "unparsable file",
        "error",
        "The file could not be parsed as Python; nothing was checked.",
    ),
}


def register_rules(*rules: LintRule) -> None:
    """Add rules to the catalog (idempotent; used by the family modules)."""
    for rule in rules:
        RULES[rule.id] = rule


@dataclass(frozen=True)
class LintDiagnostic:
    """One finding: a rule violation at a source location."""

    rule: str
    message: str
    file: str
    line: int
    col: int
    function: str

    @property
    def severity(self) -> str:
        return RULES[self.rule].severity

    def format(self) -> str:
        return (
            f"{self.file}:{self.line}:{self.col}: {self.rule} "
            f"[{self.severity}] {self.message} (in {self.function!r})"
        )


def format_catalog() -> str:
    """Human-readable rule listing for ``repro check --list-rules``."""
    lines = []
    last_family = None
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        family = rule_family(rule_id)
        if family != last_family:
            if lines:
                lines.append("")
            last_family = family
        lines.append(f"{rule.id} [{rule.severity}] {rule.name}")
        lines.append(f"    {rule.description}")
    return "\n".join(lines)
