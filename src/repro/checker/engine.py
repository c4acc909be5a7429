"""The static-analysis engine: rule families, selection, baselines.

One parse per file; every registered family checker runs over the same
tree.  Families:

=======  ==================================================  =========
family   what it checks                                      module
=======  ==================================================  =========
ASYNC    asyncio hygiene in the serving layer                rules_async
RES      resource lifetime (shm segments, pools, sockets)    rules_res
ERR      error-boundary hygiene (ReproError contract)        rules_err
COST     BDM cost-model consistency (charging sites)         rules_cost
OBS      observability hygiene (span lifetime, emit guards)  rules_obs
=======  ==================================================  =========

Selection (``--select``/``--ignore``) accepts family names and full
rule IDs; unknown tokens raise :class:`ReproError`.  PARSE000 (a file
that does not parse) is reported regardless of selection: an
unparsable file was not checked by *any* family.

Baselines grandfather existing findings: a JSON file mapping
``file -> rule -> count``.  A finding is suppressed while the file
still has no more findings of that rule than the baseline allows;
entries that no longer match anything are reported as stale so the
file shrinks monotonically (see docs/CHECKER.md for the workflow).

For the rare pattern a rule cannot prove safe (e.g. ownership transfer
of a shared-memory segment into an object whose ``__exit__`` tears it
down), a line can carry an inline suppression comment::

    shm = SharedMemory(create=True, size=n)  # check: ignore[RES201]

naming the rule IDs (or families) it waives on that line.
"""

from __future__ import annotations

import ast
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.checker import rules_async, rules_cost, rules_err, rules_obs, rules_res
from repro.checker.emitters import dump_json, to_json_payload, to_sarif
from repro.checker.rules import (
    PARSE_FAILURE,
    RULES,
    LintDiagnostic,
    format_catalog,
    rule_family,
)
from repro.utils.errors import ReproError

Checker = Callable[[ast.AST, str], list[LintDiagnostic]]

#: Family name -> checker run against each parsed file.
CHECKERS: dict[str, Checker] = {
    "ASYNC": rules_async.check,
    "RES": rules_res.check,
    "ERR": rules_err.check,
    "COST": rules_cost.check,
    "OBS": rules_obs.check,
}


def expand_selection(tokens: Iterable[str] | None, *, flag: str = "--select") -> "_Selection | None":
    """Parse a list of family names / rule IDs into a selection filter."""
    if tokens is None:
        return None
    families: set[str] = set()
    ids: set[str] = set()
    unknown: list[str] = []
    for raw in tokens:
        token = raw.strip().upper()
        if not token:
            continue
        if token in CHECKERS:
            families.add(token)
        elif token in RULES:
            ids.add(token)
        else:
            unknown.append(token)
    if unknown:
        raise ReproError(
            f"unknown rule or family for {flag}: {', '.join(sorted(unknown))}"
        )
    return _Selection(families=families, ids=ids)


@dataclass(frozen=True)
class _Selection:
    families: set[str] = field(default_factory=set)
    ids: set[str] = field(default_factory=set)

    def matches(self, rule_id: str) -> bool:
        return rule_id in self.ids or rule_family(rule_id) in self.families


_INLINE_IGNORE = re.compile(r"#\s*check:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


def _inline_ignores(source: str) -> dict[int, set[str]]:
    """Map 1-based line numbers to the upper-cased tokens they waive."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _INLINE_IGNORE.search(line)
        if m:
            out[lineno] = {t.strip().upper() for t in m.group(1).split(",") if t.strip()}
    return out


def _inline_suppressed(diag: LintDiagnostic, ignores: dict[int, set[str]]) -> bool:
    tokens = ignores.get(diag.line)
    if not tokens:
        return False
    return diag.rule in tokens or rule_family(diag.rule) in tokens


def _filter(
    diags: list[LintDiagnostic],
    select: "_Selection | None",
    ignore: "_Selection | None",
) -> list[LintDiagnostic]:
    out = []
    for d in diags:
        if d.rule == PARSE_FAILURE:  # no family checked the file
            out.append(d)
            continue
        if select is not None and not select.matches(d.rule):
            continue
        if ignore is not None and ignore.matches(d.rule):
            continue
        out.append(d)
    return out


def analyze_source(
    source: str,
    filename: str = "<string>",
    *,
    select: "_Selection | None" = None,
    ignore: "_Selection | None" = None,
) -> list[LintDiagnostic]:
    """Run every (selected) family over one file's source."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            LintDiagnostic(
                rule=PARSE_FAILURE,
                message=f"could not parse: {exc.msg}",
                file=filename,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                function="<module>",
            )
        ]
    diags: list[LintDiagnostic] = []
    for family, checker in CHECKERS.items():
        if select is not None and family not in select.families:
            # Still needed if an individual rule of this family is selected.
            if not any(rule_family(i) == family for i in select.ids):
                continue
        diags.extend(checker(tree, filename))
    inline = _inline_ignores(source)
    if inline:
        diags = [d for d in diags if not _inline_suppressed(d, inline)]
    diags = _filter(diags, select, ignore)
    return sorted(diags, key=lambda d: (d.line, d.col, d.rule))


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` (files or directories)."""
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            yield path


def analyze_paths(
    paths: Iterable[str],
    *,
    select: "_Selection | None" = None,
    ignore: "_Selection | None" = None,
) -> list[LintDiagnostic]:
    """Analyze all ``.py`` files under ``paths`` (files or directories)."""
    diags: list[LintDiagnostic] = []
    for path in iter_python_files(paths):
        try:
            text = path.read_text()
        except OSError:
            continue
        diags.extend(analyze_source(text, str(path), select=select, ignore=ignore))
    return diags


# -- baseline ---------------------------------------------------------------

BASELINE_SCHEMA = "repro-checker-baseline/v1"

#: Default location, applied by ``repro check`` when the file exists.
DEFAULT_BASELINE = ".repro-checker-baseline.json"

BaselineEntries = dict[str, dict[str, int]]


@dataclass
class BaselineResult:
    """Outcome of applying a baseline to a list of findings."""

    diags: list[LintDiagnostic]  #: findings NOT covered by the baseline
    suppressed: int  #: findings swallowed as grandfathered
    stale: BaselineEntries  #: allowances that matched nothing (expired)


def load_baseline(path: str | Path) -> BaselineEntries:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ReproError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"baseline {path} is not valid JSON: {exc}") from exc
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ReproError(
            f"baseline {path} has schema {payload.get('schema')!r}, "
            f"expected {BASELINE_SCHEMA!r}"
        )
    entries = payload.get("entries", {})
    out: BaselineEntries = {}
    for file, rules in entries.items():
        out[str(file)] = {str(r): int(n) for r, n in rules.items()}
    return out


def baseline_from(diags: Sequence[LintDiagnostic]) -> BaselineEntries:
    counts: Counter[tuple[str, str]] = Counter(
        (_baseline_key(d.file), d.rule) for d in diags
    )
    entries: BaselineEntries = {}
    for (file, rule), n in sorted(counts.items()):
        entries.setdefault(file, {})[rule] = n
    return entries


def save_baseline(path: str | Path, entries: BaselineEntries) -> None:
    payload = {"schema": BASELINE_SCHEMA, "entries": entries}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _baseline_key(file: str) -> str:
    return Path(file).as_posix()


def apply_baseline(
    diags: Sequence[LintDiagnostic],
    entries: BaselineEntries,
    *,
    scanned: set[str] | None = None,
) -> BaselineResult:
    """Suppress up to ``entries[file][rule]`` findings per (file, rule).

    Findings are suppressed in source order, so when a file has more
    findings than its allowance the *new* (later) ones surface.
    Allowances that matched nothing are reported as stale -- but only
    for files in ``scanned`` (when given), so checking a subset of the
    repo does not misreport the rest of the baseline as expired.
    """
    remaining = {f: dict(rules) for f, rules in entries.items()}
    kept: list[LintDiagnostic] = []
    suppressed = 0
    for d in sorted(diags, key=lambda d: (d.file, d.line, d.col, d.rule)):
        allowance = remaining.get(_baseline_key(d.file), {})
        if allowance.get(d.rule, 0) > 0:
            allowance[d.rule] -= 1
            suppressed += 1
        else:
            kept.append(d)
    stale: BaselineEntries = {}
    for file, rules in remaining.items():
        if scanned is not None and file not in scanned:
            continue
        left = {r: n for r, n in rules.items() if n > 0}
        if left:
            stale[file] = left
    return BaselineResult(diags=kept, suppressed=suppressed, stale=stale)


# -- the ``repro check`` command -------------------------------------------


def _dynamic_smoke() -> list[str]:
    """Run each paper algorithm's phase form under the race detector."""
    import numpy as np

    from repro.bdm.broadcast import broadcast
    from repro.bdm.machine import Machine
    from repro.bdm.memory import GlobalArray
    from repro.bdm.transpose import transpose
    from repro.core.connected_components import parallel_components
    from repro.core.histogram import parallel_histogram

    for primitive in (transpose, broadcast):
        machine = Machine(4, check_hazards=True)
        array = GlobalArray(machine, 16, name="A")
        array.scatter_rows(np.arange(4 * 16).reshape(4, 16))
        primitive(machine, array)
    rng = np.random.default_rng(0)
    parallel_histogram(rng.integers(0, 16, size=(16, 16)), 16, 4, check_hazards=True)
    parallel_components(rng.integers(0, 2, size=(16, 16)), 4, check_hazards=True)
    return ["transpose", "broadcast", "parallel_histogram", "parallel_components"]


def run_check(paths: Sequence[str], *, select: str | None = None,
              ignore: str | None = None, fmt: str = "text", output: str | None = None,
              baseline: str | None = None, no_baseline: bool = False,
              update_baseline: bool = False, list_rules: bool = False,
              dynamic: bool = False, tool_version: str = "") -> int:
    """``repro check``: analyze, apply the baseline, report; 1 on errors.

    ``select``/``ignore`` are comma-separated families or rule IDs.
    Without ``baseline`` the :data:`DEFAULT_BASELINE` file applies when
    it exists (unless ``no_baseline``); ``update_baseline`` rewrites it
    from the current findings instead of reporting them.
    """
    if list_rules:
        print(format_catalog())
        return 0
    paths = list(paths) or [p for p in ("src", "examples") if os.path.isdir(p)] or ["."]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ReproError(f"no such path(s): {', '.join(missing)}")
    selection = expand_selection(select.split(",") if select else None, flag="--select")
    ignored = expand_selection(ignore.split(",") if ignore else None, flag="--ignore")
    scanned = {p.as_posix() for p in iter_python_files(paths)}
    diags = analyze_paths(paths, select=selection, ignore=ignored)

    if baseline is None and not no_baseline and os.path.exists(DEFAULT_BASELINE):
        baseline = DEFAULT_BASELINE
    if update_baseline:
        target = baseline or DEFAULT_BASELINE
        save_baseline(target, baseline_from(diags))
        print(f"baseline: wrote {len(diags)} finding(s) to {target}")
        return 0
    suppressed = 0
    if baseline is not None:
        result = apply_baseline(diags, load_baseline(baseline), scanned=scanned)
        diags, suppressed = result.diags, result.suppressed
        for file, rules in sorted(result.stale.items()):
            # Judge staleness only for rules the current selection ran.
            rules = {
                r: n
                for r, n in rules.items()
                if (selection is None or selection.matches(r))
                and not (ignored is not None and ignored.matches(r))
            }
            if not rules:
                continue
            listed = ", ".join(f"{r}x{n}" for r, n in sorted(rules.items()))
            print(
                f"baseline: stale allowance for {file} ({listed}); "
                f"run --update-baseline to expire it"
            )

    n_errors = sum(1 for d in diags if d.severity == "error")
    if fmt == "text":
        for diag in diags:
            print(diag.format())
        summary = (
            f"checked {len(scanned)} file(s): {n_errors} error(s), "
            f"{len(diags) - n_errors} warning(s)"
        )
        if suppressed:
            summary += f", {suppressed} baselined"
        print(summary)
    else:
        if fmt == "json":
            payload = to_json_payload(diags, files_checked=len(scanned), suppressed=suppressed)
        else:
            payload = to_sarif(diags, tool_version=tool_version)
        text = dump_json(payload)
        if output:
            with open(output, "w") as fh:
                fh.write(text)
            print(
                f"wrote {fmt} report ({len(diags)} finding(s), "
                f"{suppressed} baselined) to {output}"
            )
        else:
            print(text, end="")
    if dynamic:
        ran = _dynamic_smoke()
        print(
            f"dynamic: {len(ran)} phase-form algorithm(s) ran clean under "
            f"the shadow-memory race detector ({', '.join(ran)})"
        )
    return 1 if n_errors else 0
