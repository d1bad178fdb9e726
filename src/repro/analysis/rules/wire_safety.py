"""``wire-safety`` — nothing executable crosses the wire.

The cluster protocol (PR 6) deliberately ships JSON headers plus raw
ndarray bytes so a hostile or corrupted peer can never execute code in the
gateway.  This rule keeps that property local to the three wire-path
modules (``wire.py``, ``worker.py``, ``gateway.py``):

* ``pickle``/``marshal`` imports, ``eval``/``exec`` calls, and
  ``__reduce__`` hooks are banned (the worker's on-disk judge bundle is the
  one sanctioned exception, waived inline with ``# repro: allow(wire-safety)``
  because it never touches a socket);
* every ``FRAME_*`` constant is declared exactly once, and only in
  ``repro/cluster/wire.py`` — duplicate or stray frame ids are how two
  peers silently disagree about a protocol;
* a payload-sized read (``readexactly``/``_recv_exactly`` with a computed
  length) must be preceded in the same function by ``_parse_header`` (or an
  explicit ``max_frame_bytes`` bound), so a forged length cannot drive an
  unbounded allocation;
* the gateway and the worker never import ``repro.io.records_json``:
  profiles cross the wire as columnar batches
  (``repro.cluster.wire.encode_profiles``), and the per-visit JSON codecs
  of the on-disk JSONL format must not creep back onto the hot path.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.findings import Finding
from repro.analysis.framework import Rule, call_name, register
from repro.analysis.source import SourceFile

#: The wire-path modules the rule is scoped to (path suffixes).
WIRE_MODULES = (
    "repro/cluster/wire.py",
    "repro/cluster/worker.py",
    "repro/cluster/gateway.py",
)

_BANNED_MODULES = {"pickle", "cPickle", "marshal"}
_BANNED_CALLS = {"eval", "exec"}
_REDUCE_HOOKS = {"__reduce__", "__reduce_ex__"}
_FRAME_NAME = re.compile(r"^FRAME_[A-Z0-9_]+$")
_SIZED_READS = {"readexactly", "_recv_exactly", "recv_exactly"}

_WIRE_HOME = "repro/cluster/wire.py"

#: Modules that ship profiles, and the JSONL record codecs they must not use.
_PROFILE_SHIPPERS = ("repro/cluster/gateway.py", "repro/cluster/worker.py")
_RECORDS_JSON = "repro.io.records_json"


@register
class WireSafetyRule(Rule):
    rule_id = "wire-safety"
    description = (
        "no pickle/marshal/eval/exec/__reduce__ in wire-path modules; frame "
        "constants declared once in wire.py; length-checked payload reads; "
        "no per-visit JSON record codecs in the gateway or worker"
    )

    def __init__(self) -> None:
        #: FRAME_* name -> [(path, line)] across every scanned wire module.
        self._frames: dict[str, list[tuple[str, int]]] = {}

    def check_file(self, source: SourceFile) -> list[Finding]:
        if not source.matches(*WIRE_MODULES):
            return []
        findings: list[Finding] = []
        self._collect_frames(source)
        ships_profiles = source.matches(*_PROFILE_SHIPPERS)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                findings.extend(
                    self._banned_import(source, node, alias.name) for alias in node.names
                    if alias.name.split(".")[0] in _BANNED_MODULES
                )
                if ships_profiles:
                    findings.extend(
                        self._records_json_import(source, node) for alias in node.names
                        if alias.name.startswith(_RECORDS_JSON)
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in _BANNED_MODULES:
                    findings.append(self._banned_import(source, node, node.module))
                if ships_profiles and (
                    (node.module or "").startswith(_RECORDS_JSON)
                    or (
                        node.module == "repro.io"
                        and any(alias.name == "records_json" for alias in node.names)
                    )
                ):
                    findings.append(self._records_json_import(source, node))
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id in _BANNED_CALLS:
                    findings.append(
                        self.finding(
                            source,
                            node,
                            f"call to '{node.func.id}' in a wire-path module",
                            "wire payloads are data, never code — decode them explicitly",
                        )
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in _BANNED_MODULES
                ):
                    # Each use site needs its own waiver — an allowed import
                    # must not silently bless every call that follows it.
                    findings.append(
                        self.finding(
                            source,
                            node,
                            f"'{node.func.value.id}.{node.func.attr}' call in a "
                            "wire-path module",
                            "object serialization stays off the wire; a documented "
                            "non-wire path may carry '# repro: allow(wire-safety)'",
                        )
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in _REDUCE_HOOKS:
                    findings.append(
                        self.finding(
                            source,
                            node,
                            f"'{node.name}' defined in a wire-path module — objects "
                            "crossing the wire must not customize serialization",
                            "encode explicit fields via repro.cluster.wire instead",
                        )
                    )
                findings.extend(self._check_sized_reads(source, node))
        return findings

    def _banned_import(self, source: SourceFile, node: ast.AST, module: str) -> Finding:
        return self.finding(
            source,
            node,
            f"import of '{module}' in a wire-path module — object serialization "
            "on the wire is banned",
            "frames carry JSON headers + raw ndarray bytes (repro.cluster.wire); "
            "a documented non-wire path may carry '# repro: allow(wire-safety)'",
        )

    def _records_json_import(self, source: SourceFile, node: ast.AST) -> Finding:
        return self.finding(
            source,
            node,
            f"import of '{_RECORDS_JSON}' in a profile-shipping wire module — "
            "per-visit JSON dicts are off the wire",
            "ship profiles with repro.cluster.wire.encode_profiles/decode_profiles "
            "(JSON scalar rows + one float64 visits array)",
        )

    def _collect_frames(self, source: SourceFile) -> None:
        for node in source.tree.body:  # module level only: that's where constants live
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _FRAME_NAME.match(target.id):
                    self._frames.setdefault(target.id, []).append((source.path, node.lineno))

    def _check_sized_reads(
        self, source: SourceFile, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[Finding]:
        guard_line: int | None = None
        reads: list[tuple[int, str]] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name == "_parse_header":
                    guard_line = node.lineno if guard_line is None else min(guard_line, node.lineno)
                elif name in _SIZED_READS and node.args:
                    size = node.args[-1]
                    if isinstance(size, ast.Name):  # computed length, not a struct .size
                        reads.append((node.lineno, size.id))
            elif isinstance(node, ast.Compare):
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Name, ast.Attribute)):
                        ident = sub.id if isinstance(sub, ast.Name) else sub.attr
                        if ident == "max_frame_bytes":
                            guard_line = (
                                node.lineno if guard_line is None else min(guard_line, node.lineno)
                            )
        findings = []
        for lineno, size_name in reads:
            if guard_line is None or lineno < guard_line:
                findings.append(
                    self.finding(
                        source,
                        lineno,
                        f"payload-sized read of '{size_name}' bytes without a prior "
                        "header length check",
                        "call _parse_header (which enforces max_frame_bytes) before "
                        "reading a computed number of bytes",
                    )
                )
        return findings

    def finalize(self) -> list[Finding]:
        findings: list[Finding] = []
        for name, sites in sorted(self._frames.items()):
            first_path, first_line = sites[0]
            for path, line in sites[1:]:
                findings.append(
                    Finding(
                        rule_id=self.rule_id,
                        path=path,
                        line=line,
                        message=f"frame constant '{name}' redeclared (first declared at "
                        f"{first_path}:{first_line})",
                        hint="frame ids are declared exactly once, in repro/cluster/wire.py",
                    )
                )
            for path, line in sites:
                if not path.endswith(_WIRE_HOME):
                    findings.append(
                        Finding(
                            rule_id=self.rule_id,
                            path=path,
                            line=line,
                            message=f"frame constant '{name}' declared outside "
                            "repro/cluster/wire.py",
                            hint="import frame ids from repro.cluster.wire instead of "
                            "redefining them",
                        )
                    )
        return findings
