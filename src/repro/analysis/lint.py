"""Label-discipline lint: AST checks over datatype and workload code.

CommTM pushes correctness obligations onto the programmer (Sec. III-A):
all accesses to an object must agree on its label, gathers require the
label to have a splitter, and the toolchain must map every program label
onto the hardware budget. None of this is checked at runtime — a slip
silently degrades to wrong results or spurious serialization. This pass
enforces the discipline statically on the ``yield``-based workload DSL:

* **mixed-store** (error): an unlabeled ``Store`` to an address that the
  same transaction also accesses with a label. The store bypasses the
  reduction algebra and clobbers whatever partials other cores hold.
* **mixed-load-before** (warning): an unlabeled ``Load`` of a labeled
  address *before* the first labeled access. Reading first forces a full
  reduction and serializes the transaction exactly where the label was
  supposed to help. (A ``Load`` *after* labeled accesses is the paper's
  sanctioned fallback — e.g. a bounded counter dropping to a full
  reduction when its local share hits zero — and is not flagged.)
* **label-conflict** (error): two different labels applied to the same
  address in one transaction.
* **gather-without-splitter** (error): ``LoadGather`` on a label that is
  statically resolvable to a factory without a splitter; the protocol
  would raise ``LabelError`` at runtime, but only on the paths a test
  happens to execute.
* **label-unregistered** (error): a label constructed by a factory and
  used in labeled operations without ever flowing through
  ``register_label``/``register`` — its ``label_id`` would still be None.

Ops are recognized in both spellings: direct constructors
(``yield Load(a)``) and the zero-allocation shuttle API
(``yield ctx.load(a)``) — the lint maps ``ctx.<method>`` calls onto the
same op kinds, so ported workloads keep full label-discipline coverage.
The shuttle API adds one obligation of its own:

* **shuttle-held** (error): the result of a ``ctx`` shuttle call
  (``ctx.load``/``ctx.store``/``ctx.labeled_load``/``ctx.labeled_store``/
  ``ctx.load_gather``/``ctx.work``) used anywhere other than directly in
  a ``yield`` expression. Shuttles are single mutable instances reused
  per thread context (consume-before-resume contract); holding one across
  a later shuttle call silently aliases the mutated op.

A finding can be suppressed by putting ``# commtm: allow-mixed`` on the
offending line. :func:`check_registry` is the companion runtime check for
Sec. III-D virtualization aliasing: two labels sharing one hardware id is
legal only if they never touch the same data, so it is surfaced as a
warning with both label names.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .findings import ERROR, WARNING, Finding

#: Op constructors recognized in ``yield`` expressions.
UNLABELED_LOAD = "Load"
UNLABELED_STORE = "Store"
LABELED_OPS = ("LabeledLoad", "LabeledStore", "LoadGather")
GATHER_OP = "LoadGather"

#: ThreadCtx shuttle methods → the op kind they yield. ``ctx.work`` is
#: tracked only by the shuttle-held check (it carries no address/label).
SHUTTLE_OPS = {
    "load": UNLABELED_LOAD,
    "store": UNLABELED_STORE,
    "labeled_load": "LabeledLoad",
    "labeled_store": "LabeledStore",
    "load_gather": GATHER_OP,
}
SHUTTLE_RECEIVER = "ctx"

#: Built-in label factories → whether the label they build has a splitter.
FACTORY_HAS_SPLITTER = {
    "add_label": True,
    "min_label": False,
    "max_label": False,
    "oput_label": False,
    "or_label": False,
}

#: Standard registered label names (``machine.labels.get("ADD")`` sites).
LABEL_NAME_HAS_SPLITTER = {
    "ADD": True,
    "MIN": False,
    "MAX": False,
    "OPUT": False,
    "OR": False,
    "LIST": True,
    "TOPK": False,
}

SUPPRESS_COMMENT = "commtm: allow-mixed"


def _call_name(node: ast.expr) -> Optional[str]:
    """Bare name of a call's callee (``f(...)`` or ``m.f(...)``)."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _is_shuttle_call(call: ast.Call) -> Optional[str]:
    """The shuttle method name if this is a ``ctx.<shuttle>(...)`` call."""
    func = call.func
    if isinstance(func, ast.Attribute) \
            and isinstance(func.value, ast.Name) \
            and func.value.id == SHUTTLE_RECEIVER \
            and (func.attr in SHUTTLE_OPS or func.attr == "work"):
        return func.attr
    return None


def _op_kind(call: ast.Call) -> Optional[str]:
    """Op kind of a yielded call: constructor name or shuttle mapping."""
    shuttle = _is_shuttle_call(call)
    if shuttle is not None:
        return SHUTTLE_OPS.get(shuttle)  # ctx.work -> None (no address)
    name = _call_name(call)
    if name in (UNLABELED_LOAD, UNLABELED_STORE) + LABELED_OPS:
        return name
    return None


def _splitter_from_call(call: ast.Call,
                        local_factories: Dict[str, bool]) -> Optional[bool]:
    """Does the label built by this call have a splitter? None = unknown."""
    name = _call_name(call)
    if name in FACTORY_HAS_SPLITTER:
        return FACTORY_HAS_SPLITTER[name]
    if name in local_factories:
        return local_factories[name]
    if name in ("wordwise_label", "Label"):
        for kw in call.keywords:
            if kw.arg in ("split_word", "split_line") \
                    and not (isinstance(kw.value, ast.Constant)
                             and kw.value.value is None):
                return True
        # wordwise_label(name, identity, reduce_word, split_word)
        if name == "wordwise_label" and len(call.args) >= 4:
            return True
        return False
    if name in ("register_label", "register") and call.args:
        inner = call.args[0]
        if isinstance(inner, ast.Call):
            return _splitter_from_call(inner, local_factories)
    if name == "get" and call.args:
        key = call.args[0]
        if isinstance(key, ast.Constant) and key.value in LABEL_NAME_HAS_SPLITTER:
            return LABEL_NAME_HAS_SPLITTER[key.value]
    return None


def _collect_local_factories(tree: ast.Module) -> Dict[str, bool]:
    """Map in-file ``def *_label()`` factories to splitter support."""
    factories: Dict[str, bool] = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) \
                or not node.name.endswith("_label"):
            continue
        for ret in ast.walk(node):
            if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call):
                split = _splitter_from_call(ret.value, factories)
                if split is not None:
                    factories[node.name] = split
                break
    return factories


class _LabelResolver:
    """Resolves a label expression at an op site to splitter/registered facts.

    Follows single assignments within the enclosing function, and
    ``self.X = ...`` assignments in the class ``__init__`` for attribute
    references — the dominant patterns in the workload DSL. Anything it
    cannot resolve is treated as unknown (never flagged)."""

    def __init__(self, tree: ast.Module):
        self.local_factories = _collect_local_factories(tree)
        # class name -> attr -> assigned Call (from __init__ and methods)
        self.attr_calls: Dict[str, Dict[str, ast.Call]] = {}
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            attrs = self.attr_calls.setdefault(node.name, {})
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    tgt = sub.targets[0]
                    if isinstance(tgt, ast.Attribute) \
                            and isinstance(tgt.value, ast.Name) \
                            and tgt.value.id == "self":
                        value = self._chase(sub.value, sub, node)
                        if isinstance(value, ast.Call):
                            attrs.setdefault(tgt.attr, value)

    def _chase(self, value: ast.expr, site: ast.AST,
               scope: ast.AST, hops: int = 4) -> Optional[ast.expr]:
        """Follow ``x = y`` chains backwards within ``scope``."""
        while isinstance(value, ast.Name) and hops > 0:
            hops -= 1
            found = None
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name) \
                        and node.targets[0].id == value.id \
                        and node.lineno <= site.lineno:
                    found = node.value
            if found is None:
                return None
            value = found
        return value

    def resolve_call(self, label_expr: ast.expr, site: ast.AST,
                     func: ast.FunctionDef,
                     class_name: Optional[str]) -> Optional[ast.Call]:
        """The Call that produced this label expression, if traceable."""
        if isinstance(label_expr, ast.Attribute) \
                and isinstance(label_expr.value, ast.Name) \
                and label_expr.value.id == "self" and class_name:
            return self.attr_calls.get(class_name, {}).get(label_expr.attr)
        value = self._chase(label_expr, site, func)
        return value if isinstance(value, ast.Call) else None

    def has_splitter(self, call: ast.Call) -> Optional[bool]:
        return _splitter_from_call(call, self.local_factories)


class _Access:
    __slots__ = ("op", "line", "label_dump")

    def __init__(self, op: str, line: int, label_dump: Optional[str]):
        self.op = op
        self.line = line
        self.label_dump = label_dump


def _iter_functions(tree: ast.Module) -> Iterable[
        Tuple[ast.FunctionDef, Optional[str]]]:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub, node.name


def check_source(source: str, filename: str = "<string>") -> List[Finding]:
    """Lint one file's source text; returns its findings."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Finding(pass_name="lint", check="syntax", severity=ERROR,
                        message=f"cannot parse: {exc.msg}",
                        file=filename, line=exc.lineno)]
    lines = source.splitlines()

    def suppressed(lineno: int) -> bool:
        return 0 < lineno <= len(lines) \
            and SUPPRESS_COMMENT in lines[lineno - 1]

    resolver = _LabelResolver(tree)
    findings: List[Finding] = []

    # Factory-created labels that must flow through register(_label).
    factory_made: Dict[str, int] = {}    # name -> lineno of creation
    registered: set = set()
    used_in_ops: Dict[str, int] = {}     # name -> first labeled-op lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            callee = _call_name(node.value)
            if callee in FACTORY_HAS_SPLITTER \
                    or callee in resolver.local_factories \
                    or callee in ("wordwise_label", "Label"):
                factory_made.setdefault(node.targets[0].id, node.lineno)
            if callee in ("register_label", "register"):
                # x = machine.register_label(y) registers y AND x.
                registered.add(node.targets[0].id)
        if isinstance(node, ast.Call) \
                and _call_name(node) in ("register_label", "register"):
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    registered.add(arg.id)

    for func, class_name in _iter_functions(tree):
        # Shuttle-held: a ctx shuttle call anywhere but directly under a
        # ``yield``. The instance is reused and mutated by the next
        # shuttle call, so holding it breaks consume-before-resume.
        yielded_calls = {id(n.value) for n in ast.walk(func)
                         if isinstance(n, ast.Yield) and n.value is not None}
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                shuttle = _is_shuttle_call(node)
                if shuttle is not None and id(node) not in yielded_calls \
                        and not suppressed(node.lineno):
                    findings.append(Finding(
                        pass_name="lint", check="shuttle-held",
                        severity=ERROR, file=filename, line=node.lineno,
                        message=f"ctx.{shuttle}(...) result is not yielded "
                                f"immediately in {func.name}(); shuttle ops "
                                f"are reused per-context and must be "
                                f"consumed before the next shuttle call"))

        per_addr: Dict[str, List[_Access]] = {}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Yield)
                    and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            op = _op_kind(call)
            if op is None:
                continue
            if not call.args:
                continue
            addr_key = ast.dump(call.args[0])
            label_expr = call.args[1] if op in LABELED_OPS \
                and len(call.args) >= 2 else None
            for kw in call.keywords:
                if kw.arg == "label":
                    label_expr = kw.value
            label_dump = ast.dump(label_expr) if label_expr is not None \
                else None
            per_addr.setdefault(addr_key, []).append(
                _Access(op, node.lineno, label_dump))

            if op == GATHER_OP and label_expr is not None:
                made_by = resolver.resolve_call(label_expr, node, func,
                                                class_name)
                if made_by is not None \
                        and resolver.has_splitter(made_by) is False:
                    findings.append(Finding(
                        pass_name="lint", check="gather-without-splitter",
                        severity=ERROR, file=filename, line=node.lineno,
                        label=ast.unparse(label_expr),
                        message="LoadGather on a label whose factory "
                                "defines no splitter; the protocol will "
                                "raise LabelError at runtime"))
            if op in LABELED_OPS and isinstance(label_expr, ast.Name):
                name = label_expr.id
                if name in factory_made:
                    used_in_ops.setdefault(name, node.lineno)

        for addr_key, accesses in per_addr.items():
            labeled = [a for a in accesses if a.op in LABELED_OPS]
            if not labeled:
                continue
            first_labeled = min(a.line for a in labeled)
            addr_src = addr_key
            for node in ast.walk(func):
                if isinstance(node, ast.expr) and ast.dump(node) == addr_key:
                    addr_src = ast.unparse(node)
                    break
            label_dumps = {a.label_dump for a in labeled
                           if a.label_dump is not None}
            if len(label_dumps) > 1:
                findings.append(Finding(
                    pass_name="lint", check="label-conflict", severity=ERROR,
                    file=filename, line=first_labeled,
                    message=f"address {addr_src!r} accessed under "
                            f"{len(label_dumps)} different labels in "
                            f"{func.name}()"))
            for a in accesses:
                if a.op == UNLABELED_STORE and not suppressed(a.line):
                    findings.append(Finding(
                        pass_name="lint", check="mixed-store", severity=ERROR,
                        file=filename, line=a.line,
                        message=f"unlabeled Store to {addr_src!r}, which "
                                f"{func.name}() also accesses with a label; "
                                f"the store bypasses the reduction algebra"))
                elif a.op == UNLABELED_LOAD and a.line < first_labeled \
                        and not suppressed(a.line):
                    findings.append(Finding(
                        pass_name="lint", check="mixed-load-before",
                        severity=WARNING, file=filename, line=a.line,
                        message=f"unlabeled Load of {addr_src!r} before its "
                                f"first labeled access in {func.name}(); "
                                f"this forces a full reduction up front"))

    for name, use_line in sorted(used_in_ops.items()):
        if name not in registered and not suppressed(use_line):
            findings.append(Finding(
                pass_name="lint", check="label-unregistered", severity=ERROR,
                file=filename, line=use_line, label=name,
                message=f"label {name!r} (created at line "
                        f"{factory_made[name]}) is used in labeled "
                        f"operations but never registered; its label_id "
                        f"is still None"))
    return findings


def check_paths(paths: Iterable[Path]) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[Finding] = []
    for path in paths:
        path = Path(path)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            try:
                source = file.read_text()
            except OSError as exc:
                findings.append(Finding(
                    pass_name="lint", check="io", severity=ERROR,
                    file=str(file), message=f"cannot read: {exc}"))
                continue
            findings.extend(check_source(source, filename=str(file)))
    return findings


def check_registry(registry) -> List[Finding]:
    """Flag virtualization aliasing: two labels on one hardware id.

    Safe only when the aliased labels never touch the same data
    (Sec. III-D) — the tool cannot prove that, so aliasing is a warning
    naming both labels."""
    findings: List[Finding] = []
    by_id: Dict[int, List] = {}
    for label in registry._order:
        by_id.setdefault(label.label_id, []).append(label)
    for hw_id, labels in sorted(by_id.items()):
        if len(labels) > 1:
            names = ", ".join(lbl.name for lbl in labels)
            findings.append(Finding(
                pass_name="lint", check="label-aliasing", severity=WARNING,
                label=names,
                message=f"labels {names} share hardware id {hw_id} "
                        f"(virtualization); safe only if they never "
                        f"access the same lines"))
    return findings
