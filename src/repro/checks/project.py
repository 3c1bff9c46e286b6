"""Phase 1 of the two-phase checker: the project-wide semantic index.

Per-file AST rules (REP001, REP012, REP013) see one module at a time,
but hot-path state crosses module boundaries (``out=`` scratch
buffers, ``SharedArrayPool`` lifecycle, generators handed down a call
chain), so a scratch alias or a leaked shared-memory block can sit on
a call edge between two files that are each individually clean.

This module builds the cross-file facts the :class:`DataflowRule`
family (REP008, REP009, REP011) consumes:

* :func:`summarize_module` condenses one parsed file into a
  :class:`ModuleSummary` — import resolution, per-function
  signatures, and derived dataflow facts (scratch-buffer escapes,
  shared-memory ownership, RNG provenance);
* :class:`ProjectIndex` aggregates summaries into a project-wide symbol
  table with a lightweight call graph, chased lazily
  (``returns_scratch``, ``returns_shm`` and ``rng_origin`` follow
  ``return f(...)`` edges with a cycle guard);
* :class:`FunctionAnalysis` is the single-pass, order-aware local
  dataflow walk both the summarizer and the rules share (the rules keep
  the AST nodes for findings; the summary keeps only plain facts).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "ProjectIndex",
    "FunctionAnalysis",
    "Facts",
    "iter_function_analyses",
    "summarize_module",
]

# Sanctioned generator factories (REP011's only blessed origins).
BLESSED_RNG = frozenset(
    {"repro.rng.ensure_generator", "repro.rng.spawn_generators"}
)

# Raw numpy generator constructions REP001 cannot see (Generator over an
# explicit BitGenerator parses as legitimate "Generator machinery").
_RAW_RNG_LEAVES = frozenset({"Generator", "RandomState", "default_rng"})

# The one true shared-memory acquisition primitive.
_SHM_TARGET = "multiprocessing.shared_memory.SharedMemory"

# Method names whose call closes/releases a shared-memory handle.
CLOSE_METHODS = frozenset({"close", "unlink", "shutdown", "terminate"})

# Methods a resource-owning class may hold its teardown in.
CLOSER_METHOD_NAMES = frozenset(
    {"close", "shutdown", "stop", "terminate", "unlink", "__exit__", "__del__"}
)

# Calls that return a *new* array (or scalar) and therefore launder a
# scratch-buffer taint.
_LAUNDER_CALLS = frozenset(
    {"copy", "ascontiguousarray", "array", "tolist", "copyto"}
)


@dataclass(frozen=True)
class Facts:
    """Dataflow classification of one expression (or local binding).

    Attributes:
        scratch: value aliases a layer-owned ``_scratch_buffer``.
        shm: value owns a live shared-memory acquisition.
        rng: generator provenance — ``"blessed"`` (repro.rng),
            ``"raw"`` (ad-hoc numpy construction), ``"param"``
            (caller's obligation), or ``None`` (not a generator /
            unknown).
        call_target: resolved dotted callee when the value is a direct
            call result, else ``None``.
    """

    scratch: bool = False
    shm: bool = False
    rng: Optional[str] = None
    call_target: Optional[str] = None


_NO_FACTS = Facts()


@dataclass(frozen=True)
class FunctionSummary:
    """Cross-file facts about one function or method.

    Attributes:
        qualname: name within the module (``"Pool.close"`` for methods).
        params: positional-or-keyword parameter names, ``self`` removed.
        return_calls: resolved callees whose result the function
            returns (the call-graph edges the index chases).
        returns_scratch: some return aliases a ``_scratch_buffer``.
        returns_shm: some return hands the caller an owned
            shared-memory acquisition.
        rng_origin: provenance of a returned generator (see
            :class:`Facts`).
    """

    qualname: str
    params: Tuple[str, ...] = ()
    return_calls: Tuple[str, ...] = ()
    returns_scratch: bool = False
    returns_shm: bool = False
    rng_origin: Optional[str] = None


@dataclass(frozen=True)
class ModuleSummary:
    """Phase-1 facts for one module: symbols, imports, function summaries.

    Attributes:
        module: dotted module name, or a ``<file:...>`` pseudo-name for
            files outside any package (examples, scripts).
        imports: local name → resolved dotted target.
        functions: qualname → :class:`FunctionSummary`.
        classes: class name → method-name tuple.
        shm_owner_classes: classes whose methods acquire shared memory
            (constructing one is itself an acquisition).
    """

    module: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    shm_owner_classes: Tuple[str, ...] = ()


def _collect_imports(tree: ast.Module, module: str, is_package: bool) -> Dict[str, str]:
    """Local binding → dotted target, for top-level and nested imports."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.split(".") if module else []
                # A regular module's own name is not part of its package.
                anchor = parts if is_package else parts[:-1]
                up = node.level - 1
                anchor = anchor[: len(anchor) - up] if up else anchor
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


class _Resolver:
    """Resolve a local attribute chain to a project-wide dotted name."""

    def __init__(
        self,
        module: str,
        imports: Dict[str, str],
        module_defs: Set[str],
        class_methods: Dict[str, Set[str]],
    ) -> None:
        self.module = module
        self.imports = imports
        self.module_defs = module_defs
        self.class_methods = class_methods

    def resolve(
        self, chain: Sequence[str], class_name: Optional[str] = None
    ) -> Optional[str]:
        """Dotted target for ``chain`` (``["np","random","Generator"]``)."""
        if not chain:
            return None
        head = chain[0]
        rest = chain[1:]
        if head == "self" and class_name is not None:
            if len(rest) == 1 and rest[0] in self.class_methods.get(
                class_name, set()
            ):
                return f"{self.module}.{class_name}.{rest[0]}"
            return None
        if head in self.imports:
            target = self.imports[head]
            return ".".join([target, *rest]) if rest else target
        if head in self.module_defs:
            return ".".join([self.module, head, *rest])
        return None


def _chain(node: ast.AST) -> Optional[List[str]]:
    """Flatten ``a.b.c`` into parts; ``None`` for non-name chains."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    return parts


def _is_raw_rng_target(dotted: str) -> bool:
    parts = dotted.split(".")
    return (
        len(parts) >= 3
        and parts[0] in ("numpy", "np")
        and parts[1] == "random"
        and parts[-1] in _RAW_RNG_LEAVES
    )


@dataclass
class ReturnFact:
    """One ``return`` statement and the classification of its value."""

    node: ast.Return
    facts: Facts


@dataclass
class AcquisitionFact:
    """One shared-memory acquisition site.

    Attributes:
        node: the acquiring call (finding anchor).
        name: local variable bound to the handle, if any.
        attr: ``self.<attr>`` the handle was stored to, if any.
        in_with: acquisition happened inside a ``with`` item (a
            ``closing(...)``-style guard owns the teardown).
        conditional: acquisition sits inside a conditional branch.
    """

    node: ast.Call
    name: Optional[str] = None
    attr: Optional[str] = None
    in_with: bool = False
    conditional: bool = False


@dataclass
class CloseFact:
    """A ``<name>.close()``-style call and its control-flow context."""

    name: str
    conditional: bool
    in_finally: bool


@dataclass
class StoreFact:
    """A persisting store (``self.attr = ...`` or module global)."""

    node: ast.stmt
    target: str
    facts: Facts
    is_self: bool
    value_name: Optional[str] = None


@dataclass
class CallFact:
    """One call site: the node, its resolved callee and its leaf name.

    Attributes:
        node: the :class:`ast.Call`.
        target: resolved dotted callee, or ``None``.
        leaf: last identifier of the callee chain.
    """

    node: ast.Call
    target: Optional[str]
    leaf: Optional[str]


class FunctionAnalysis:
    """Single-pass, statement-ordered local dataflow over one function.

    Both consumers share this walk: :func:`summarize_module` keeps the
    serializable facts, the REP008, REP009 and REP011 rules keep the AST
    nodes.

    Args:
        node: the function definition (or an :class:`ast.Module` for
            module-level statements, with ``name="<module>"``).
        resolver: chain resolver for the enclosing module.
        class_name: enclosing class for methods (``self`` resolution).
    """

    def __init__(
        self,
        node,
        resolver: _Resolver,
        class_name: Optional[str] = None,
        index: Optional["ProjectIndex"] = None,
    ) -> None:
        self.node = node
        self.resolver = resolver
        self.class_name = class_name
        self.index = index
        self.is_module_level = isinstance(node, ast.Module)
        self.name = "<module>" if self.is_module_level else node.name
        self.params: List[str] = []
        self.env: Dict[str, Facts] = {}
        self.returns: List[ReturnFact] = []
        self.acquisitions: List[AcquisitionFact] = []
        self.closes: List[CloseFact] = []
        self.attr_closes: Set[str] = set()
        self.self_close_calls: Set[str] = set()
        self.stores: List[StoreFact] = []
        self.name_binds: List[StoreFact] = []
        self.calls: List[CallFact] = []
        self.escaped: Set[str] = set()
        self.has_atexit = False
        self._with_depth = 0
        self._cond_depth = 0
        self._finally_depth = 0
        if not self.is_module_level:
            self._bind_params(node.args)
        body = node.body
        for stmt in body:
            self._visit(stmt)

    # -- setup ----------------------------------------------------------
    def _bind_params(self, args: ast.arguments) -> None:
        every = [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ]
        names = [a.arg for a in every]
        if self.class_name is not None and names and names[0] in (
            "self",
            "cls",
        ):
            names = names[1:]
        self.params = names
        for name in names:
            if name in ("rng", "generator") or name.endswith("_rng"):
                self.env[name] = Facts(rng="param")

    # -- classification -------------------------------------------------
    def classify(self, expr: ast.AST) -> Facts:
        """Dataflow facts of one expression (see :class:`Facts`)."""
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, _NO_FACTS)
        if isinstance(expr, ast.Await):
            return self.classify(expr.value)
        if isinstance(expr, ast.IfExp):
            left = self.classify(expr.body)
            right = self.classify(expr.orelse)
            return Facts(
                scratch=left.scratch or right.scratch,
                shm=left.shm or right.shm,
            )
        if isinstance(expr, ast.Call):
            return self._classify_call(expr)
        return _NO_FACTS

    def _classify_call(self, call: ast.Call) -> Facts:
        chain = _chain(call.func)
        leaf = chain[-1] if chain else None
        if leaf in _LAUNDER_CALLS:
            return _NO_FACTS
        scratch = leaf == "_scratch_buffer"
        for kw in call.keywords:
            if kw.arg in ("out", "padded_out") and self.classify(kw.value).scratch:
                scratch = True
        target = (
            self.resolver.resolve(chain, self.class_name) if chain else None
        )
        shm = False
        rng: Optional[str] = None
        if target is not None:
            if target == _SHM_TARGET:
                shm = any(
                    kw.arg == "create"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in call.keywords
                )
            elif target in BLESSED_RNG:
                rng = "blessed"
            elif _is_raw_rng_target(target):
                rng = "raw"
        if self.index is not None and target is not None:
            # Cross-file facts: fold the callee's chased summary in.
            scratch = scratch or self.index.returns_scratch(target)
            shm = shm or self.index.returns_shm(target)
            rng = rng or self.index.rng_origin(target)
        return Facts(
            scratch=scratch,
            shm=shm,
            rng=rng,
            call_target=target,
        )

    # -- statement walk -------------------------------------------------
    def _visit(self, stmt: ast.stmt) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested scopes analyzed separately
        if isinstance(stmt, ast.Return):
            self._scan_expressions(stmt)
            if stmt.value is not None:
                self.returns.append(
                    ReturnFact(node=stmt, facts=self.classify(stmt.value))
                )
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._scan_expressions(stmt)
            self._visit_assign(stmt)
            return
        if isinstance(stmt, ast.If):
            self._scan_expressions(stmt.test)
            self._visit_block(stmt.body, conditional=True)
            self._visit_block(stmt.orelse, conditional=True)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expressions(stmt.iter)
            self._visit_block(stmt.body, conditional=True)
            self._visit_block(stmt.orelse, conditional=True)
            return
        if isinstance(stmt, ast.While):
            self._scan_expressions(stmt.test)
            self._visit_block(stmt.body, conditional=True)
            self._visit_block(stmt.orelse, conditional=True)
            return
        if isinstance(stmt, ast.Try):
            self._visit_block(stmt.body, conditional=False)
            for handler in stmt.handlers:
                self._visit_block(handler.body, conditional=True)
            self._visit_block(stmt.orelse, conditional=True)
            self._finally_depth += 1
            self._visit_block(stmt.finalbody, conditional=False)
            self._finally_depth -= 1
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expressions(item.context_expr)
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    # ``with closing(acquire())`` — the context manager
                    # owns the teardown, so the binding is not an
                    # unmanaged acquisition.
                    facts = self.classify(item.context_expr)
                    self.env[item.optional_vars.id] = facts
            self._visit_block(stmt.body, conditional=False)
            return
        if isinstance(stmt, ast.Expr):
            self._scan_expressions(stmt)
            facts = self.classify(stmt.value)
            if facts.shm and isinstance(stmt.value, ast.Call):
                # Acquisition whose handle is immediately dropped: it
                # can never be closed.
                self.acquisitions.append(
                    AcquisitionFact(
                        node=stmt.value,
                        conditional=self._cond_depth > 0,
                    )
                )
            return
        self._scan_expressions(stmt)

    def _visit_block(self, body, conditional: bool) -> None:
        if conditional:
            self._cond_depth += 1
        for stmt in body:
            self._visit(stmt)
        if conditional:
            self._cond_depth -= 1

    def _visit_assign(self, stmt) -> None:
        value = getattr(stmt, "value", None)
        if value is None:
            return
        facts = self.classify(value)
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            self._bind_target(stmt, target, facts, value)

    def _bind_target(self, stmt, target, facts: Facts, value) -> None:
        if isinstance(target, ast.Name):
            if isinstance(stmt, ast.AugAssign):
                return  # ``x += ...`` keeps x's own facts
            self.env[target.id] = facts
            self.name_binds.append(
                StoreFact(
                    node=stmt, target=target.id, facts=facts, is_self=False
                )
            )
            if facts.shm:
                self.acquisitions.append(
                    AcquisitionFact(
                        node=value if isinstance(value, ast.Call) else stmt,
                        name=target.id,
                        in_with=self._with_depth > 0,
                        conditional=self._cond_depth > 0,
                    )
                )
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            # Tuple unpacking of a scratch-producing call taints every
            # bound name (``cols, h, w = im2col(..., out=scratch)``).
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.env[element.id] = Facts(scratch=facts.scratch)
            return
        if isinstance(target, ast.Attribute):
            chain = _chain(target)
            if chain and chain[0] == "self" and len(chain) == 2:
                self.stores.append(
                    StoreFact(
                        node=stmt,
                        target=chain[1],
                        facts=facts,
                        is_self=True,
                        value_name=(
                            value.id if isinstance(value, ast.Name) else None
                        ),
                    )
                )
                if isinstance(value, ast.Name):
                    self.escaped.add(value.id)
                if facts.shm:
                    self.acquisitions.append(
                        AcquisitionFact(
                            node=value if isinstance(value, ast.Call) else stmt,
                            attr=chain[1],
                            in_with=self._with_depth > 0,
                            conditional=self._cond_depth > 0,
                        )
                    )
            return
        if isinstance(target, ast.Subscript):
            # d[k] = v escapes v into a container.
            for name in ast.walk(value):
                if isinstance(name, ast.Name):
                    self.escaped.add(name.id)

    def _scan_expressions(self, root: ast.AST) -> None:
        """Record calls, closes, escapes inside one simple statement or
        one compound-statement header expression."""
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            chain = _chain(node.func)
            leaf = chain[-1] if chain else None
            target = (
                self.resolver.resolve(chain, self.class_name)
                if chain
                else None
            )
            self.calls.append(CallFact(node=node, target=target, leaf=leaf))
            if chain and leaf in CLOSE_METHODS:
                if len(chain) == 2 and chain[0] == "self":
                    self.self_close_calls.add(leaf)
                elif len(chain) == 2:
                    self.closes.append(
                        CloseFact(
                            name=chain[0],
                            conditional=self._cond_depth > 0,
                            in_finally=self._finally_depth > 0,
                        )
                    )
                elif len(chain) == 3 and chain[0] == "self":
                    self.attr_closes.add(chain[1])
            if target == "atexit.register" or (
                chain and chain[0] == "atexit" and leaf == "register"
            ):
                self.has_atexit = True
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    self.escaped.add(arg.id)
                else:
                    # ``atexit.register(pool.close)`` — passing a bound
                    # close method hands the teardown to the callee.
                    arg_chain = _chain(arg)
                    if (
                        arg_chain
                        and len(arg_chain) == 2
                        and arg_chain[-1] in CLOSE_METHODS
                    ):
                        self.closes.append(
                            CloseFact(
                                name=arg_chain[0],
                                conditional=self._cond_depth > 0,
                                in_finally=self._finally_depth > 0,
                            )
                        )
            for kw in node.keywords:
                if isinstance(kw.value, ast.Name):
                    self.escaped.add(kw.value.id)


def iter_function_analyses(
    tree: ast.Module, resolver: _Resolver, index: Optional["ProjectIndex"] = None
):
    """Yield ``(analysis, class_name)`` for every function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield FunctionAnalysis(node, resolver, index=index), None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield (
                        FunctionAnalysis(
                            item, resolver, class_name=node.name, index=index
                        ),
                        node.name,
                    )


def build_resolver(
    tree: ast.Module, module: str, is_package: bool = False
) -> _Resolver:
    """Build the chain resolver for one parsed module."""
    imports = _collect_imports(tree, module, is_package)
    module_defs: Set[str] = set()
    class_methods: Dict[str, Set[str]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module_defs.add(node.name)
        elif isinstance(node, ast.ClassDef):
            module_defs.add(node.name)
            class_methods[node.name] = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    return _Resolver(module, imports, module_defs, class_methods)


def _summarize_function(
    analysis: FunctionAnalysis, class_name: Optional[str]
) -> FunctionSummary:
    qualname = (
        f"{class_name}.{analysis.name}" if class_name else analysis.name
    )
    return_calls: List[str] = []
    returns_scratch = False
    returns_shm = False
    rng_origin: Optional[str] = None
    for ret in analysis.returns:
        facts = ret.facts
        if facts.scratch:
            returns_scratch = True
        if facts.shm:
            returns_shm = True
        if facts.rng == "raw":
            rng_origin = "raw"
        elif facts.rng in ("blessed", "param") and rng_origin is None:
            rng_origin = facts.rng
        if facts.call_target is not None:
            return_calls.append(facts.call_target)
    return FunctionSummary(
        qualname=qualname,
        params=tuple(analysis.params),
        return_calls=tuple(dict.fromkeys(return_calls)),
        returns_scratch=returns_scratch,
        returns_shm=returns_shm,
        rng_origin=rng_origin,
    )


def summarize_module(
    tree: ast.Module,
    module: Optional[str],
    path: str,
    is_package: bool = False,
) -> ModuleSummary:
    """Condense one parsed file into its :class:`ModuleSummary`.

    Args:
        tree: parsed module.
        module: dotted module name; ``None`` files get a stable
            ``<file:path>`` pseudo-name so their local symbols still
            resolve.
        path: source path (names a ``None`` module's pseudo-module).
        is_package: whether the file is a package ``__init__``.
    """
    key = module if module is not None else f"<file:{path}>"
    resolver = build_resolver(tree, key, is_package)
    functions: Dict[str, FunctionSummary] = {}
    classes: Dict[str, Tuple[str, ...]] = {}
    shm_owners: List[str] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            classes[node.name] = tuple(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    for analysis, class_name in iter_function_analyses(tree, resolver):
        summary = _summarize_function(analysis, class_name)
        functions[summary.qualname] = summary
        if class_name is not None and any(
            acq.node is not None for acq in analysis.acquisitions
        ):
            if class_name not in shm_owners:
                shm_owners.append(class_name)
    return ModuleSummary(
        module=key,
        imports=resolver.imports,
        functions=functions,
        classes=classes,
        shm_owner_classes=tuple(shm_owners),
    )


class ProjectIndex:
    """Project-wide symbol table with lazily chased call-graph facts.

    Args:
        summaries: one :class:`ModuleSummary` per indexed file.
    """

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        self._functions: Dict[str, FunctionSummary] = {}
        self._classes: Dict[str, str] = {}
        self._shm_owners: Set[str] = set()
        for summary in summaries:
            self.modules[summary.module] = summary
            for qualname, fn in summary.functions.items():
                self._functions[f"{summary.module}.{qualname}"] = fn
            for class_name in summary.classes:
                self._classes[f"{summary.module}.{class_name}"] = (
                    summary.module
                )
            for class_name in summary.shm_owner_classes:
                self._shm_owners.add(f"{summary.module}.{class_name}")

    # -- lookups --------------------------------------------------------
    def function(self, dotted: Optional[str]) -> Optional[FunctionSummary]:
        """Function summary for a resolved dotted name, if indexed."""
        if dotted is None:
            return None
        found = self._functions.get(dotted)
        if found is not None:
            return found
        # A bare class call is its constructor.
        if dotted in self._classes:
            return self._functions.get(f"{dotted}.__init__")
        return None

    def is_shm_owner_class(self, dotted: Optional[str]) -> bool:
        """Whether ``dotted`` names a class that acquires shared memory."""
        return dotted is not None and dotted in self._shm_owners

    # -- chased facts ---------------------------------------------------
    def _chase(self, dotted: Optional[str], fact, seen=None):
        if dotted is None:
            return None
        seen = seen or set()
        if dotted in seen:
            return None
        seen.add(dotted)
        summary = self.function(dotted)
        if summary is None:
            return None
        direct = fact(summary)
        if direct:
            return direct
        for callee in summary.return_calls:
            chased = self._chase(callee, fact, seen)
            if chased:
                return chased
        return None

    def returns_scratch(self, dotted: Optional[str]) -> bool:
        """Whether ``dotted`` hands back a scratch-buffer alias."""
        return bool(self._chase(dotted, lambda s: s.returns_scratch))

    def returns_shm(self, dotted: Optional[str]) -> bool:
        """Whether ``dotted`` hands back an owned shm acquisition."""
        if self.is_shm_owner_class(dotted):
            return True
        return bool(self._chase(dotted, lambda s: s.returns_shm))

    def rng_origin(
        self, dotted: Optional[str], _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Provenance of a generator returned by ``dotted``.

        The blessed factories themselves construct generators with raw
        numpy calls — that is their job — so they short-circuit to
        ``"blessed"`` before any summary is consulted.
        """
        if dotted is None:
            return None
        if dotted in BLESSED_RNG:
            return "blessed"
        seen = _seen or set()
        if dotted in seen:
            return None
        seen.add(dotted)
        summary = self.function(dotted)
        if summary is None:
            return None
        if summary.rng_origin:
            return summary.rng_origin
        for callee in summary.return_calls:
            origin = self.rng_origin(callee, seen)
            if origin:
                return origin
        return None
