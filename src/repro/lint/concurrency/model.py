"""Static concurrency model: locks, threads and shared state per class.

This module turns parsed source files into a whole-program
:class:`ConcurrencyModel` that the analyzer passes
(:mod:`repro.lint.concurrency.analyzer`) consume.  The model is built
around one organising idea: **allocating a lock is a declaration of
concurrency**.  A class that assigns ``self._lock = threading.Lock()``
(or a ``Condition`` / ``RLock`` / semaphore) has announced that its
methods run on more than one thread, so every one of its mixed-method
attribute writes, every nested acquisition and every blocking call made
under one of its locks becomes analyzable — and checkable — state.

What the extraction records, per class:

* **lock attributes** — ``self.X = threading.Lock()`` and friends, with
  their kind (``lock`` / ``rlock`` / ``condition`` / ``semaphore``).
  Lock identity is ``ClassName.attr`` of the *defining* class, so a
  subclass using an inherited lock maps to the same graph node.
* **attribute types** — ``self.queue = AdmissionQueue(...)`` records
  that ``.queue`` is an ``AdmissionQueue``; this is what lets the lock
  graph follow ``self.queue.close()`` into another class's lock.
  Parameter annotations (``other: "SessionStats"``) resolve the same
  way.  Assignments to stdlib factories (``threading.Thread``,
  ``queue.SimpleQueue``, ``ctx.Pipe()``, ``socket.socketpair()``)
  record opaque markers used by the blocking-call and fork-safety
  passes.
* **events** — a structured walk of every method body tracking the
  lexically held lock set through ``with self._lock:`` blocks:
  attribute writes (including subscript stores, mutating method calls
  like ``.append`` and ``heapq.heappush(self._heap, ...)``), lock
  acquisitions, calls (with best-effort receiver typing), blocking
  calls, and ``multiprocessing.Process`` fork points.

Two conventions the model understands because the codebase uses them:

* a method named ``*_locked`` is a **locked helper** — its contract is
  that the caller already holds the class lock.  Its writes count as
  guarded, and calls to it from an unlocked context are a finding.
* a closure defined inside a method (the scheduler's executor bodies)
  runs on a *different* thread later, so the held-lock set resets to
  empty at the closure boundary while writes still attribute to the
  enclosing method.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..rules import dotted_parts

#: threading factory -> lock kind
LOCK_FACTORIES = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
}

#: lock kinds that can guard shared state (semaphores order, not guard)
GUARD_KINDS = frozenset({"lock", "rlock", "condition"})

#: method names that mutate their receiver in place
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "remove", "discard", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "sort", "reverse",
})

#: heapq functions that mutate their first argument
HEAPQ_MUTATORS = frozenset({
    "heappush", "heappop", "heapify", "heappushpop", "heapreplace",
})

#: method names that can block the calling thread
BLOCKING_METHODS = frozenset({
    "send", "recv", "send_bytes", "recv_bytes", "poll", "join",
    "result", "wait", "wait_for", "acquire", "get", "put", "sleep",
    # socket calls (the repro.cluster wire protocol): every one of
    # these parks the thread on the kernel until the peer cooperates
    "sendall", "recv_into", "accept", "connect", "create_connection",
})

#: ``.get`` / ``.put`` only block on real queue types; on an untyped
#: receiver they are far more likely dict/registry accessors, so they
#: are flagged only when the receiver type says "queue"
QUEUE_GATED = frozenset({"get", "put"})
BLOCKING_QUEUE_TYPES = frozenset({
    "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
    "multiprocessing.Queue", "multiprocessing.JoinableQueue",
})
#: (receiver type, method) pairs that never block
NONBLOCKING = frozenset({
    ("queue.SimpleQueue", "put"),
    ("queue.Queue", "put_nowait"),
    ("queue.SimpleQueue", "put_nowait"),
    ("queue.Queue", "get_nowait"),
    ("queue.SimpleQueue", "get_nowait"),
})

#: method names too generic for unique-name call resolution — resolving
#: ``x.start()`` to *our* ``Scheduler.start`` when ``x`` is a
#: ``threading.Thread`` would fabricate lock-graph edges
GENERIC_METHOD_NAMES = frozenset({
    "start", "stop", "close", "run", "join", "get", "put", "send",
    "recv", "wait", "acquire", "release", "notify", "notify_all",
    "result", "submit", "shutdown", "items", "keys", "values", "append",
    "add", "pop", "clear", "update", "copy", "count", "index", "read",
    "write", "flush", "poll", "set", "is_set", "cancel", "done",
    "format", "split", "strip", "sendall", "accept", "connect",
})

#: construction-family methods whose writes are publication-safe (the
#: object is not yet visible to other threads)
INIT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------

@dataclass
class Event:
    """Base event: where it happened and what locks were held there.

    ``held`` is the tuple of lock node names (``"Class.attr"``)
    lexically held, innermost last; ``assumed`` are locks a
    ``*_locked`` helper is contractually holding — they guard writes
    (CON001) but never generate order edges (CON002), because which of
    several class locks the caller holds is not lexically knowable.
    """

    line: int
    held: tuple = ()
    assumed: tuple = ()

    @property
    def held_or_assumed(self):
        """Every lock this event may be running under."""
        return tuple(self.held) + tuple(self.assumed)


@dataclass
class AcquireEvent(Event):
    """A lock acquisition: ``with self.X:`` or ``self.X.acquire()``."""

    node: str = ""
    via_with: bool = True


@dataclass
class WriteEvent(Event):
    """One write to ``self.<attr>`` (assign, subscript store, mutating
    method call, or a heapq mutation of the attribute)."""

    attr: str = ""
    method: str = ""
    how: str = "assign"


@dataclass
class CallEvent(Event):
    """A method call with best-effort receiver typing.

    ``receiver`` is ``"self"``, an analyzed class name, a stdlib
    marker (``"threading.Thread"``), or ``None`` when unknown.
    """

    name: str = ""
    receiver: str | None = None


@dataclass
class BlockingEvent(Event):
    """A potentially blocking call (names in :data:`BLOCKING_METHODS`)."""

    name: str = ""
    receiver: str | None = None
    on_node: str | None = None  # set when blocking on a modeled lock


@dataclass
class ForkEvent(Event):
    """A ``multiprocessing.Process(...)`` construction site."""

    target_attr: str | None = None   # self.<attr> target, if that form
    target_is_name: bool = False     # plain function target
    arg_self_attrs: tuple = ()       # self.<attr> expressions in args=


@dataclass
class MethodInfo:
    """One method's extracted facts."""

    name: str
    line: int = 0
    is_static: bool = False
    is_locked_helper: bool = False
    acquires: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    blocking: list = field(default_factory=list)
    forks: list = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: its locks, attribute types and per-method events."""

    name: str
    path: str
    rel: str
    line: int = 0
    bases: tuple = ()
    methods: dict = field(default_factory=dict)
    lock_attrs: dict = field(default_factory=dict)   # attr -> kind
    pipe_attrs: set = field(default_factory=set)     # channel ends
    attr_types: dict = field(default_factory=dict)   # attr -> type name

    def lock_node(self, attr) -> str:
        """Graph node name for a lock attribute of this class."""
        return f"{self.name}.{attr}"


class ConcurrencyModel:
    """Whole-program view: every analyzed class plus resolution helpers."""

    def __init__(self):
        self.classes: "dict[str, ClassInfo]" = {}
        self._methods_by_name = None

    # ------------------------------------------------------------------
    def add(self, info: ClassInfo) -> None:
        """Register one extracted class (last definition wins)."""
        self.classes[info.name] = info
        self._methods_by_name = None

    def mro(self, class_name):
        """The analyzed part of a class's MRO, subclass first."""
        out, queue = [], [class_name]
        seen = set()
        while queue:
            name = queue.pop(0)
            if name in seen or name not in self.classes:
                continue
            seen.add(name)
            out.append(self.classes[name])
            queue.extend(self.classes[name].bases)
        return out

    def effective_locks(self, class_name):
        """``{attr: (defining ClassInfo, kind)}`` including inherited."""
        locks = {}
        for cls in reversed(self.mro(class_name)):
            for attr, kind in cls.lock_attrs.items():
                locks[attr] = (cls, kind)
        return locks

    def guard_nodes(self, class_name):
        """Lock nodes of *class_name* that can guard state."""
        return tuple(
            cls.lock_node(attr)
            for attr, (cls, kind) in self.effective_locks(class_name).items()
            if kind in GUARD_KINDS
        )

    def find_method(self, class_name, method):
        """Resolve *method* through the analyzed MRO; ``(cls, info)``."""
        for cls in self.mro(class_name):
            if method in cls.methods:
                return cls, cls.methods[method]
        return None, None

    def unique_method(self, method):
        """``(cls, info)`` iff exactly one analyzed class defines it and
        the name is specific enough to trust (see
        :data:`GENERIC_METHOD_NAMES`)."""
        if method in GENERIC_METHOD_NAMES:
            return None, None
        if self._methods_by_name is None:
            index = {}
            for cls in self.classes.values():
                for name in cls.methods:
                    index.setdefault(name, []).append(cls)
            self._methods_by_name = index
        owners = self._methods_by_name.get(method, [])
        # inherited overrides share the name; only a single-class owner
        # (counting a base and its subclasses as distinct) is unambiguous
        if len(owners) == 1:
            return owners[0], owners[0].methods[method]
        return None, None

    def resolve_call(self, cls_name, call: CallEvent):
        """Best-effort resolution of a call event to ``(cls, method)``."""
        if call.receiver == "self":
            return self.find_method(cls_name, call.name)
        if call.receiver in self.classes:
            return self.find_method(call.receiver, call.name)
        if call.receiver is None:
            return self.unique_method(call.name)
        return None, None  # typed to something outside the model


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

def _self_attr(node):
    """``self.X`` -> ``"X"``; None otherwise."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _call_tail(node):
    """Last attribute name of a call's func, or the bare name."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _channel_pair_kind(node):
    """The end type of a two-ended channel factory call, else ``None``:
    ``"pipe"`` for ``Pipe()``, ``"socket.socket"`` for
    ``socket.socketpair()``."""
    if not isinstance(node, ast.Call):
        return None
    if _call_tail(node) == "Pipe":
        return "pipe"
    if dotted_parts(node.func) == ["socket", "socketpair"]:
        return "socket.socket"
    return None


def _annotation_name(node):
    """A parameter annotation as a plain class name, if that simple."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\" ")
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _value_type(node, known_classes):
    """Infer the type a ``self.X = <value>`` assignment gives ``X``.

    Returns an analyzed class name, a stdlib marker such as
    ``"threading.Thread"`` / ``"queue.SimpleQueue"`` / ``"pipe"``, or
    ``None`` when the value is opaque (a parameter, an expression).
    """
    if not isinstance(node, ast.Call):
        return None
    parts = dotted_parts(node.func)
    if not parts:
        return None
    tail = parts[-1]
    if tail in known_classes:
        return tail
    if tail == "Pipe":
        return "pipe"
    if len(parts) >= 2 and parts[0] == "socket":
        # socket.socket(...) and socket.create_connection(...) both
        # hand back a socket — the receiver type that makes its
        # send/recv family count as blocking calls
        return "socket.socket"
    if len(parts) >= 2 and parts[0] in ("threading", "queue",
                                        "multiprocessing", "mp"):
        head = "multiprocessing" if parts[0] == "mp" else parts[0]
        return f"{head}.{tail}"
    if tail in ("Thread", "ThreadPoolExecutor", "ProcessPoolExecutor"):
        return f"stdlib.{tail}"
    if tail in ("SimpleQueue", "Queue", "LifoQueue", "PriorityQueue"):
        return f"queue.{tail}"
    return None


class _ClassExtractor:
    """Extract one :class:`ClassInfo` from a ``ast.ClassDef``."""

    def __init__(self, classdef, src, known_classes):
        self.classdef = classdef
        self.src = src
        self.known_classes = known_classes
        self.info = ClassInfo(
            name=classdef.name,
            path=src.path,
            rel=src.rel,
            line=classdef.lineno,
            bases=tuple(
                p[-1] for p in (dotted_parts(b) for b in classdef.bases)
                if p
            ),
        )

    # -- pass 1: locks, pipes and attribute types ----------------------
    def scan_attributes(self):
        for node in ast.walk(self.classdef):
            if isinstance(node, ast.Assign):
                self._scan_assign(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._scan_assign([node.target], node.value)

    def _scan_assign(self, targets, value):
        for target in targets:
            if isinstance(target, ast.Tuple):
                # self.a, b = ctx.Pipe() / socket.socketpair() — both
                # are ends of one channel, which must not cross a fork
                kind = _channel_pair_kind(value)
                if kind is not None:
                    for elt in target.elts:
                        attr = _self_attr(elt)
                        if attr is not None:
                            self.info.pipe_attrs.add(attr)
                            self.info.attr_types[attr] = kind
                continue
            attr = _self_attr(target)
            if attr is None:
                continue
            kind = self._lock_kind(value)
            if kind is not None:
                self.info.lock_attrs[attr] = kind
                continue
            inferred = _value_type(value, self.known_classes)
            if inferred == "pipe":
                self.info.pipe_attrs.add(attr)
            if inferred is not None:
                self.info.attr_types.setdefault(attr, inferred)

    @staticmethod
    def _lock_kind(value):
        if not isinstance(value, ast.Call):
            return None
        parts = dotted_parts(value.func)
        if not parts:
            return None
        tail = parts[-1]
        if tail not in LOCK_FACTORIES:
            return None
        # plain `Lock()` from-import, or dotted `threading.Lock()`
        if len(parts) == 1 or parts[0] in ("threading", "mp",
                                           "multiprocessing"):
            return LOCK_FACTORIES[tail]
        return None

    # -- pass 2: per-method event walks --------------------------------
    def scan_methods(self, model):
        for node in self.classdef.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.info.methods[node.name] = self._walk_method(node, model)

    def _walk_method(self, funcdef, model):
        is_static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in funcdef.decorator_list
        )
        info = MethodInfo(
            name=funcdef.name,
            line=funcdef.lineno,
            is_static=is_static,
            is_locked_helper=funcdef.name.endswith("_locked"),
        )
        param_types = {}
        args = funcdef.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if a.annotation is not None:
                name = _annotation_name(a.annotation)
                if name in self.known_classes:
                    param_types[a.arg] = name
        walker = _MethodWalker(self, info, model, param_types)
        if info.is_locked_helper:
            guards = model.guard_nodes(self.info.name)
            if len(guards) == 1:
                # single-lock class: the helper provably holds that lock
                walker.held.append(guards[0])
            else:
                walker.assumed.extend(guards)
        walker.walk(funcdef.body)
        return info


class _MethodWalker:
    """Statement-level walk of one method body with a held-lock stack."""

    def __init__(self, extractor, method, model, param_types):
        self.ex = extractor
        self.method = method
        self.model = model
        self.param_types = param_types
        self.held = []      # lock node names, innermost last
        self.assumed = []   # *_locked contract holds (multi-lock class)

    # ------------------------------------------------------------------
    def _event_kw(self, node):
        return {
            "line": getattr(node, "lineno", self.method.line),
            "held": tuple(self.held),
            "assumed": tuple(self.assumed),
        }

    def walk(self, stmts):
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt):
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_with(stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a closure runs later, usually on another thread: its body
            # holds nothing lexically, but its writes still belong to
            # the enclosing method
            saved_held, saved_assumed = self.held, self.assumed
            self.held, self.assumed = [], []
            self.walk(stmt.body)
            self.held, self.assumed = saved_held, saved_assumed
        elif isinstance(stmt, ast.Lambda):
            pass
        elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
            self._scan_expr(getattr(stmt, "test", None)
                            or getattr(stmt, "iter", None))
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self.walk(stmt.body)
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
        else:
            self._scan_writes(stmt)
            self._scan_expr(stmt)

    def _walk_with(self, stmt):
        pushed = 0
        for item in stmt.items:
            self._scan_expr(item.context_expr)
            node = self._lock_node_for(item.context_expr)
            if node is not None:
                self.method.acquires.append(AcquireEvent(
                    node=node, via_with=True, **self._event_kw(stmt)))
                self.held.append(node)
                pushed += 1
        self.walk(stmt.body)
        for _ in range(pushed):
            self.held.pop()

    def _lock_node_for(self, expr):
        """``with self._lock:`` (or an annotated param's lock) -> node."""
        attr = _self_attr(expr)
        if attr is not None:
            locks = self.model.effective_locks(self.ex.info.name)
            if attr in locks:
                cls, _ = locks[attr]
                return cls.lock_node(attr)
            return None
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)):
            owner = self.param_types.get(expr.value.id)
            if owner is not None:
                locks = self.model.effective_locks(owner)
                if expr.attr in locks:
                    cls, _ = locks[expr.attr]
                    return cls.lock_node(expr.attr)
        return None

    # -- writes --------------------------------------------------------
    def _scan_writes(self, stmt):
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            self._record_target(target, stmt)

    def _record_target(self, target, stmt):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt, stmt)
            return
        attr = _self_attr(target)
        if attr is not None:
            self._write(attr, stmt, "assign")
            return
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None:
                self._write(attr, stmt, "subscript")

    def _write(self, attr, node, how):
        self.method.writes.append(WriteEvent(
            attr=attr, method=self.method.name, how=how,
            **self._event_kw(node)))

    # -- calls / blocking ----------------------------------------------
    def _scan_expr(self, node):
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                continue  # closures handled at statement level
            if isinstance(sub, ast.Call):
                self._scan_call(sub)

    def _scan_call(self, call):
        parts = dotted_parts(call.func)
        # heapq.heappush(self._heap, ...) mutates the attribute
        if parts and len(parts) == 2 and parts[0] == "heapq" \
                and parts[1] in HEAPQ_MUTATORS and call.args:
            attr = _self_attr(call.args[0])
            if attr is not None:
                self._write(attr, call, f"heapq.{parts[1]}")
        # time.sleep under a lock blocks everyone behind it
        if parts in (["time", "sleep"], ["sleep"]) and self.held:
            self.method.blocking.append(BlockingEvent(
                name="sleep", receiver="time", **self._event_kw(call)))
        if _call_tail(call) == "Process":
            self._scan_fork(call)
        if not isinstance(call.func, ast.Attribute):
            return
        name = call.func.attr
        receiver_expr = call.func.value
        receiver, recv_attr = self._receiver_type(receiver_expr)

        # mutating method call on a self attribute is a write
        self_attr = _self_attr(receiver_expr)
        if self_attr is not None and name in MUTATING_METHODS:
            self._write(self_attr, call, f".{name}()")

        self.method.calls.append(CallEvent(
            name=name, receiver=receiver, **self._event_kw(call)))

        if name in BLOCKING_METHODS:
            self._scan_blocking(call, name, receiver, receiver_expr)

    def _receiver_type(self, expr):
        """``(type_name_or_None, self_attr_or_None)`` for a receiver."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return "self", None
            return self.param_types.get(expr.id), None
        attr = _self_attr(expr)
        if attr is not None:
            return self.ex.info.attr_types.get(attr), attr
        return None, None

    def _scan_blocking(self, call, name, receiver, receiver_expr):
        node = self._lock_node_for(receiver_expr)
        if node is not None:
            # blocking on a *modeled* lock: acquire() is an ordering
            # event (CON002 territory); wait() on the very lock we hold
            # releases it (the condition-variable contract) and is fine,
            # wait() on a different lock while holding ours is not
            if name == "acquire":
                self.method.acquires.append(AcquireEvent(
                    node=node, via_with=False, **self._event_kw(call)))
            elif name in ("wait", "wait_for") and node not in self.held:
                self.method.blocking.append(BlockingEvent(
                    name=name, receiver=receiver, on_node=node,
                    **self._event_kw(call)))
            return
        if not self.held:
            return
        if (receiver, name) in NONBLOCKING:
            return
        if name in QUEUE_GATED and receiver not in BLOCKING_QUEUE_TYPES:
            return
        if name == "join" and isinstance(receiver_expr, ast.Constant):
            return  # ", ".join(...) — a string, not a thread
        self.method.blocking.append(BlockingEvent(
            name=name, receiver=receiver, **self._event_kw(call)))

    # -- fork points ---------------------------------------------------
    def _scan_fork(self, call):
        target_attr = None
        target_is_name = False
        arg_self_attrs = []
        for kw in call.keywords:
            if kw.arg == "target":
                target_attr = _self_attr(kw.value)
                target_is_name = isinstance(kw.value, ast.Name)
            elif kw.arg == "args" and isinstance(kw.value,
                                                 (ast.Tuple, ast.List)):
                for elt in kw.value.elts:
                    attr = _self_attr(elt)
                    if attr is not None:
                        arg_self_attrs.append(attr)
        self.method.forks.append(ForkEvent(
            target_attr=target_attr, target_is_name=target_is_name,
            arg_self_attrs=tuple(arg_self_attrs), **self._event_kw(call)))


def build_model(sources) -> ConcurrencyModel:
    """Extract a :class:`ConcurrencyModel` from SourceFile objects.

    Two passes: first every class's locks / pipes / attribute types
    (so cross-class resolution sees the full universe), then the
    per-method event walks.
    """
    model = ConcurrencyModel()
    extractors = []
    classdefs = []
    for src in sources:
        for node in src.tree.body:
            if isinstance(node, ast.ClassDef):
                classdefs.append((node, src))
    known = {node.name for node, _ in classdefs}
    for node, src in classdefs:
        ex = _ClassExtractor(node, src, known)
        ex.scan_attributes()
        model.add(ex.info)
        extractors.append(ex)
    for ex in extractors:
        ex.scan_methods(model)
    return model


__all__ = [
    "ConcurrencyModel",
    "ClassInfo",
    "MethodInfo",
    "AcquireEvent",
    "WriteEvent",
    "CallEvent",
    "BlockingEvent",
    "ForkEvent",
    "build_model",
    "LOCK_FACTORIES",
    "GUARD_KINDS",
    "BLOCKING_METHODS",
    "GENERIC_METHOD_NAMES",
]
