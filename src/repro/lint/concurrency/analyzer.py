"""The four concurrency passes: CON001–CON004 over a built model.

Each pass consumes the :class:`~repro.lint.concurrency.model.ConcurrencyModel`
extracted by :func:`~repro.lint.concurrency.model.build_model` and emits
ordinary :class:`~repro.lint.diagnostics.Diagnostic` objects, so the
findings flow through the same renderers, suppressions and exit codes
as every engine rule:

CON001 — **unguarded shared state.**  In a lock-owning class, an
    instance attribute written from more than one method is shared
    across threads; every write must hold the class's guarding lock.
    The guard is *inferred by dominance*: the lock held at every write
    wins, and writes missing it are flagged.  Calling a ``*_locked``
    helper without holding any class guard is the same bug from the
    other side and is reported here too.

CON002 — **lock-order cycles.**  Acquiring lock B while holding lock A
    creates the edge A→B in a whole-program graph (call-mediated
    acquisitions are followed through resolvable calls to a fixpoint).
    A cycle means two threads can take the locks in opposite orders —
    a potential deadlock.

CON003 — **blocking while holding a lock.**  A pipe ``send``/``recv``,
    queue ``get``/``put``, ``Future.result``, ``join``, ``time.sleep``
    or ``Condition.wait`` *on a different lock* executed under a held
    mutex stalls every thread queued behind that mutex for the full
    blocking duration — and if the unblock depends on a thread that
    needs the same mutex, it is a deadlock.  ``Condition.wait`` on the
    lock it guards is exempt (waiting releases it: that is the
    condition-variable contract).

CON004 — **state captured across a fork.**  A
    ``multiprocessing.Process`` whose target is a bound method of a
    lock- or pipe-owning class ships those objects into the child via
    ``self``; a lock forked while held is permanently stuck in the
    child, and a duplicated parent pipe (or ``socketpair``) end keeps
    the channel open after the parent closes it.  Targets must be ``@staticmethod``\\ s
    taking explicit arguments, and locks must never ride along.
"""

from __future__ import annotations

from collections import Counter

from ..diagnostics import Diagnostic, Severity
from .model import GUARD_KINDS, build_model


class ConRule:
    """Catalogue metadata for one concurrency rule (CLI ``--list-rules``)."""

    def __init__(self, id, name, description):
        self.id = id
        self.name = name
        self.severity = Severity.ERROR
        self.domains = ("library",)
        self.description = description


CONCURRENCY_RULES = (
    ConRule(
        "CON001", "unguarded-shared-state",
        "instance attributes written from more than one method of a "
        "lock-owning class must hold the class's guarding lock on "
        "every write (guard inferred by dominance); *_locked helpers "
        "must be called with a guard held",
    ),
    ConRule(
        "CON002", "lock-order-cycle",
        "the whole-program lock-acquisition-order graph must be "
        "acyclic; a cycle means two threads can take the same locks "
        "in opposite orders and deadlock",
    ),
    ConRule(
        "CON003", "blocking-under-lock",
        "no potentially blocking call (pipe send/recv/poll, queue "
        "get/put, Future.result, join, sleep, Condition.wait on a "
        "different lock) while holding a mutex",
    ),
    ConRule(
        "CON004", "fork-captured-state",
        "multiprocessing.Process targets in lock/pipe-owning classes "
        "must be staticmethods with explicit args; locks and parent "
        "pipe ends must not cross the fork, and fork must not happen "
        "under a held lock",
    ),
)

#: the package subtrees the analyzer covers by default (rel prefixes)
CONCURRENCY_SCOPE = ("serve/", "runtime/", "trace/", "cluster/", "adapt/")


def _diag(rule, cls, line, message, suggestion=""):
    return Diagnostic(
        path=cls.path, line=line, rule=rule, severity=Severity.ERROR,
        message=message, suggestion=suggestion,
    )


def _node_kinds(model):
    """``{lock node name: kind}`` across every class."""
    kinds = {}
    for cls in model.classes.values():
        for attr, kind in cls.lock_attrs.items():
            kinds[cls.lock_node(attr)] = kind
    return kinds


def _guard_held(event, guards):
    """The guard locks of *guards* this event runs under."""
    return set(event.held_or_assumed) & set(guards)


# ----------------------------------------------------------------------
# CON001 — unguarded shared state
# ----------------------------------------------------------------------

def check_shared_state(model):
    """Yield CON001 diagnostics: mixed-method writes missing the guard."""
    from .model import INIT_METHODS

    for cls in model.classes.values():
        guards = model.guard_nodes(cls.name)
        if not guards:
            continue  # no guard lock => no declared cross-thread state
        lock_attrs = set(model.effective_locks(cls.name))
        writes_by_attr = {}
        for method in cls.methods.values():
            if method.name in INIT_METHODS:
                continue  # construction happens-before publication
            for w in method.writes:
                if w.attr in lock_attrs or w.attr in cls.pipe_attrs:
                    continue
                writes_by_attr.setdefault(w.attr, []).append(w)
        for attr, writes in sorted(writes_by_attr.items()):
            methods = {w.method for w in writes}
            if len(methods) < 2:
                continue  # single-writer attrs are that method's own
            held = [_guard_held(w, guards) for w in writes]
            if set.intersection(*held):
                continue  # one lock dominates every write: guarded
            counts = Counter(g for hs in held for g in hs)
            dominant = counts.most_common(1)[0][0] if counts else None
            for w, hs in zip(writes, held):
                if dominant is not None and dominant in hs:
                    continue
                where = ", ".join(sorted(methods))
                if dominant is None:
                    why = "no write holds any class lock"
                else:
                    why = f"other writes hold {dominant}"
                yield _diag(
                    "CON001", cls, w.line,
                    f"{cls.name}.{attr} is written from multiple methods "
                    f"({where}) but this write in {w.method}() holds no "
                    f"guarding lock ({why})",
                    suggestion=f"wrap the write in `with self."
                               f"{(dominant or guards[0]).split('.')[-1]}:`",
                )
        # the mirror bug: a *_locked helper invoked without the guard
        for method in cls.methods.values():
            for call in method.calls:
                if call.receiver != "self":
                    continue
                if not call.name.endswith("_locked"):
                    continue
                _, target = model.find_method(cls.name, call.name)
                if target is None:
                    continue
                if not _guard_held(call, guards):
                    yield _diag(
                        "CON001", cls, call.line,
                        f"{cls.name}.{method.name}() calls locked helper "
                        f"{call.name}() without holding any of "
                        f"{', '.join(guards)}",
                        suggestion="acquire the class lock around the call",
                    )


# ----------------------------------------------------------------------
# CON002 — lock-order graph and cycles
# ----------------------------------------------------------------------

def _may_acquire(model):
    """Fixpoint: ``{(class, method): set of lock nodes it may acquire}``.

    Seeds with each method's direct acquisitions, then propagates
    through every resolvable call until stable.  Only ``held``-free
    knowledge — *what* a method can acquire, not in what context.
    """
    may = {}
    for cls in model.classes.values():
        for method in cls.methods.values():
            may[(cls.name, method.name)] = {a.node for a in method.acquires}
    changed = True
    while changed:
        changed = False
        for cls in model.classes.values():
            for method in cls.methods.values():
                mine = may[(cls.name, method.name)]
                before = len(mine)
                for call in method.calls:
                    tcls, tinfo = model.resolve_call(cls.name, call)
                    if tinfo is None:
                        continue
                    mine |= may.get((tcls.name, tinfo.name), set())
                if len(mine) != before:
                    changed = True
    return may


def lock_order_edges(model):
    """The whole-program acquisition-order graph.

    Returns ``{(held_node, acquired_node): (cls, method, line)}`` — the
    witness is the first site creating each edge.  Direct edges come
    from nested ``with`` blocks / ``.acquire()`` under a held lock;
    call-mediated edges follow resolvable calls into everything they
    may transitively acquire.  This is also the reference graph the
    runtime sanitizer cross-checks observed orders against.
    """
    may = _may_acquire(model)
    edges = {}

    def add(held, node, cls, method, line):
        if node == held:
            return  # re-entrancy, not ordering
        edges.setdefault((held, node), (cls.name, method.name, line))

    for cls in model.classes.values():
        for method in cls.methods.values():
            for acq in method.acquires:
                for held in acq.held:
                    add(held, acq.node, cls, method, acq.line)
            for call in method.calls:
                if not call.held:
                    continue
                tcls, tinfo = model.resolve_call(cls.name, call)
                if tinfo is None:
                    continue
                for node in may.get((tcls.name, tinfo.name), ()):
                    for held in call.held:
                        add(held, node, cls, method, call.line)
    return edges


def _find_cycles(edges):
    """Minimal cycle enumeration over the edge dict: DFS from each node,
    reporting each cycle once (by its sorted node set)."""
    graph = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    cycles, seen = [], set()

    def dfs(start, node, path):
        for nxt in graph.get(node, ()):
            if nxt == start:
                key = frozenset(path)
                if key not in seen:
                    seen.add(key)
                    cycles.append(list(path) + [start])
            elif nxt not in path and len(path) < 16:
                dfs(start, nxt, path + [nxt])

    for start in sorted(graph):
        dfs(start, start, [start])
    return cycles


def check_lock_order(model):
    """Yield CON002 diagnostics: one per distinct acquisition cycle."""
    edges = lock_order_edges(model)
    for cycle in _find_cycles(edges):
        a, b = cycle[0], cycle[1]
        cls_name, method, line = edges[(a, b)]
        cls = model.classes[cls_name]
        chain = " -> ".join(cycle)
        yield _diag(
            "CON002", cls, line,
            f"lock-order cycle: {chain} (edge {a} -> {b} created in "
            f"{cls_name}.{method}()); two threads taking these locks in "
            f"opposite orders deadlock",
            suggestion="impose one global acquisition order, or release "
                       "the first lock before taking the second",
        )


# ----------------------------------------------------------------------
# CON003 — blocking calls under a held lock
# ----------------------------------------------------------------------

def check_blocking(model):
    """Yield CON003 diagnostics: blocking calls while a mutex is held."""
    kinds = _node_kinds(model)
    for cls in model.classes.values():
        for method in cls.methods.values():
            for ev in method.blocking:
                held = [
                    h for h in ev.held_or_assumed
                    if kinds.get(h) in GUARD_KINDS
                ]
                if not held:
                    continue
                under = ", ".join(held)
                if ev.on_node is not None:
                    what = (f"waits on {ev.on_node} (a different lock "
                            f"than the one held)")
                else:
                    what = f"calls blocking .{ev.name}()"
                yield _diag(
                    "CON003", cls, ev.line,
                    f"{cls.name}.{method.name}() {what} while holding "
                    f"{under}: every thread queued on that lock stalls "
                    f"for the full blocking duration",
                    suggestion="move the blocking call outside the locked "
                               "region, or bound it with a timeout and "
                               "document why the lock must be held",
                )


# ----------------------------------------------------------------------
# CON004 — fork-safety
# ----------------------------------------------------------------------

def check_fork_safety(model):
    """Yield CON004 diagnostics: locks/pipes crossing a fork boundary."""
    for cls in model.classes.values():
        locks = model.effective_locks(cls.name)
        owns_state = bool(locks) or bool(cls.pipe_attrs)
        for method in cls.methods.values():
            for fk in method.forks:
                if fk.held:
                    yield _diag(
                        "CON004", cls, fk.line,
                        f"{cls.name}.{method.name}() forks a process while "
                        f"holding {', '.join(fk.held)}; the child inherits "
                        f"the lock in its held state and anything "
                        f"acquiring it there deadlocks forever",
                        suggestion="fork before acquiring, or release the "
                                   "lock around Process()",
                    )
                if fk.target_attr is not None and owns_state:
                    _, target = model.find_method(cls.name, fk.target_attr)
                    if target is None or not target.is_static:
                        inherited = sorted(locks) + sorted(cls.pipe_attrs)
                        yield _diag(
                            "CON004", cls, fk.line,
                            f"Process target self.{fk.target_attr} is a "
                            f"bound method: the child captures all of "
                            f"{cls.name}'s state including "
                            f"{', '.join(inherited)}",
                            suggestion="make the worker a @staticmethod "
                                       "and pass what it needs via args=",
                        )
                for attr in fk.arg_self_attrs:
                    if attr in locks:
                        yield _diag(
                            "CON004", cls, fk.line,
                            f"lock self.{attr} is passed into the forked "
                            f"child via args=; a lock snapshot shares no "
                            f"state with the parent's and protects nothing",
                            suggestion="give the child its own lock",
                        )
                    elif attr in cls.pipe_attrs:
                        yield _diag(
                            "CON004", cls, fk.line,
                            f"parent channel end self.{attr} is passed into "
                            f"the forked child via args=; the duplicated "
                            f"fd keeps the channel open after the parent "
                            f"closes it, so EOF never arrives",
                            suggestion="pass only the child end and close "
                                       "it parent-side after the fork",
                        )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def analyze_model(model):
    """Run all four passes over a built model; sorted diagnostics."""
    diags = []
    diags.extend(check_shared_state(model))
    diags.extend(check_lock_order(model))
    diags.extend(check_blocking(model))
    diags.extend(check_fork_safety(model))
    return sorted(diags, key=lambda d: d.sort_key)


def analyze_sources(sources):
    """Build one whole-program model from *sources* and analyze it.

    Inline ``# repro-lint: ignore[CON00x]`` suppressions apply exactly
    as they do for engine rules (and register as *used* for the
    unused-suppression report).
    """
    sources = list(sources)
    by_path = {src.path: src for src in sources}
    model = build_model(sources)
    out = []
    for diag in analyze_model(model):
        src = by_path.get(diag.path)
        if src is not None and src.suppressed(diag):
            continue
        out.append(diag)
    return out


__all__ = [
    "CONCURRENCY_RULES",
    "CONCURRENCY_SCOPE",
    "ConRule",
    "analyze_model",
    "analyze_sources",
    "check_shared_state",
    "check_lock_order",
    "check_blocking",
    "check_fork_safety",
    "lock_order_edges",
]
