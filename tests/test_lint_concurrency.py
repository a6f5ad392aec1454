"""Tests for :mod:`repro.lint.concurrency` — the static analyzer, the
runtime lock sanitizer, and the lint-engine satellites that shipped with
them.

Layout:

* per-rule fixture pairs — for each of CON001–CON004 one snippet that
  must fire and one that must stay quiet, via
  :func:`repro.lint.concurrency.analyze_text`;
* the clean-tree gate — the real ``repro`` package passes all four
  rules with only the sanctioned suppressions, and its static
  lock-order graph is acyclic;
* engine satellites — duplicate rule-id rejection (registry and
  explicit ``Linter(rules=...)``), suppression-usage recording and the
  SUP001 stale-suppression report;
* the runtime sanitizer — factory patching round-trip, the
  BoundedSemaphore initialization regression, edge recording, and
  cross-check violations (unpredicted edge, observed cycle);
* CLI — ``--concurrency`` and ``--report-unused-suppressions`` wiring.
"""

import textwrap
import threading

import pytest

from repro.lint.concurrency import (
    CONCURRENCY_RULES,
    analyze_package,
    analyze_text,
    package_lock_graph,
    package_lock_model,
)
from repro.lint.concurrency.analyzer import _find_cycles, lock_order_edges
from repro.lint.concurrency.sanitizer import _RAW, LockSanitizer, install_from_env
from repro.lint.concurrency.model import build_model
from repro.lint.cli import main
from repro.lint.engine import (
    Linter,
    SourceFile,
    unused_suppression_diagnostics,
)
from repro.lint.rules import Rule, all_rules, register


def _fired(text, rule):
    diags = analyze_text(textwrap.dedent(text))
    return [d for d in diags if d.rule == rule]


def assert_fires(rule, text):
    assert _fired(text, rule), (
        f"{rule} did not fire on:\n{textwrap.dedent(text)}"
    )


def assert_quiet(rule, text):
    diags = _fired(text, rule)
    assert not diags, (
        f"{rule} fired unexpectedly: {[d.message for d in diags]}"
    )


# ----------------------------------------------------------------------
# CON001 — unguarded shared state
# ----------------------------------------------------------------------

CON001_BAD = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0

        def add(self, n):
            with self._lock:
                self.total += n

        def reset(self):
            self.total = 0
"""

CON001_GOOD = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0

        def add(self, n):
            with self._lock:
                self.total += n

        def reset(self):
            with self._lock:
                self.total = 0
"""


class TestCON001:
    def test_unguarded_mixed_write_fires(self):
        diags = _fired(CON001_BAD, "CON001")
        assert len(diags) == 1
        assert "reset" in diags[0].message

    def test_guarded_writes_quiet(self):
        assert_quiet("CON001", CON001_GOOD)

    def test_single_writer_attr_quiet(self):
        # one non-init writer method: the attr belongs to that method
        assert_quiet("CON001", """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = None

                def set(self, v):
                    self.value = v
        """)

    def test_locked_helper_without_guard_fires(self):
        assert_fires("CON001", """
            import threading

            class Q:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def _evict_locked(self):
                    self.items.pop()

                def evict(self):
                    self._evict_locked()
        """)

    def test_locked_helper_with_guard_quiet(self):
        assert_quiet("CON001", """
            import threading

            class Q:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def _evict_locked(self):
                    self.items.pop()

                def evict(self):
                    with self._lock:
                        self._evict_locked()
        """)


# ----------------------------------------------------------------------
# CON002 — lock-order cycles
# ----------------------------------------------------------------------

CON002_BAD = """
    import threading

    class Transfer:
        def __init__(self):
            self._src = threading.Lock()
            self._dst = threading.Lock()

        def forward(self):
            with self._src:
                with self._dst:
                    pass

        def backward(self):
            with self._dst:
                with self._src:
                    pass
"""

CON002_GOOD = """
    import threading

    class Transfer:
        def __init__(self):
            self._src = threading.Lock()
            self._dst = threading.Lock()

        def forward(self):
            with self._src:
                with self._dst:
                    pass

        def backward(self):
            with self._src:
                with self._dst:
                    pass
"""


class TestCON002:
    def test_opposite_orders_fire(self):
        diags = _fired(CON002_BAD, "CON002")
        assert diags and "cycle" in diags[0].message

    def test_consistent_order_quiet(self):
        assert_quiet("CON002", CON002_GOOD)

    def test_edges_extracted(self):
        src = SourceFile("<s>", textwrap.dedent(CON002_GOOD),
                         rel="serve/snippet.py", domain="library")
        edges = lock_order_edges(build_model([src]))
        assert ("Transfer._src", "Transfer._dst") in edges
        assert ("Transfer._dst", "Transfer._src") not in edges

    def test_call_mediated_cycle_fires(self):
        # the cycle only exists through a method call under a held lock
        assert_fires("CON002", """
            import threading

            class A:
                def __init__(self, other: "B"):
                    self._la = threading.Lock()
                    self.other = other

                def poke(self):
                    with self._la:
                        self.other.poke_back(self)

            class B:
                def __init__(self):
                    self._lb = threading.Lock()

                def poke_back(self, a: "A"):
                    with self._lb:
                        with a._la:
                            pass
        """)


# ----------------------------------------------------------------------
# CON003 — blocking under a held lock
# ----------------------------------------------------------------------

class TestCON003:
    def test_sleep_under_lock_fires(self):
        assert_fires("CON003", """
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def poll(self):
                    with self._lock:
                        time.sleep(0.1)
        """)

    def test_sleep_outside_lock_quiet(self):
        assert_quiet("CON003", """
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def poll(self):
                    with self._lock:
                        pass
                    time.sleep(0.1)
        """)

    def test_pipe_recv_under_lock_fires(self):
        assert_fires("CON003", """
            import multiprocessing as mp
            import threading

            class Replica:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.conn, self.child = mp.Pipe()

                def call(self):
                    with self._lock:
                        return self.conn.recv()
        """)

    def test_condition_wait_on_own_lock_quiet(self):
        # waiting on the held condition releases it — the CV contract
        assert_quiet("CON003", """
            import threading

            class Queue:
                def __init__(self):
                    self._cond = threading.Condition()

                def get(self):
                    with self._cond:
                        self._cond.wait(0.1)
        """)

    def test_simplequeue_put_under_lock_quiet(self):
        # SimpleQueue.put is unbounded: it cannot block
        assert_quiet("CON003", """
            import queue
            import threading

            class Batcher:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._q = queue.SimpleQueue()

                def submit(self, item):
                    with self._lock:
                        self._q.put(item)
        """)

    def test_suppression_silences_and_counts_as_used(self):
        text = textwrap.dedent("""
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def poll(self):
                    with self._lock:
                        time.sleep(0.1)  # repro-lint: ignore[CON003] bounded
        """)
        src = SourceFile("<s>", text, rel="serve/snippet.py",
                         domain="library")
        from repro.lint.concurrency.analyzer import analyze_sources
        assert analyze_sources([src]) == []
        assert unused_suppression_diagnostics([src]) == []


# ----------------------------------------------------------------------
# CON003 — socket calls (the repro.cluster wire protocol)
# ----------------------------------------------------------------------

SOCKET_BAD = """
    import socket
    import threading

    class Client:
        def __init__(self):
            self._lock = threading.Lock()
            self._sock = socket.create_connection(("127.0.0.1", 9))

        def call(self, data):
            with self._lock:
                self._sock.sendall(data)
                return self._sock.recv(64)
"""

SOCKET_GOOD = """
    import socket
    import threading

    class Client:
        def __init__(self):
            self._lock = threading.Lock()
            self._sock = socket.create_connection(("127.0.0.1", 9))

        def call(self, data):
            with self._lock:
                pass
            self._sock.sendall(data)
            return self._sock.recv(64)
"""


class TestCON003Sockets:
    def test_send_recv_under_lock_fire(self):
        diags = _fired(SOCKET_BAD, "CON003")
        assert len(diags) == 2
        names = " ".join(d.message for d in diags)
        assert "sendall" in names and "recv" in names

    def test_send_recv_outside_lock_quiet(self):
        assert_quiet("CON003", SOCKET_GOOD)

    def test_accept_under_lock_fires(self):
        assert_fires("CON003", """
            import socket
            import threading

            class Acceptor:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._listener = socket.socket()

                def accept_one(self):
                    with self._lock:
                        return self._listener.accept()
        """)

    def test_connect_under_lock_fires(self):
        assert_fires("CON003", """
            import socket
            import threading

            class Dialer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._sock = socket.socket()

                def dial(self, address):
                    with self._lock:
                        self._sock.connect(address)
        """)

    def test_create_connection_under_lock_fires(self):
        assert_fires("CON003", """
            import socket
            import threading

            class Dialer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._sock = None

                def dial(self, address):
                    with self._lock:
                        self._sock = socket.create_connection(address)
        """)

    def test_socket_constructors_typed(self):
        # both constructors hand back the blocking-capable receiver type
        src = SourceFile("<s>", textwrap.dedent(SOCKET_BAD),
                         rel="cluster/snippet.py", domain="library")
        model = build_model([src])
        assert model.classes["Client"].attr_types["_sock"] == "socket.socket"

    def test_serialized_round_trip_suppression_quiet(self):
        # the WorkerClient idiom: the lock deliberately serializes the
        # whole send->recv round trip; the sanctioned suppression both
        # silences CON003 and counts as used
        text = textwrap.dedent("""
            import socket
            import threading

            class Client:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._sock = socket.create_connection(("127.0.0.1", 9))

                def call(self, data):
                    with self._lock:
                        self._sock.sendall(data)  # repro-lint: ignore[CON003] serialized round trip
                        return self._sock.recv(64)  # repro-lint: ignore[CON003] serialized round trip
        """)
        src = SourceFile("<s>", text, rel="cluster/snippet.py",
                         domain="library")
        from repro.lint.concurrency.analyzer import analyze_sources
        assert analyze_sources([src]) == []
        assert unused_suppression_diagnostics([src]) == []


# ----------------------------------------------------------------------
# CON004 — fork-captured state
# ----------------------------------------------------------------------

class TestCON004:
    def test_bound_method_target_fires(self):
        assert_fires("CON004", """
            import multiprocessing as mp
            import threading

            class Replica:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.proc = None

                def start(self):
                    self.proc = mp.Process(target=self._loop)
                    self.proc.start()

                def _loop(self):
                    pass
        """)

    def test_staticmethod_target_quiet(self):
        assert_quiet("CON004", """
            import multiprocessing as mp
            import threading

            class Replica:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.proc = None

                def start(self, conn):
                    self.proc = mp.Process(
                        target=Replica._loop, args=(conn,)
                    )
                    self.proc.start()

                @staticmethod
                def _loop(conn):
                    pass
        """)

    def test_lock_in_args_fires(self):
        assert_fires("CON004", """
            import multiprocessing as mp
            import threading

            class Replica:
                def __init__(self):
                    self._lock = threading.Lock()

                def start(self):
                    mp.Process(
                        target=Replica._loop, args=(self._lock,)
                    ).start()

                @staticmethod
                def _loop(lock):
                    pass
        """)

    def test_parent_socketpair_end_in_args_fires(self):
        # the parent's end of a socketpair crossing the fork is the
        # same trap as a parent pipe end: the child's duplicate keeps
        # the channel open, so the parent's close never arrives as EOF
        text = """
            import multiprocessing as mp
            import socket

            class Replica:
                def start(self):
                    self._sock, child = socket.socketpair()
                    mp.Process(
                        target=Replica._serve, args=(self._sock, child)
                    ).start()
                    child.close()

                @staticmethod
                def _serve(parent, conn):
                    pass
        """
        diags = _fired(text, "CON004")
        assert diags and "channel end self._sock" in diags[0].message
        src = SourceFile("<s>", textwrap.dedent(text),
                         rel="serve/snippet.py", domain="library")
        assert build_model([src]).classes["Replica"].attr_types == {
            "_sock": "socket.socket"}

    def test_child_socketpair_end_in_args_quiet(self):
        assert_quiet("CON004", """
            import multiprocessing as mp
            import socket

            class Replica:
                def start(self):
                    self._sock, child = socket.socketpair()
                    mp.Process(
                        target=Replica._serve, args=(child,)
                    ).start()
                    child.close()

                @staticmethod
                def _serve(conn):
                    pass
        """)

    def test_fork_under_held_lock_fires(self):
        assert_fires("CON004", """
            import multiprocessing as mp
            import threading

            class Replica:
                def __init__(self):
                    self._lock = threading.Lock()

                def start(self):
                    with self._lock:
                        mp.Process(target=Replica._loop).start()

                @staticmethod
                def _loop():
                    pass
        """)


# ----------------------------------------------------------------------
# the clean-tree gate
# ----------------------------------------------------------------------

class TestCleanTree:
    def test_package_passes_all_rules(self):
        # zero findings: real bugs are fixed, deliberate exceptions
        # carry sanctioned inline suppressions
        diags = analyze_package()
        assert diags == [], [d.format() for d in diags]

    def test_package_lock_graph_is_acyclic(self):
        assert not _find_cycles(package_lock_graph())

    def test_pool_carries_no_con003_suppressions(self):
        # ProcessReplica round-trips through WorkerClient, so the only
        # serialized round trip in the tree — and its suppressions —
        # live in cluster/transport.py
        import repro.serve.pool as pool

        src = SourceFile(pool.__file__, open(pool.__file__).read())
        assert src.suppressions == {}

    def test_sanctioned_transport_suppressions_exist(self):
        # WorkerClient serializes its socket round-trip under _lock on
        # purpose — for TCP workers and forked process replicas alike;
        # exactly the sendall and recv suppressions documenting that
        # must stay
        import repro.cluster.transport as transport

        src = SourceFile(transport.__file__,
                         open(transport.__file__).read())
        con003 = [ids for ids in src.suppressions.values()
                  if "CON003" in ids]
        assert len(con003) == 2

    def test_model_covers_the_threaded_classes(self):
        model = package_lock_model()
        for name in ("Scheduler", "AdmissionQueue",
                     "SessionStats", "Tracer",
                     "WorkerClient", "ClusterWorker", "Autoscaler",
                     "SharedWeightStore", "SampleTap", "WeightPublisher",
                     "AdaptationController"):
            assert name in model.classes, name
        assert model.guard_nodes("Scheduler") == ("Scheduler._lock",)
        assert model.guard_nodes("WorkerClient") == ("WorkerClient._lock",)
        # the adaptation tap and publisher each own exactly one lock,
        # held only around their own state (the lock graph gains no
        # edges from the adapt/ subtree)
        assert model.guard_nodes("SampleTap") == ("SampleTap._lock",)
        assert model.guard_nodes("WeightPublisher") == (
            "WeightPublisher._lock",)


# ----------------------------------------------------------------------
# engine satellites: duplicate ids, suppression accounting
# ----------------------------------------------------------------------

class TestEngineSatellites:
    def test_register_rejects_duplicate_rule_id(self):
        taken = all_rules()[0].id

        class Dup(Rule):
            id = taken
            name = "dup"
            description = "duplicate for the test"

            def check(self, src):
                return []

        with pytest.raises(ValueError, match="duplicate rule id"):
            register(Dup)
        # the registry is unchanged: the original rule survives
        assert [r.id for r in all_rules()].count(taken) == 1

    def test_linter_rejects_duplicate_rules_argument(self):
        rule = all_rules()[0]
        with pytest.raises(ValueError, match="duplicate rule id"):
            Linter(rules=[rule, rule])

    def test_stale_suppression_reported(self):
        src = SourceFile(
            "<s>", "x = 1  # repro-lint: ignore[MUT001] stale\n",
            rel="", domain="library",
        )
        Linter().run_source(src)
        diags = unused_suppression_diagnostics([src])
        assert [d.rule for d in diags] == ["SUP001"]
        assert "MUT001" in diags[0].message

    def test_used_suppression_not_reported(self):
        src = SourceFile(
            "<s>",
            "def step(p, g):\n"
            "    p.data -= g  # repro-lint: ignore[MUT001] optimizer\n",
            rel="", domain="library",
        )
        assert Linter(select=["MUT001"]).run_source(src) == []
        assert unused_suppression_diagnostics([src]) == []

    def test_partially_used_multi_id_suppression(self):
        src = SourceFile(
            "<s>",
            "def step(p, g):\n"
            "    p.data -= g  # repro-lint: ignore[MUT001,RNG001] x\n",
            rel="", domain="library",
        )
        Linter().run_source(src)
        diags = unused_suppression_diagnostics([src])
        assert len(diags) == 1
        assert "RNG001" in diags[0].message
        assert "MUT001" not in diags[0].message

    def test_docstring_mention_is_not_a_suppression(self):
        src = SourceFile(
            "<s>",
            '"""Suppress with # repro-lint: ignore[MUT001] reason."""\n',
            rel="", domain="library",
        )
        assert src.suppressions == {}


# ----------------------------------------------------------------------
# the runtime sanitizer
# ----------------------------------------------------------------------

def _make_instrumented(tmp_path, source):
    """exec *source* under a ``repro.``-prefixed module name so the
    sanitizer's caller gating instruments the locks it creates, with a
    real backing file so creation-site labels resolve."""
    path = tmp_path / "santest.py"
    path.write_text(textwrap.dedent(source))
    ns = {"__name__": "repro._sanitizer_test"}
    exec(compile(path.read_text(), str(path), "exec"), ns)
    return ns


SAN_SOURCE = """
    import threading

    class Scheduler:
        def __init__(self):
            self._lock = threading.Lock()

    class AdmissionQueue:
        def __init__(self):
            self._cond = threading.Lock()
"""


class TestSanitizer:
    def test_install_uninstall_round_trip(self):
        san = LockSanitizer().install()
        try:
            assert threading.Lock is not _RAW["lock"]
        finally:
            san.uninstall()
        assert threading.Lock is _RAW["lock"]
        assert threading.Semaphore is _RAW["semaphore"]
        assert threading.Condition is _RAW["condition"]

    def test_patched_bounded_semaphore_still_initializes(self):
        # regression: BoundedSemaphore.__init__ resolves Semaphore
        # through the patched module global; the patch must keep it a
        # real class or the parent initializer silently never runs
        san = LockSanitizer().install()
        try:
            sem = threading.BoundedSemaphore(2)
            assert sem.acquire(timeout=1.0)
            sem.release()
            with pytest.raises(ValueError):
                sem.release()  # the bound check must survive the patch
            raw = _RAW["bounded_semaphore"](1)
            assert raw.acquire(blocking=False)
            raw.release()
        finally:
            san.uninstall()

    def test_records_edges_and_flags_unpredicted(self, tmp_path):
        san = LockSanitizer().install()
        try:
            ns = _make_instrumented(tmp_path, SAN_SOURCE)
            sched, queue = ns["Scheduler"](), ns["AdmissionQueue"]()
            with sched._lock:
                with queue._cond:
                    pass
        finally:
            san.uninstall()
        edges = san.observed_edges()
        assert edges == {("Scheduler._lock", "AdmissionQueue._cond"): 1}
        # both labels are real static nodes, but the package's lock
        # graph never orders them: the cross-check must object
        verdict = san.cross_check()
        kinds = {v["kind"] for v in verdict["violations"]}
        assert "unpredicted-edge" in kinds

    def test_detects_observed_cycle(self, tmp_path):
        san = LockSanitizer().install()
        try:
            ns = _make_instrumented(tmp_path, SAN_SOURCE)
            sched, queue = ns["Scheduler"](), ns["AdmissionQueue"]()
            with sched._lock:
                with queue._cond:
                    pass
            with queue._cond:
                with sched._lock:
                    pass
        finally:
            san.uninstall()
        verdict = san.cross_check()
        kinds = {v["kind"] for v in verdict["violations"]}
        assert "cycle" in kinds
        assert "no lock-order violations" not in san.summary(verdict)

    def test_non_repro_locks_stay_raw(self):
        san = LockSanitizer().install()
        try:
            lock = threading.Lock()  # created from the test module
        finally:
            san.uninstall()
        assert type(lock) is type(_RAW["lock"]())
        assert san.locks == {}

    def test_install_from_env_gating(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_SANITIZER", "0")
        assert install_from_env() is None
        monkeypatch.setenv("REPRO_LOCK_SANITIZER", "1")
        san = install_from_env()
        try:
            assert isinstance(san, LockSanitizer)
        finally:
            san.uninstall()


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------

def _write_pkg(tmp_path, body):
    """A throwaway ``repro/serve`` package so rel-scoping applies."""
    doc = '"""Fixture module."""\n'
    pkg = tmp_path / "repro"
    (pkg / "serve").mkdir(parents=True)
    (pkg / "__init__.py").write_text(doc)
    (pkg / "serve" / "__init__.py").write_text(doc)
    (pkg / "serve" / "unit.py").write_text(doc + textwrap.dedent(body))
    return pkg


class TestCLI:
    def test_concurrency_flag_fails_on_deadlock(self, tmp_path, capsys):
        pkg = _write_pkg(tmp_path, CON002_BAD)
        rc = main([str(pkg), "--concurrency", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "CON002" in out

    def test_without_flag_concurrency_rules_stay_off(self, tmp_path,
                                                     capsys):
        pkg = _write_pkg(tmp_path, CON002_BAD)
        main([str(pkg), "--format", "json"])
        assert "CON002" not in capsys.readouterr().out

    def test_report_unused_suppressions_flag(self, tmp_path, capsys):
        pkg = _write_pkg(
            tmp_path, "x = 1  # repro-lint: ignore[CON002] stale\n"
        )
        rc = main([str(pkg), "--concurrency",
                   "--report-unused-suppressions"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SUP001" in out

    def test_real_tree_clean_through_the_cli(self, capsys):
        import repro

        import os
        root = os.path.dirname(os.path.abspath(repro.__file__))
        rc = main([root, "--concurrency",
                   "--report-unused-suppressions"])
        capsys.readouterr()
        assert rc == 0

    def test_list_rules_includes_concurrency_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in CONCURRENCY_RULES:
            assert rule.id in out
        assert "SUP001" in out
