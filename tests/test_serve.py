"""Chaos and correctness tests for the verification service (repro.serve).

The contract under test: every request submitted to `alive-serve` gets
*exactly one* reply — a real verdict whenever any worker can produce
one, a structured CRASH verdict when the attempt budget is exhausted —
no matter how workers fail (SIGKILL mid-solve, death at either protocol
stage, a non-cooperative hang only external supervision can clear), and
the corpus comes back with no lost, duplicated, or reordered records.
Faults are injected deterministically through `harness.faults`
(`FaultPlan`), never with sleeps-and-hope.
"""

import json
import socket
import time

import pytest

from repro.harness.faults import FaultPlan, FaultSpec
from repro.refinement.check import VerifyOptions
from repro.serve import OverloadedError, ServeConfig, Supervisor
from repro.serve import protocol
from repro.serve.client import ServeClient, unittest_to_json
from repro.serve.server import ServeServer
from repro.suite.runner import outcome_from_records, run_suite
from repro.suite.unittests import build_corpus

OPTS = VerifyOptions(timeout_s=10.0)

#: Small deterministic slice of the corpus; index 3 is the usual victim.
CORPUS = build_corpus()[:8]


def fast_config(**overrides) -> ServeConfig:
    """Supervision tuned for test wall-clock: fast heartbeats, short backoff."""
    settings = dict(
        workers=2,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=1.0,
        task_grace_s=5.0,
        backoff_base_s=0.05,
        backoff_cap_s=0.2,
        drain_timeout_s=10.0,
        default_options=OPTS.to_json(),
    )
    settings.update(overrides)
    return ServeConfig(**settings)


@pytest.fixture
def serve(tmp_path):
    """A running daemon on a unix socket; yields (server, address spec)."""
    servers = []

    def start(config: ServeConfig):
        spec = f"unix:{tmp_path / f'serve{len(servers)}.sock'}"
        server = ServeServer(protocol.parse_address(spec), config).start()
        servers.append(server)
        return server, spec

    yield start
    for server in servers:
        server.close(drain_timeout_s=5.0)


def stable(record) -> dict:
    """The timing-free view of a record used for parity assertions."""
    return {
        "test": record.test,
        "verdicts": record.verdicts,
        "detected": record.detected,
        "missed": record.missed,
        "clean_failure": record.clean_failure,
    }


def make_request(test, **extra) -> dict:
    request = {
        "op": "test",
        "test": unittest_to_json(test),
        "options": OPTS.to_json(),
        "inject_bugs": True,
        "batch": 1,
        "retries": 0,
    }
    request.update(extra)
    return request


# ---------------------------------------------------------------------------
# Protocol layer
# ---------------------------------------------------------------------------


def test_parse_address_forms(tmp_path):
    assert protocol.parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
    assert protocol.parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
    assert protocol.parse_address("./x.sock") == ("unix", "./x.sock")
    assert protocol.parse_address("tcp:127.0.0.1:9000") == (
        "tcp",
        ("127.0.0.1", 9000),
    )
    assert protocol.parse_address("localhost:80") == ("tcp", ("localhost", 80))
    assert protocol.parse_address(":80") == ("tcp", ("127.0.0.1", 80))
    with pytest.raises(ValueError):
        protocol.parse_address("no-port-here")
    for spec in ("unix:/a/b.sock", "tcp:h:1", "h:1"):
        parsed = protocol.parse_address(spec)
        assert protocol.parse_address(protocol.format_address(parsed)) == parsed


def test_line_reader_reframes_split_and_torn_frames():
    left, right = socket.socketpair()
    try:
        reader = protocol.LineReader(left, chunk=4)
        frame = protocol.encode_message({"op": "health", "id": 7})
        # Two frames delivered in dribbles plus a torn tail, then EOF.
        right.sendall(frame + frame + b'{"torn": tru')
        right.close()
        first = protocol.decode_message(reader.readline())
        second = protocol.decode_message(reader.readline())
        assert first == second == {"op": "health", "id": 7}
        torn = reader.readline()
        assert torn == b'{"torn": tru'
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(torn)
        assert reader.readline() is None
    finally:
        left.close()


def test_oversized_frame_is_rejected_not_buffered(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
    with pytest.raises(protocol.ProtocolError):
        protocol.encode_message({"blob": "x" * 128})
    left, right = socket.socketpair()
    try:
        reader = protocol.LineReader(left, chunk=32)
        right.sendall(b"y" * 256)
        with pytest.raises(protocol.ProtocolError):
            reader.readline()
    finally:
        left.close()
        right.close()


# ---------------------------------------------------------------------------
# Happy path: parity with local runs
# ---------------------------------------------------------------------------


def test_serve_corpus_matches_local_run(serve):
    _server, spec = serve(fast_config())
    local = run_suite(CORPUS, OPTS, inject_bugs=True, jobs=1)
    with ServeClient(spec) as client:
        records = client.submit_corpus(CORPUS, OPTS, inject_bugs=True)
    assert [r.test for r in records] == [t.name for t in CORPUS]  # order kept
    assert [stable(r) for r in records] == [stable(r) for r in local.records]
    assert all(r.worker is not None for r in records)  # ran in pool workers
    remote = outcome_from_records(records)
    assert remote.tally.correct == local.tally.correct
    assert remote.tally.incorrect == local.tally.incorrect
    assert remote.detected == local.detected
    # Per-layer counters ride on each record over the wire.
    assert remote.tally.counters["prescreen.discharged"] > 0
    assert remote.tally.counters == local.tally.counters


def test_verify_op_round_trip(serve):
    _server, spec = serve(fast_config(workers=1))
    src = (
        "define i32 @f(i32 %x) {\nentry:\n"
        "  %y = add i32 %x, 0\n  ret i32 %y\n}"
    )
    tgt = "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}"
    bad = "define i32 @f(i32 %x) {\nentry:\n  ret i32 0\n}"
    with ServeClient(spec) as client:
        assert client.verify(src, tgt, OPTS)["verdict"] == "correct"
        wrong = client.verify(src, bad, OPTS)
        assert wrong["verdict"] == "incorrect"
        assert wrong["counterexample"]  # model shipped over the wire


def test_verify_full_certificates_round_trip(serve):
    """``certificates="full"`` ships every Certificate field over the wire;
    the default reply carries only the compact validity summary."""
    _server, spec = serve(fast_config(workers=1))
    src = (
        "define i32 @f(i32 %x) {\nentry:\n"
        "  %y = add i32 %x, 0\n  ret i32 %y\n}"
    )
    tgt = "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}"
    # Certify mode with the bypass rungs off, so the solver actually runs
    # and every UNSAT answer carries a checked proof certificate.
    opts = VerifyOptions(
        timeout_s=10.0, certify=True, prescreen=False, egraph=False
    )
    with ServeClient(spec) as client:
        compact = client.verify(src, tgt, opts)
        assert compact["verdict"] == "correct"
        assert compact["certificates"], "certify mode must ship certificates"
        for cert in compact["certificates"]:
            assert set(cert) == {"valid", "core_lits"}

        full = client.verify(src, tgt, opts, certificates="full")
        assert full["verdict"] == "correct"
        assert len(full["certificates"]) == len(compact["certificates"])
        for cert, summary in zip(full["certificates"], compact["certificates"]):
            assert cert["valid"] is True and summary["valid"] is True
            assert cert["query"] and isinstance(cert["query"], str)
            assert cert["digest"] and isinstance(cert["digest"], str)
            assert isinstance(cert["lemmas"], int)
            assert isinstance(cert["deletions"], int)
            assert isinstance(cert["checked_lemmas"], int)
            assert isinstance(cert["core"], list)
            assert len(cert["core"]) == summary["core_lits"]


def test_bad_requests_get_errors_not_a_dead_server(serve):
    _server, spec = serve(fast_config(workers=1))
    with ServeClient(spec) as client:
        client._sock.sendall(b"this is not json\n")
        reply = client._recv()
        assert reply["ok"] is False and reply["error"] == protocol.BAD_REQUEST
        reply = client.call({"op": "frobnicate"})
        assert reply["ok"] is False and reply["error"] == protocol.BAD_REQUEST
        reply = client.call({"op": "verify", "src": "x"})  # missing tgt
        assert reply["ok"] is False and reply["error"] == protocol.BAD_REQUEST
        reply = client.call({"op": "test", "id": "not-an-int", "test": {}})
        assert reply["ok"] is False and reply["error"] == protocol.BAD_REQUEST
        # The connection survived all of that.
        assert client.health()["ok"] is True


# ---------------------------------------------------------------------------
# Chaos: deterministic worker failure at each stage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("site", ["serve-recv", "solve", "serve-send"])
def test_worker_death_at_each_stage_is_retried(serve, site):
    """SIGKILL-grade death before, during, and after execution.

    ``serve-send`` is the dedup-critical stage: the verdict was computed
    but never reported, so the retry recomputes it and exactly one record
    must come back.
    """
    victim = CORPUS[3].name
    plan = FaultPlan({victim: FaultSpec(kind="die", site=site)})
    server, spec = serve(fast_config(fault_plan=plan, fault_attempts=(1,)))
    with ServeClient(spec) as client:
        records = client.submit_corpus(CORPUS, OPTS, inject_bugs=True)
        health = client.health()
    assert [r.test for r in records] == [t.name for t in CORPUS]
    by_name = {r.test: r for r in records}
    assert "crash" not in by_name[victim].verdicts  # retry produced a verdict
    assert health["stats"]["worker_deaths"] >= 1
    assert health["stats"]["retries"] >= 1
    assert health["stats"]["completed"] == len(CORPUS)


def test_attempt_budget_exhaustion_degrades_to_structured_crash(serve):
    victim = CORPUS[3].name
    plan = FaultPlan({victim: FaultSpec(kind="die", site="solve")})
    server, spec = serve(
        fast_config(fault_plan=plan, fault_attempts=(1, 2), max_attempts=2)
    )
    with ServeClient(spec) as client:
        records = client.submit_corpus(CORPUS, OPTS, inject_bugs=True)
        health = client.health()
    assert [r.test for r in records] == [t.name for t in CORPUS]
    crashed = {r.test: r for r in records}[victim]
    assert crashed.verdicts == {"crash": 1}
    assert crashed.diagnostic["type"] == "WorkerLost"
    assert "2/2" in crashed.diagnostic["message"]  # budget, not a loop
    assert health["stats"]["retries"] == 1  # exactly one re-dispatch
    assert health["stats"]["crash_degraded"] == 1
    # Everyone else still verified for real.
    others = [r for r in records if r.test != victim]
    assert all("crash" not in r.verdicts for r in others)


def test_hung_worker_is_detected_and_killed_by_supervision(serve):
    """A non-cooperative spin never hits an in-process deadline check;
    heartbeats keep flowing (the process is alive, just wedged), so only
    task-overdue supervision can clear it."""
    victim = CORPUS[2].name
    plan = FaultPlan({victim: FaultSpec(kind="spin", site="solve")})
    opts = VerifyOptions(timeout_s=1.0)
    server, spec = serve(
        fast_config(
            fault_plan=plan,
            fault_attempts=(1,),
            task_grace_s=0.5,
            heartbeat_timeout_s=5.0,  # heartbeats alone must NOT clear it
            default_options=opts.to_json(),
        )
    )
    start = time.monotonic()
    with ServeClient(spec) as client:
        records = client.submit_corpus(CORPUS[:4], opts, inject_bugs=True)
        health = client.health()
    elapsed = time.monotonic() - start
    assert [r.test for r in records] == [t.name for t in CORPUS[:4]]
    assert "crash" not in {r.test: r for r in records}[victim].verdicts
    assert health["stats"]["worker_deaths"] >= 1
    # Supervision cut the spin near timeout+grace, not at the 30s spin cap.
    assert elapsed < 15.0


def test_in_worker_protocol_crash_is_contained_without_death(serve):
    """An exception in the worker's own serve loop (not the verification
    pipeline) is contained in-process: structured CRASH, no retry, no
    worker death."""
    victim = CORPUS[1].name
    plan = FaultPlan({victim: FaultSpec(kind="crash", site="serve-recv")})
    server, spec = serve(fast_config(fault_plan=plan, fault_attempts=(1,)))
    with ServeClient(spec) as client:
        records = client.submit_corpus(CORPUS[:4], OPTS, inject_bugs=True)
        health = client.health()
    assert [r.test for r in records] == [t.name for t in CORPUS[:4]]
    crashed = {r.test: r for r in records}[victim]
    assert crashed.verdicts == {"crash": 1}
    assert health["stats"]["worker_deaths"] == 0
    assert health["stats"]["retries"] == 0


# ---------------------------------------------------------------------------
# Load shedding, circuit breaker, drain
# ---------------------------------------------------------------------------


def test_overload_sheds_and_client_rides_it_out(serve):
    server, spec = serve(fast_config(workers=1, queue_limit=1))
    with ServeClient(spec) as client:
        records = client.submit_corpus(
            CORPUS[:6], OPTS, inject_bugs=True, window=6
        )
        health = client.health()
    # Shedding happened (bounded queue), yet nothing was lost: the client
    # backed off and resubmitted.
    assert health["stats"]["shed"] >= 1
    assert [r.test for r in records] == [t.name for t in CORPUS[:6]]
    assert all("crash" not in r.verdicts for r in records)


def test_circuit_breaker_opens_after_death_burst_then_closes():
    victim = CORPUS[3]
    plan = FaultPlan({victim.name: FaultSpec(kind="die", site="solve")})
    supervisor = Supervisor(
        fast_config(
            workers=1,
            fault_plan=plan,
            fault_attempts=(1, 2),
            max_attempts=2,
            breaker_deaths=2,
            breaker_window_s=30.0,
            breaker_cooldown_s=0.5,
        )
    ).start()
    try:
        payload = supervisor.submit(make_request(victim)).result(timeout=60)
        assert payload["record"]["verdicts"] == {"crash": 1}
        # Two deaths within the window: the breaker is now open and new
        # work is shed instead of queued.
        assert supervisor.health()["breaker_open"] is True
        with pytest.raises(OverloadedError):
            supervisor.submit(make_request(CORPUS[0]))
        assert supervisor.stats["shed"] == 1
        time.sleep(0.6)  # cooldown elapses
        payload = supervisor.submit(make_request(CORPUS[0])).result(timeout=60)
        assert "crash" not in payload["record"]["verdicts"]
        assert supervisor.health()["breaker_open"] is False  # success closed it
    finally:
        supervisor.shutdown(drain_timeout_s=5.0)


def test_drain_finishes_inflight_then_rejects_new_work():
    supervisor = Supervisor(fast_config(workers=2)).start()
    try:
        futures = [supervisor.submit(make_request(t)) for t in CORPUS[:4]]
        assert supervisor.drain(timeout_s=60.0) is True
        for future, test in zip(futures, CORPUS[:4]):
            payload = future.result(timeout=1.0)  # already resolved
            assert payload["record"]["test"] == test.name
            assert "crash" not in payload["record"]["verdicts"]
        with pytest.raises(OverloadedError) as exc_info:
            supervisor.submit(make_request(CORPUS[0]))
        assert exc_info.value.code == protocol.DRAINING
    finally:
        supervisor.shutdown(drain_timeout_s=5.0)


def test_drain_deadline_fails_stragglers_instead_of_waiting_forever():
    victim = CORPUS[2]
    plan = FaultPlan({victim.name: FaultSpec(kind="spin", site="solve")})
    supervisor = Supervisor(
        fast_config(
            workers=1,
            fault_plan=plan,
            fault_attempts=(1, 2, 3, 4),  # the spin never stops re-arming
            task_grace_s=60.0,  # hang detection won't save this drain
        )
    ).start()
    try:
        future = supervisor.submit(make_request(victim))
        start = time.monotonic()
        assert supervisor.drain(timeout_s=1.0) is False
        assert time.monotonic() - start < 10.0
        payload = future.result(timeout=1.0)
        assert payload["kind"] == "error"
        assert payload["error"] == protocol.UNAVAILABLE
    finally:
        supervisor.shutdown(drain_timeout_s=1.0)


def test_server_drain_and_shutdown_over_the_wire(serve):
    server, spec = serve(fast_config(workers=1))
    with ServeClient(spec) as client:
        records = client.submit_corpus(CORPUS[:2], OPTS, inject_bugs=True)
        assert len(records) == 2
        assert client.drain(timeout_s=30.0) is True
        reply = client.call(make_request(CORPUS[0], id=999))
        assert reply["ok"] is False and reply["error"] == protocol.DRAINING
        client.shutdown()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and not server._shutdown.is_set():
        time.sleep(0.05)
    assert server._shutdown.is_set()


# ---------------------------------------------------------------------------
# Worker restart with backoff
# ---------------------------------------------------------------------------


def test_dead_workers_restart_and_keep_serving(serve):
    victim = CORPUS[0].name
    plan = FaultPlan({victim: FaultSpec(kind="die", site="solve")})
    server, spec = serve(
        fast_config(workers=1, fault_plan=plan, fault_attempts=(1,))
    )
    with ServeClient(spec) as client:
        # First pass kills the only worker once; later tests need its
        # restarted replacement.
        records = client.submit_corpus(CORPUS[:5], OPTS, inject_bugs=True)
        assert [r.test for r in records] == [t.name for t in CORPUS[:5]]
        health = client.health()
        assert health["stats"]["worker_deaths"] >= 1
        assert health["stats"]["restarts"] >= 1
        pids = {w["pid"] for w in health["workers"]}
        assert all(pid is not None for pid in pids)


def test_verdicts_out_is_stable_between_local_and_serve(tmp_path, serve):
    """The CLI's --verdicts-out artifact is byte-for-byte identical
    between a local run and a --server run of the same corpus (CI gates
    on this)."""
    from repro.suite import cli

    _server, spec = serve(fast_config())
    local_path = tmp_path / "local.jsonl"
    serve_path = tmp_path / "serve.jsonl"
    base = ["unittests", "--limit", "6", "--timeout", "10"]
    assert cli.main(base + ["--jobs", "1", "--verdicts-out", str(local_path)]) == 0
    assert cli.main(base + ["--server", spec, "--verdicts-out", str(serve_path)]) == 0
    assert local_path.read_bytes() == serve_path.read_bytes()
    for line in local_path.read_text().splitlines():
        json.loads(line)  # every line is one valid JSON record


# ---------------------------------------------------------------------------
# Concurrent clients against the bounded connection pool
# ---------------------------------------------------------------------------


def test_concurrent_clients_no_drops_or_reorder(serve):
    """Multiple simultaneous ServeClients each get their full corpus back
    in order with verdicts matching a sequential local run — the bounded
    connection thread pool must not drop, duplicate, or interleave frames
    across connections."""
    import threading

    _server, spec = serve(fast_config(workers=2, queue_limit=1024))
    baseline = [
        stable(r)
        for r in run_suite(CORPUS, OPTS, inject_bugs=True, jobs=1).records
    ]
    n_clients = 5
    results: dict = {}
    errors: list = []

    def one_client(k: int) -> None:
        try:
            with ServeClient(spec) as client:
                results[k] = client.submit_corpus(CORPUS, OPTS, inject_bugs=True)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append((k, exc))

    threads = [
        threading.Thread(target=one_client, args=(k,), name=f"client-{k}")
        for k in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not errors
    assert sorted(results) == list(range(n_clients))
    for k in range(n_clients):
        records = results[k]
        assert [r.test for r in records] == [t.name for t in CORPUS]
        assert [stable(r) for r in records] == baseline


def test_connection_cap_sheds_with_overloaded(tmp_path):
    """Connections beyond max_connections get a single OVERLOADED error
    frame and a close, not a silent hang."""
    spec = f"unix:{tmp_path / 'capped.sock'}"
    server = ServeServer(
        protocol.parse_address(spec),
        fast_config(workers=1),
        max_connections=1,
    ).start()
    try:
        first = protocol.connect(protocol.parse_address(spec))
        try:
            # The first connection holds the only slot; prove it works.
            first.sendall(protocol.encode_message({"op": "health"}))
            reader = protocol.LineReader(first)
            assert protocol.decode_message(reader.readline())["ok"] is True

            second = protocol.connect(protocol.parse_address(spec))
            try:
                shed = protocol.decode_message(
                    protocol.LineReader(second).readline()
                )
                assert shed["ok"] is False
                assert shed["error"] == protocol.OVERLOADED
            finally:
                second.close()
        finally:
            first.close()
    finally:
        server.close(drain_timeout_s=5.0)
