"""The multi-process serving pool (repro.serving.pool).

The ISSUE-6 acceptance surface:

* a 2-worker pool serves concurrent connections with answers
  **byte-identical** to the single-process `repro serve` stack;
* ``{"op": "stats"}`` on any connection answers the pool-wide merged
  view (per-worker counters summed, plus a ``pool`` section);
* ``{"op": "shutdown"}`` on any connection drains the whole pool;
* a warm cache entry written by one worker is a **disk hit in another
  worker without a single encoder pass** (the cross-process fabric);
* the parent places connections: back-to-back connections split evenly
  across the workers (under fork and spawn), a handed-over connection is
  served with TCP_NODELAY, and a killed worker's share goes to the live
  one;
* every pool maps one parent-built weight arena (in a directory of its
  own when the bundle's is read-only), and single-process serving builds
  none;
* a crashed worker is detected and restarted (bounded, with backoff)
  and the pool keeps serving;
* SIGTERM with live multi-worker, multi-connection traffic drains every
  accepted request before exit (exercised end-to-end through the CLI in
  ``TestPoolCLI``).
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import pickle
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from helpers import StubEngine

from repro.core import save_annotator
from repro.io import table_to_dict
from repro.serving import (
    AnnotationEngine,
    AnnotationOptions,
    AnnotationRequest,
    EngineConfig,
    EngineStats,
    EngineWorker,
    GatewayStats,
    RegistryStats,
    ServerStats,
    ServerThread,
    ServiceStats,
)
from repro.serving.pool import PoolConfig, ServingPool, merge_sections


@pytest.fixture(scope="module")
def bundle(shared_tiny_annotator, tmp_path_factory):
    root = tmp_path_factory.mktemp("pool-bundle")
    save_annotator(shared_tiny_annotator, root / "model")
    return root / "model"


@pytest.fixture(scope="module")
def tables(shared_tiny_annotator):
    return shared_tiny_annotator.trainer.dataset.tables[:6]


def _direct_answers(annotator, tables, options):
    """Direct single-process engine answers, JSON-round-tripped like the
    wire — the byte-identity reference for pool answers."""
    engine = AnnotationEngine(annotator.trainer)
    answers = {}
    for table in tables:
        result = engine.annotate_batch(
            [AnnotationRequest(table=table, options=options)]
        )[0]
        answers[table.table_id] = json.loads(
            json.dumps(result.to_dict(with_embeddings=False))
        )
    return answers


@pytest.fixture(scope="module")
def expected(shared_tiny_annotator, tables):
    return _direct_answers(
        shared_tiny_annotator, tables, AnnotationOptions(with_embeddings=False)
    )


@pytest.fixture(scope="module")
def expected_cli(shared_tiny_annotator, tables):
    """What `repro serve` answers under its CLI defaults (top 3 scores
    per column) — the reference for the CLI-launched pool."""
    return _direct_answers(
        shared_tiny_annotator,
        tables,
        AnnotationOptions(with_embeddings=False, top_k=3),
    )


def _config(bundle, **overrides):
    base = dict(
        bundle=str(bundle),
        host="127.0.0.1",
        port=0,
        workers=2,
        shutdown_grace=10.0,
    )
    base.update(overrides)
    return PoolConfig(**base)


class Client:
    def __init__(self, address, timeout=60.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.stream = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def send(self, record):
        self.stream.write(json.dumps(record) + "\n")
        self.stream.flush()

    def recv(self):
        line = self.stream.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def ask(self, record):
        self.send(record)
        return self.recv()

    def close(self):
        self.stream.close()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _ask_once(address, record):
    with Client(address) as client:
        return client.ask(record)


def _proc_running(pid):
    """True while ``pid`` exists and is not a zombie (an unreaped child
    counts as exited for orphan-protection purposes)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.smoke
class TestPoolServing:
    def test_answers_byte_identical_and_stats_merged(
        self, bundle, tables, expected, tmp_path
    ):
        config = _config(bundle, cache_dir=str(tmp_path / "cache"))
        with ServingPool(config) as pool:
            address = pool.address
            # Several connections, so both workers answer; the answers
            # must be identical either way.
            clients = [Client(address) for _ in range(6)]
            try:
                for c, client in enumerate(clients):
                    for table in tables:
                        record = table_to_dict(table)
                        record["id"] = f"{c}-{table.table_id}"
                        client.send(record)
                for c, client in enumerate(clients):
                    for _ in tables:
                        answer = client.recv()
                        table_id = answer.pop("id").split("-", 1)[1]
                        assert answer == expected[table_id]
                stats = clients[0].ask({"op": "stats", "id": "s"})
            finally:
                for client in clients:
                    client.close()
        assert stats["ok"] and stats["op"] == "stats" and stats["id"] == "s"
        # Merged across workers: totals count every connection's traffic.
        assert stats["gateway"]["completed"] == 6 * len(tables)
        assert stats["server"]["requests"] == 6 * len(tables)
        assert stats["pool"]["workers"] == 2
        assert stats["pool"]["live"] == 2
        assert stats["pool"]["restarts"] == 0
        # Every worker mapped the parent's arena, with no flag asking.
        assert stats["registry"]["arena_remaps"] == 2
        per_worker = stats["pool"]["per_worker"]
        assert sum(w["requests"] for w in per_worker) == 6 * len(tables)
        assert len({w["pid"] for w in per_worker}) == len(per_worker)
        # Final (post-drain) stats survive the pool's shutdown.
        assert pool.final_stats is not None
        assert pool.final_stats["gateway"]["completed"] == 6 * len(tables)

    def test_shutdown_op_drains_the_whole_pool(self, bundle, tables):
        pool = ServingPool(_config(bundle))
        try:
            address = pool.start()
            with Client(address) as client:
                record = table_to_dict(tables[0])
                record["id"] = "before"
                assert client.ask(record)["id"] == "before"
                answer = client.ask({"op": "shutdown", "id": "bye"})
            assert answer == {"ok": True, "op": "shutdown", "id": "bye"}
            assert pool.wait(timeout=30), "pool did not stop on shutdown op"
            # Dead pool: nothing is listening any more.
            with pytest.raises(OSError):
                socket.create_connection(address, timeout=2).close()
        finally:
            pool.stop()

    def test_warm_entry_crosses_workers_with_zero_encoder_passes(
        self, bundle, tables, expected, tmp_path
    ):
        """The tentpole guarantee: a corpus annotated by one pool run is
        served by a *fresh multi-worker pool* from the shared fabric with
        ZERO encoder passes — entries written by one worker are disk
        hits in every other."""
        cache_dir = str(tmp_path / "cache")
        with ServingPool(_config(bundle, workers=1, cache_dir=cache_dir)) as pool:
            with Client(pool.address) as client:
                for table in tables:
                    record = table_to_dict(table)
                    record["id"] = table.table_id
                    client.send(record)
                for _ in tables:
                    client.recv()
                warm = client.ask({"op": "stats"})
        assert warm["gateway"]["encoder_passes"] > 0  # cold run did work
        with ServingPool(_config(bundle, workers=2, cache_dir=cache_dir)) as pool:
            clients = [Client(pool.address) for _ in range(4)]
            try:
                for client in clients:
                    for table in tables:
                        record = table_to_dict(table)
                        record["id"] = table.table_id
                        client.send(record)
                for client in clients:
                    for table in tables:
                        answer = client.recv()
                        answer.pop("id")
                        assert answer == expected[table.table_id]
                stats = clients[0].ask({"op": "stats"})
            finally:
                for client in clients:
                    client.close()
        assert stats["gateway"]["completed"] == 4 * len(tables)
        assert stats["gateway"]["encoder_passes"] == 0
        # Every answer came from the disk tier or deduped onto a request
        # that did (concurrent identical requests collapse in the queue).
        assert (
            stats["gateway"]["disk_hits"] + stats["gateway"]["dedup_hits"]
            == 4 * len(tables)
        )
        assert stats["gateway"]["disk_hits"] >= len(tables)
        # The previous run's writer is foreign to both new workers: its
        # entries surface as the fabric's remote (cross-writer) hits.
        tiers = stats["gateway"]["disk_tiers"]
        assert sum(tier["remote_hits"] for tier in tiers.values()) > 0

    def test_in_flight_cross_worker_reuse(self, bundle, tables, tmp_path):
        """Within ONE pool run: once any worker annotates a table, the
        other serves it from the fabric — pool-wide encoder passes stay
        at one however many connections repeat it."""
        record = table_to_dict(tables[0])
        config = _config(bundle, cache_dir=str(tmp_path / "cache"))
        with ServingPool(config) as pool:
            # Two connections opened back to back land on the two workers.
            first, second = Client(pool.address), Client(pool.address)
            try:
                assert "columns" in first.ask(record)
                # A sibling's flushed entry is visible after at most one
                # refresh interval (0.05 s).
                time.sleep(0.2)
                assert "columns" in second.ask(record)
                final = first.ask({"op": "stats"})
            finally:
                first.close()
                second.close()
        served_by = {
            w["pid"] for w in final["pool"]["per_worker"] if w["completed"] > 0
        }
        assert len(served_by) == 2
        assert final["gateway"]["encoder_passes"] == 1
        tiers = final["gateway"]["disk_tiers"]
        assert sum(tier["remote_hits"] for tier in tiers.values()) >= 1

    def test_single_process_serving_builds_no_arena(
        self, shared_tiny_annotator, tables, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.datasets import TableDataset
        from repro.io import save_dataset_jsonl

        bundle, corpus = tmp_path / "model", tmp_path / "corpus.jsonl"
        save_annotator(shared_tiny_annotator, bundle)
        dataset = shared_tiny_annotator.trainer.dataset
        save_dataset_jsonl(
            TableDataset(
                tables=list(tables[:2]),
                type_vocab=list(dataset.type_vocab),
                relation_vocab=list(dataset.relation_vocab),
            ),
            corpus,
        )
        assert main(["serve", str(bundle), str(corpus)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert not list(bundle.glob("*.rpwa"))

    def test_a_read_only_bundle_gets_a_pool_owned_arena(
        self, shared_tiny_annotator, tables, expected, tmp_path, monkeypatch
    ):
        """A bundle directory the pool cannot write (a read-only mount, a
        shared install) still serves: every worker maps an arena the pool
        built in a directory of its own, which stop() removes."""
        import repro.core.persistence as persistence

        bundle = tmp_path / "model"
        save_annotator(shared_tiny_annotator, bundle)
        bundle.chmod(0o555)
        if os.access(bundle, os.W_OK):
            # Mode bits do not bind a superuser: refuse the write as the
            # read-only directory would.
            write = persistence.write_model_arena

            def refuse_in_bundle(model, path, meta=None):
                if Path(path).parent == bundle:
                    raise PermissionError(errno.EACCES, "read-only", str(path))
                return write(model, path, meta)

            monkeypatch.setattr(persistence, "write_model_arena", refuse_in_bundle)
        try:
            with ServingPool(_config(bundle)) as pool:
                arena_dir = Path(pool._arena).parent
                record = table_to_dict(tables[0])
                record["id"] = 0
                answer = _ask_once(pool.address, record)
                stats = pool.stats()
        finally:
            bundle.chmod(0o755)
        assert answer.pop("id") == 0
        assert answer == expected[tables[0].table_id]
        assert stats["registry"]["arena_remaps"] == 2
        assert arena_dir != bundle
        assert not arena_dir.exists()
        assert not list(bundle.glob("*.rpwa"))


class TestPlacement:
    """The parent accepts every connection and hands it to a worker."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_back_to_back_connections_split_evenly(
        self, bundle, tables, start_method
    ):
        """Round-robin over ready workers: four connections opened back to
        back split 2/2 whatever their source ports hash to.  Under spawn
        the worker's socketpair end crosses the process boundary by
        pickling."""
        config = _config(bundle, start_method=start_method)
        with ServingPool(config) as pool:
            clients = [Client(pool.address) for _ in range(4)]
            try:
                for i, client in enumerate(clients):
                    record = table_to_dict(tables[i])
                    record["id"] = i
                    assert client.ask(record)["id"] == i
                stats = clients[0].ask({"op": "stats"})
            finally:
                for client in clients:
                    client.close()
        per_worker = stats["pool"]["per_worker"]
        assert [w["connections"] for w in per_worker] == [2, 2]
        assert [w["completed"] for w in per_worker] == [2, 2]

    def test_a_handed_over_connection_gets_nodelay(self):
        """A connection that crossed a socketpair, as the parent sends it,
        is served with TCP_NODELAY like one the server's own listener
        accepted: without it, a pipelined connection's small answers wait
        out Nagle's delay."""
        listener = socket.create_server(("127.0.0.1", 0))
        parent_end, worker_end = socket.socketpair()
        worker = EngineWorker(StubEngine())
        server = ServerThread(worker)
        with listener, parent_end, worker_end, worker, server:
            with socket.create_connection(
                listener.getsockname(), timeout=10
            ) as client:
                accepted, _ = listener.accept()
                with accepted:
                    socket.send_fds(parent_end, [b"c"], [accepted.fileno()])
                _, (fd,), _, _ = socket.recv_fds(worker_end, 1, 1)
                server._loop.call_soon_threadsafe(
                    server.server.adopt, socket.socket(fileno=fd)
                )
                client.sendall(b'{"op": "health"}\n')
                assert client.makefile("rb").readline().endswith(b"\n")
                (connection,) = server.server._connections
                adopted = connection.writer.get_extra_info("socket")
                assert adopted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                assert server.server.stats.connections == 1

    def test_a_killed_workers_share_goes_to_the_live_worker(
        self, bundle, tables
    ):
        """After ``kill -9`` of one worker, every new connection is handed
        to the live one and answered — none sits silent in the dead
        slot's socketpair, even when the parent has not yet seen the
        death (the send to a closed socketpair fails and passes on)."""
        with ServingPool(_config(bundle, max_restarts=0)) as pool:
            per_worker = _ask_once(pool.address, {"op": "stats"})["pool"][
                "per_worker"
            ]
            victim, survivor = (w["pid"] for w in per_worker)
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while pool.stats()["pool"]["live"] != 1:
                assert time.monotonic() < deadline, "death never observed"
                time.sleep(0.05)
            for unseen in (False, True):
                if unseen:
                    # As if the supervisor had not yet seen the death.
                    pool._slots[0].ready.set()
                clients = [Client(pool.address, timeout=30) for _ in range(2)]
                try:
                    for i, client in enumerate(clients):
                        record = table_to_dict(tables[i])
                        record["id"] = i
                        assert client.ask(record)["id"] == i
                finally:
                    for client in clients:
                        client.close()
            (only,) = pool.stats()["pool"]["per_worker"]
        assert only["pid"] == survivor
        assert only["completed"] == 4


class TestPoolSupervision:
    def test_crashed_worker_is_restarted_and_pool_keeps_serving(
        self, bundle, tables
    ):
        config = _config(bundle, max_restarts=2, restart_backoff=0.1)
        with ServingPool(config) as pool:
            stats = _ask_once(pool.address, {"op": "stats"})
            pids = sorted(w["pid"] for w in stats["pool"]["per_worker"])
            assert len(pids) == 2
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                snapshot = pool.stats()["pool"]
                if snapshot["live"] == 2 and snapshot["restarts"] == 1:
                    new_pids = sorted(
                        w["pid"] for w in snapshot["per_worker"]
                    )
                    if len(new_pids) == 2 and new_pids != pids:
                        break
                time.sleep(0.2)
            else:
                pytest.fail(f"no restart observed: {pool.stats()['pool']}")
            record = table_to_dict(tables[0])
            record["id"] = "post-restart"
            answer = _ask_once(pool.address, record)
            assert answer["id"] == "post-restart"
            assert "columns" in answer

    def test_worker_validation_fails_fast_in_parent(self, tmp_path):
        pool = ServingPool(
            PoolConfig(bundle=str(tmp_path / "nope"), workers=2)
        )
        with pytest.raises(ValueError, match="bundle"):
            pool.start()

    def test_config_validation(self, bundle):
        with pytest.raises(ValueError, match="workers"):
            PoolConfig(bundle=str(bundle), workers=0)
        with pytest.raises(ValueError, match="max_restarts"):
            PoolConfig(bundle=str(bundle), max_restarts=-1)

    def test_workers_exit_when_parent_is_killed(self, bundle):
        """Orphan protection: SIGKILL the supervising parent (no drain,
        no cleanup) and the workers must still exit on their own via the
        control-pipe EOF watchdog.  Regression for the fork-start-method
        bug where workers inherited the parent-side pipe ends of every
        sibling, so the EOF never arrived and orphans served forever."""
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
            PYTHONUNBUFFERED="1",
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(bundle),
                "--listen", "127.0.0.1:0", "--workers", "2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        worker_pids = []
        try:
            banner = process.stderr.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            assert match, f"unexpected banner: {banner!r}"
            address = (match.group(1), int(match.group(2)))
            stats = _ask_once(address, {"op": "stats"})
            worker_pids = [w["pid"] for w in stats["pool"]["per_worker"]]
            assert len(worker_pids) == 2
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                survivors = [p for p in worker_pids if _proc_running(p)]
                if not survivors:
                    break
                time.sleep(0.2)
            else:
                pytest.fail(
                    f"orphaned workers outlived the parent: {survivors}"
                )
        finally:
            for pid in worker_pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            if process.poll() is None:
                process.kill()
            process.wait(timeout=30)


def _worker_snapshot(slot, engine=None, **sections):
    """What pool worker ``slot`` sends the parent: its raw counters, with
    ``engine`` as the live engine of a model ``"m"``."""
    snapshot = {
        "worker": slot,
        "pid": 1000 + slot,
        "server": ServerStats(),
        "gateway": GatewayStats(),
        "registry": RegistryStats(),
    }
    snapshot.update(sections)
    if engine is not None:
        snapshot["gateway"].engines["m"] = engine
    return snapshot


class TestMergeCounters:
    def test_numeric_leaves_add_and_dicts_recurse(self):
        first = _worker_snapshot(
            0, server=ServerStats(requests=1), gateway=GatewayStats(submitted=1)
        )
        first["gateway"].models["m"] = ServiceStats(submitted=1)
        second = _worker_snapshot(
            1, server=ServerStats(requests=2), gateway=GatewayStats(submitted=3)
        )
        second["gateway"].models["m"] = ServiceStats(submitted=2)
        second["gateway"].models["n"] = ServiceStats(submitted=1, failed=1)
        merged = merge_sections([first, second])
        assert merged["server"].requests == 3
        assert merged["gateway"].submitted == 4
        models = merged["gateway"].to_dict()["models"]
        assert models["m"]["submitted"] == 3  # a name both workers serve adds
        assert (models["n"]["submitted"], models["n"]["failed"]) == (1, 1)
        # The merge copied: the workers' own snapshots are untouched.
        assert first["gateway"].models["m"].submitted == 1

    def test_booleans_do_not_sum(self):
        """The generic dict merge had to special-case booleans and strings
        (keep the first).  The declared merge reads declared counters and
        nothing else: a snapshot's identity fields stay out of the sums,
        and counters of two declarations are never added, whatever names
        they share."""
        first = _worker_snapshot(0)
        first.update(writer="w0", admin=True)
        merged = merge_sections([first, _worker_snapshot(1)])
        assert set(merged) == {"server", "gateway", "registry"}
        assert "requests" in ServerStats.COUNTERS and "requests" in EngineStats.COUNTERS
        with pytest.raises(TypeError, match="EngineStats"):
            ServerStats().merge(EngineStats(requests=1))

    def test_column_hit_rate_recomputed_from_merged_counters(self):
        """Regression: derived ratios must come from the merged raw
        counters, never from summing (or averaging) per-worker ratios.
        Worker A: 4/4 hits (rate 1.0); worker B: 0/12 (rate 0.0).  The
        merged truth is 4 hits in 16 lookups = 0.25 — the naive sum says
        1.0 and the naive mean says 0.5."""
        workers = [
            _worker_snapshot(
                slot,
                engine=EngineStats(
                    column_hits=hits,
                    column_misses=misses,
                    real_tokens=10,
                    padded_tokens=10,
                ),
            )
            for slot, (hits, misses) in enumerate(((4, 0), (0, 12)))
        ]
        rates = [w["gateway"].engines["m"].column_hit_rate for w in workers]
        assert rates == [1.0, 0.0]
        engine = merge_sections(workers)["gateway"].to_dict()["engines"]["m"]
        assert engine["column_hit_rate"] == 0.25
        assert engine["padding_waste"] == 0.0

    def test_probe_prune_rate_recomputed_from_merged_counters(self):
        """Same regression shape for the probe counters: worker A planned
        6 / pruned 18 (rate 0.75); worker B planned 16 / pruned 0 (rate
        0.0).  Merged truth is 18 pruned of 40 considered = 0.45 — the
        naive sum says 0.75 and the naive mean says 0.375."""
        workers = [
            _worker_snapshot(
                slot,
                engine=EngineStats(
                    pairs_planned=planned, pairs_pruned=pruned, pairs_probed=planned
                ),
            )
            for slot, (planned, pruned) in enumerate(((6, 18), (16, 0)))
        ]
        rates = [w["gateway"].engines["m"].probe_prune_rate for w in workers]
        assert rates == [0.75, 0.0]
        engine = merge_sections(workers)["gateway"].to_dict()["engines"]["m"]
        assert engine["probe_prune_rate"] == 0.45
        assert engine["pairs_probed"] == 22

    def test_pooled_ratio_is_rendered_like_a_single_process_one(self):
        """One hit on worker A, two misses on worker B: the pool answers
        the six places one process answers, not the bare quotient."""
        workers = [
            _worker_snapshot(0, engine=EngineStats(column_hits=1)),
            _worker_snapshot(1, engine=EngineStats(column_misses=2)),
        ]
        engine = merge_sections(workers)["gateway"].to_dict()["engines"]["m"]
        assert engine["column_hit_rate"] == 0.333333
        assert engine == EngineStats(column_hits=1, column_misses=2).to_dict()

    def test_pool_config_carries_probe_knobs(self, bundle):
        engine = EngineConfig(probe_mode="planned", probe_budget=6)
        config = pickle.loads(pickle.dumps(_config(bundle, engine=engine)))
        assert config.engine.probe_mode == "planned"
        assert config.engine.probe_budget == 6

    def test_pool_config_rejects_budget_without_planned_mode(self, bundle):
        """Validation must happen parent-side, not in a dead worker."""
        with pytest.raises(ValueError):
            _config(bundle, engine=EngineConfig(probe_budget=6))
        with pytest.raises(ValueError):
            _config(bundle, engine=EngineConfig(probe_mode="greedy"))

    def test_pool_config_carries_engine_knobs(self, bundle):
        """The worker gets its EngineConfig inside PoolConfig, so every
        engine knob must survive the pickle."""
        engine = EngineConfig(
            batch_size=4,
            column_cache_size=32,
            kernels="reference",
        )
        config = pickle.loads(pickle.dumps(_config(bundle, engine=engine)))
        assert config.engine == engine


@pytest.mark.smoke
class TestPoolCLI:
    """`repro serve --listen --workers N` end-to-end, in a subprocess —
    including the SIGTERM drain acceptance test (multiple live
    connections across multiple workers, every accepted request
    answered)."""

    @staticmethod
    @contextlib.contextmanager
    def _launch(bundle, cache_dir):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
            PYTHONUNBUFFERED="1",
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(bundle),
                "--listen", "127.0.0.1:0", "--workers", "2",
                "--cache-dir", str(cache_dir),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stderr.readline()
            match = re.search(
                r"listening on ([\d.]+):(\d+) \((\d+) workers\)",
                banner,
            )
            assert match, f"unexpected banner: {banner!r}"
            assert match.group(3) == "2"
            yield process, (match.group(1), int(match.group(2)))
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=30)

    @pytest.fixture()
    def pool_process(self, bundle, tmp_path):
        with self._launch(bundle, tmp_path / "cache") as launched:
            yield launched

    def test_a_pool_keeps_a_flat_cache_warm(
        self, shared_tiny_annotator, bundle, tables, expected_cli, tmp_path
    ):
        """A directory `repro annotate --cache-dir` filled (the flat
        layout) is answered from by every worker of a pool, exactly as by
        single-process `serve` — never recomputed into a second copy under
        a fingerprint sub-directory."""
        from repro.cli import main
        from repro.datasets import TableDataset
        from repro.io import save_dataset_jsonl

        corpus, cache_dir = tmp_path / "corpus.jsonl", tmp_path / "cache"
        dataset = shared_tiny_annotator.trainer.dataset
        save_dataset_jsonl(
            TableDataset(
                tables=list(tables),
                type_vocab=list(dataset.type_vocab),
                relation_vocab=list(dataset.relation_vocab),
            ),
            corpus,
        )
        assert main([
            "annotate", str(bundle), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(tmp_path / "a.jsonl"),
        ]) == 0
        with self._launch(bundle, cache_dir) as (process, address):
            # Two connections, so that both workers may be asked.
            for half in (tables[:3], tables[3:]):
                with Client(address) as client:
                    for table in half:
                        answer = client.ask(table_to_dict(table))
                        assert answer == expected_cli[table.table_id]
            stats = _ask_once(address, {"op": "stats"})["gateway"]
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        assert stats["disk_hits"] == len(tables)
        assert stats["encoder_passes"] == 0
        assert {path.parent for path in cache_dir.rglob("segment-*")} == {cache_dir}

    def test_sigterm_drains_multiworker_multiconnection(
        self, pool_process, tables, expected_cli
    ):
        process, address = pool_process
        # Warm-up proves the pool serves, and gives a requests baseline.
        with Client(address) as client:
            record = table_to_dict(tables[0])
            record["id"] = "warm"
            answer = client.ask(record)
            assert answer.pop("id") == "warm"
            assert answer == expected_cli[tables[0].table_id]
            base = client.ask({"op": "stats"})["server"]["requests"]
        # Live connections, one in-flight request each.
        clients = [Client(address) for _ in range(5)]
        try:
            for i, client in enumerate(clients):
                record = table_to_dict(tables[i % len(tables)])
                record["id"] = f"drain-{i}"
                client.send(record)
            # The drain contract covers ACCEPTED records: wait until the
            # pool has accepted all five before delivering the signal.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                now = _ask_once(address, {"op": "stats"})["server"]["requests"]
                if now - base >= len(clients):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("pool never accepted the in-flight requests")
            process.send_signal(signal.SIGTERM)
            for i, client in enumerate(clients):
                answer = client.recv()  # asserts the line arrived
                assert answer.pop("id") == f"drain-{i}"
                assert answer == expected_cli[tables[i % len(tables)].table_id]
        finally:
            for client in clients:
                client.close()
        assert process.wait(timeout=30) == 0
        epilogue = process.stderr.read()
        assert "over 2 workers" in epilogue
        # 1 warm-up + 5 drained requests, all in the FINAL merged stats.
        assert "served 6 tables" in epilogue

    def test_workers_requires_listen(self, bundle):
        from repro.cli import main

        assert main(["serve", str(bundle), "-", "--workers", "2"]) == 1
