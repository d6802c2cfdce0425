"""The distributed transport seam (repro.runtime.transport + agent).

The headline invariant mirrors ``test_crashpoints.py``'s, one layer
up: **no network fault plan may change the mined rule set**.  The
fault matrix sweeps the transport seam — a node killed at each shard
boundary, a partition that heals into a fenced commit, a straggler
whose duplicate delivery must dedup, a lost result whose lease must
expire — and asserts rule-set parity with the serial miner every time.

Fast tests drive :class:`NodeAgent` instances on in-process threads
(the protocol is storage-only, so a thread is a faithful node);
subprocess-spawning sweeps are marked ``slow``.
"""

import json
import os
import threading

import pytest

from repro.core.dmc_imp import find_implication_rules
from repro.core.partitioned import find_implication_rules_partitioned
from repro.core.stats import PipelineStats
from repro.runtime.agent import NodeAgent
from repro.runtime.faults import NetworkFault, NetworkFaultPlan
from repro.runtime.storage import LOCAL_STORAGE, load_lease
from repro.runtime.supervisor import (
    ShardLedger,
    Supervisor,
    SupervisorError,
    Task,
)
from repro.runtime.transport import (
    RemoteTransport,
    Transport,
    lease_path,
    result_path,
)
from tests.conftest import random_binary_matrix


def _double(x):
    """Importable task fn: agents resolve it by module:qualname."""
    return 2 * x


def _boom(x):
    """Importable task fn that always fails (error-record path)."""
    raise RuntimeError(f"boom on {x!r}")


def _succeed_second_time(marker_path):
    """Fails once per marker file, then succeeds — across processes."""
    if os.path.exists(marker_path):
        return "recovered"
    with open(marker_path, "w", encoding="utf-8") as handle:
        handle.write("attempted")
    raise RuntimeError("first attempt fails")


def _tasks(n):
    return [Task(task_id=f"t-{i}", payload=i) for i in range(n)]


class _ThreadedAgents:
    """N in-process NodeAgents on daemon threads (storage-only nodes)."""

    def __init__(self, ledger_dir, count=2, lease_ttl=0.5, **kwargs):
        self.agents = [
            NodeAgent(
                ledger_dir,
                node_id=f"thread-node-{index}",
                poll_interval=0.02,
                lease_ttl=lease_ttl,
                **kwargs,
            )
            for index in range(count)
        ]
        self.threads = []

    def __enter__(self):
        for agent in self.agents:
            thread = threading.Thread(
                target=agent.serve_forever, daemon=True
            )
            thread.start()
            self.threads.append(thread)
        return self

    def __exit__(self, *exc_info):
        for agent in self.agents:
            agent.stop()
        for thread in self.threads:
            thread.join(timeout=10.0)


def _remote(ledger_dir, **kwargs):
    kwargs.setdefault("lease_ttl", 0.5)
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("node_grace", 8.0)
    return RemoteTransport(str(ledger_dir), **kwargs)


# ----------------------------------------------------------------------
# The Transport seam itself
# ----------------------------------------------------------------------


class TestTransportSeam:
    def test_declining_transport_falls_back_to_serial(self):
        class Declines(Transport):
            name = "declining"

            def usable(self, n_pending, n_workers):
                return False

        report = Supervisor(
            _double, n_workers=4, transport=Declines()
        ).run(_tasks(3))
        assert report.mode == "serial"
        assert report.results(_tasks(3)) == [0, 2, 4]

    def test_custom_transport_name_is_reported(self):
        class Inline(Transport):
            name = "inline"

            def run_tasks(self, supervisor, pending, report):
                for task in pending:
                    supervisor._complete(
                        task, supervisor.fn(task.payload), 1, 0.0, report,
                        quarantined=False,
                    )

        report = Supervisor(
            _double, n_workers=4, transport=Inline()
        ).run(_tasks(3))
        assert report.mode == "inline"
        assert report.results(_tasks(3)) == [0, 2, 4]

    def test_tasks_a_transport_abandons_finish_in_process(self):
        class GivesUp(Transport):
            name = "gives-up"

            def run_tasks(self, supervisor, pending, report):
                pass  # leaves every task without an outcome

        report = Supervisor(
            _double, n_workers=4, transport=GivesUp()
        ).run(_tasks(3))
        assert report.results(_tasks(3)) == [0, 2, 4]

    def test_resolve_transport_validates_inputs(self):
        from repro.core.partitioned import _resolve_transport

        with pytest.raises(ValueError, match="nodes= requires"):
            _resolve_transport(None, 2, None, None)
        with pytest.raises(ValueError, match="needs ledger_dir="):
            _resolve_transport("remote", 0, None, None)
        with pytest.raises(ValueError, match="Transport"):
            _resolve_transport("carrier-pigeon", 0, None, None)
        assert _resolve_transport(None, 0, None, None) is None
        assert _resolve_transport("local", 0, None, None) is None


# ----------------------------------------------------------------------
# Remote transport: the clean path (threaded node agents)
# ----------------------------------------------------------------------


class TestRemoteClean:
    def test_remote_parity_and_mode(self, tmp_path):
        transport = _remote(tmp_path / "ledger")
        supervisor = Supervisor(_double, transport=transport)
        with _ThreadedAgents(str(tmp_path / "ledger")):
            report = supervisor.run(_tasks(6))
        assert report.mode == "remote"
        assert report.results(_tasks(6)) == [0, 2, 4, 6, 8, 10]
        assert report.tasks_quarantined == 0
        assert report.degradations == []

    def test_remote_result_attempts_follow_fencing_token(self, tmp_path):
        transport = _remote(tmp_path / "ledger")
        supervisor = Supervisor(_double, transport=transport)
        with _ThreadedAgents(str(tmp_path / "ledger"), count=1):
            report = supervisor.run(_tasks(2))
        for outcome in report.outcomes.values():
            assert outcome.attempts >= 1

    def test_error_results_burn_a_retry_then_succeed(self, tmp_path):
        marker = str(tmp_path / "marker")
        transport = _remote(tmp_path / "ledger")
        supervisor = Supervisor(
            _succeed_second_time, task_retries=2, transport=transport
        )
        tasks = [Task(task_id="flaky", payload=marker)]
        with _ThreadedAgents(str(tmp_path / "ledger")):
            report = supervisor.run(tasks)
        assert report.results(tasks) == ["recovered"]
        assert report.task_retries >= 1

    def test_error_results_exhaust_into_quarantine(self, tmp_path):
        transport = _remote(tmp_path / "ledger")
        supervisor = Supervisor(
            _boom, task_retries=1, backoff_base=0.001, transport=transport
        )
        with _ThreadedAgents(str(tmp_path / "ledger")):
            with pytest.raises(SupervisorError):
                supervisor.run(_tasks(1))

    def test_ledger_resume_skips_recorded_shards(self, tmp_path):
        """Completed shards resume from the ledger; only the rest go
        over the wire — the coordinator-crash recovery story."""
        ledger_dir = str(tmp_path / "ledger")
        fingerprint = {"kind": "test"}
        stale = ShardLedger(ledger_dir, fingerprint)
        stale.record("t-0", 0)
        stale.record("t-1", 2)
        # A restarted coordinator builds a fresh ledger (taking over
        # ownership) and a fresh transport on the same directory.
        ledger = ShardLedger(ledger_dir, fingerprint)
        ledger.load()
        transport = _remote(ledger_dir)
        supervisor = Supervisor(_double, ledger=ledger, transport=transport)
        with _ThreadedAgents(ledger_dir):
            report = supervisor.run(_tasks(4))
        assert report.results(_tasks(4)) == [0, 2, 4, 6]
        assert report.outcomes["t-0"].from_ledger
        assert report.outcomes["t-1"].from_ledger
        assert not report.outcomes["t-2"].from_ledger


# ----------------------------------------------------------------------
# The degradation ladder without any nodes at all
# ----------------------------------------------------------------------


class TestNoNodes:
    def test_no_agents_ever_arrive_serial_fallback(self, tmp_path):
        transport = _remote(tmp_path / "ledger", node_grace=0.5)
        supervisor = Supervisor(_double, transport=transport)
        report = supervisor.run(_tasks(3))
        assert report.results(_tasks(3)) == [0, 2, 4]
        assert report.tasks_quarantined == 3
        assert report.degradations.count("node-serial-fallback") == 3

    def test_fallback_steals_the_shard_lease(self, tmp_path):
        """The bottom rung fences stragglers before recomputing."""
        captured = {}

        def capture(payload):
            captured["lease"] = load_lease(
                transport.storage,
                lease_path(str(tmp_path / "ledger"), "t-0"),
            )
            return payload

        transport = _remote(tmp_path / "ledger", node_grace=0.5)
        supervisor = Supervisor(capture, transport=transport)
        supervisor.run(_tasks(1))
        lease = captured["lease"]
        assert lease is not None
        assert lease.owner == transport.coordinator_id
        assert lease.expires_at is None  # fenced for good, not leased


# ----------------------------------------------------------------------
# Network-fault matrix on the mining pipeline (rule-set parity)
# ----------------------------------------------------------------------

N_PARTS = 4


def _committed_token(ledger_dir, task_id):
    """The fencing token recorded in the shard's committed result."""
    with open(result_path(str(ledger_dir), task_id), encoding="utf-8") as f:
        return int(json.load(f)["token"])



def _mine_remote(matrix, ledger_dir, plan=None, **transport_kwargs):
    transport_kwargs.setdefault("nodes", 2)
    transport_kwargs.setdefault("lease_ttl", 0.5)
    transport_kwargs.setdefault("poll_interval", 0.02)
    transport = RemoteTransport(
        str(ledger_dir), network_faults=plan, **transport_kwargs
    )
    stats = PipelineStats()
    rules = find_implication_rules_partitioned(
        matrix, 0.5, n_partitions=N_PARTS, ledger_dir=str(ledger_dir),
        transport=transport, stats=stats,
    )
    return rules, stats


class TestNetworkFaultMatrix:
    @pytest.fixture()
    def matrix(self):
        return random_binary_matrix(5, max_rows=60, max_columns=14)

    def test_remote_mining_parity_clean(self, matrix, tmp_path):
        want = find_implication_rules(matrix, 0.5).pairs()
        rules, stats = _mine_remote(matrix, tmp_path / "ledger")
        assert rules.pairs() == want
        assert stats.degradations == []

    @pytest.mark.slow
    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("shard", range(N_PARTS))
    def test_node_kill_at_each_shard_boundary(self, matrix, tmp_path, shard):
        """A node dies the moment it claims shard ``shard``: the lease
        expires and the shard is re-dispatched — rules stay exact."""
        want = find_implication_rules(matrix, 0.5).pairs()
        plan = NetworkFaultPlan(faults=(
            NetworkFault(
                "kill", task_id=f"implication-part-{shard:04d}"
            ),
        ))
        rules, stats = _mine_remote(matrix, tmp_path / "ledger", plan)
        assert rules.pairs() == want
        # The killed claim (token 1) died before committing: the
        # committed result must come from a re-dispatched claim.
        assert _committed_token(
            tmp_path / "ledger", f"implication-part-{shard:04d}"
        ) >= 2

    @pytest.mark.slow
    @pytest.mark.timeout(180)
    def test_partition_then_heal_is_fenced(self, matrix, tmp_path):
        """A partitioned node heals after its lease expired and the
        shard was re-dispatched; its late commit must be fenced or
        deduped, never clobber the winner."""
        want = find_implication_rules(matrix, 0.5).pairs()
        plan = NetworkFaultPlan(faults=(
            NetworkFault("partition", task_id="implication-part-0001"),
        ))
        rules, stats = _mine_remote(matrix, tmp_path / "ledger", plan)
        assert rules.pairs() == want
        # The healed straggler stood down at its fence check; the
        # committed result belongs to the re-dispatched claim.
        assert _committed_token(
            tmp_path / "ledger", "implication-part-0001"
        ) >= 2

    @pytest.mark.slow
    @pytest.mark.timeout(180)
    def test_dropped_result_expires_and_redispatches(self, matrix, tmp_path):
        want = find_implication_rules(matrix, 0.5).pairs()
        plan = NetworkFaultPlan(faults=(
            NetworkFault("drop", task_id="implication-part-0002"),
        ))
        rules, stats = _mine_remote(matrix, tmp_path / "ledger", plan)
        assert rules.pairs() == want
        assert _committed_token(
            tmp_path / "ledger", "implication-part-0002"
        ) >= 2

    @pytest.mark.slow
    @pytest.mark.timeout(180)
    def test_straggler_duplicate_delivery_dedups(self, matrix, tmp_path):
        """The ``delay`` straggler commits blind after re-dispatch;
        first-writer-wins must resolve the duplicate delivery."""
        want = find_implication_rules(matrix, 0.5).pairs()
        plan = NetworkFaultPlan(faults=(
            NetworkFault("delay", task_id="implication-part-0000"),
        ))
        rules, stats = _mine_remote(matrix, tmp_path / "ledger", plan)
        assert rules.pairs() == want

    @pytest.mark.slow
    @pytest.mark.timeout(180)
    def test_double_commit_dedups(self, matrix, tmp_path):
        want = find_implication_rules(matrix, 0.5).pairs()
        plan = NetworkFaultPlan(faults=(
            NetworkFault("duplicate", task_id=None, tokens=99),
        ))
        rules, stats = _mine_remote(matrix, tmp_path / "ledger", plan)
        assert rules.pairs() == want
        # Every winner's second delivery was suppressed — the agents'
        # persisted beat records are the authoritative count (the
        # coordinator's live counter is a best-effort observation).
        suppressed = 0
        nodes_dir = os.path.join(str(tmp_path / "ledger"), "nodes")
        for entry in os.listdir(nodes_dir):
            with open(os.path.join(nodes_dir, entry)) as handle:
                beat = json.load(handle)
            suppressed += int(beat["stats"]["duplicates_suppressed"])
        assert suppressed >= N_PARTS

    @pytest.mark.slow
    @pytest.mark.timeout(240)
    def test_every_node_dies_every_time_full_ladder(self, matrix, tmp_path):
        """kill on every token: the ladder must walk all the way down
        to coordinator-serial quarantine, still exact."""
        want = find_implication_rules(matrix, 0.5).pairs()
        plan = NetworkFaultPlan(faults=(
            NetworkFault("kill", task_id=None, tokens=99),
        ))
        rules, stats = _mine_remote(
            matrix, tmp_path / "ledger", plan, node_grace=2.5,
        )
        assert rules.pairs() == want
        assert stats.tasks_quarantined == N_PARTS
        assert stats.degradations  # ladder steps were recorded

    @pytest.mark.slow
    @pytest.mark.timeout(180)
    def test_lease_expiry_mid_write_cannot_corrupt(self, matrix, tmp_path):
        """Both a partition-heal (fence-checked) and a blind straggler
        (link-level dedup) race the re-dispatched winner; the committed
        result file stays a single valid JSON document."""
        want = find_implication_rules(matrix, 0.5).pairs()
        plan = NetworkFaultPlan(faults=(
            NetworkFault("partition", task_id="implication-part-0001"),
            NetworkFault("delay", task_id="implication-part-0003"),
        ))
        rules, stats = _mine_remote(matrix, tmp_path / "ledger", plan)
        assert rules.pairs() == want
        for shard in range(N_PARTS):
            path = result_path(
                str(tmp_path / "ledger"), f"implication-part-{shard:04d}"
            )
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    record = json.load(handle)  # parses = not torn
                assert record["task_id"] == f"implication-part-{shard:04d}"


# ----------------------------------------------------------------------
# The public knobs (mine() facade and CLI wiring)
# ----------------------------------------------------------------------


class TestPublicSurface:
    def test_mine_facade_remote_transport(self, tmp_path):
        from repro.api import mine

        matrix = random_binary_matrix(5, max_rows=40, max_columns=10)
        want = find_implication_rules(matrix, 0.5).pairs()
        result = mine(
            matrix, minconf=0.5, transport="remote", nodes=2,
            ledger_dir=str(tmp_path / "ledger"), n_partitions=3,
        )
        assert result.engine == "partitioned+vector"
        assert result.rules.pairs() == want

    def test_config_validation(self, tmp_path):
        from repro.api import MiningConfig

        with pytest.raises(ValueError, match="ledger_dir"):
            MiningConfig(threshold=0.9, transport="remote")
        with pytest.raises(ValueError, match="transport='remote'"):
            MiningConfig(threshold=0.9, nodes=2)
        with pytest.raises(ValueError, match="mutually exclusive"):
            MiningConfig(
                threshold=0.9, transport="remote",
                ledger_dir=str(tmp_path), memory_budget=1 << 20,
            )

    def test_cli_agent_drains_a_queue(self, tmp_path):
        """`repro agent --max-idle` serves a pre-seeded queue and exits."""
        import base64
        import pickle

        from repro.cli import main
        from repro.runtime.transport import task_path

        ledger = str(tmp_path / "ledger")
        transport = _remote(ledger)
        transport._setup_run(
            Supervisor(_double), [Task(task_id="t-0", payload=21)]
        )
        code = main([
            "agent", "--ledger", ledger, "--max-idle", "0.5",
            "--poll", "0.02", "--lease-ttl", "0.5",
        ])
        assert code == 0
        with open(result_path(ledger, "t-0"), encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["result"] == 42
        # the queue entry survives (results are separate), sanity only
        assert os.path.exists(task_path(ledger, "t-0"))
        assert base64 and pickle  # imports used by _setup_run round-trip
