"""``repro compose``: plan generation and a real multi-process up/down.

Plan generation is asserted in detail (port allocation, shared seed,
coordinator wiring, per-shard audit paths, pinned-dataset detection);
one small two-shard cluster is actually booted as subprocesses and driven
through the router — the full operator path, kept to one test so the
tier-1 suite stays quick (the 4-shard soak lives in the CI cluster job).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.client import ServiceClient
from repro.cluster.compose import (
    compose_down,
    compose_ps,
    compose_up,
    generate_plan,
)
from repro.exceptions import DomainError
from repro.service import QueryService


@pytest.fixture
def workspace(tmp_path):
    """A serving config with datasets on disk plus a compose directory."""
    rng = np.random.default_rng(3)
    for name in ("salaries", "heights", "ages"):
        np.save(tmp_path / f"{name}.npy", rng.normal(100.0, 10.0, 2_000))
    config = {
        "service": {"seed": 17, "cache_size": 64, "workers": 1},
        "datasets": [
            {"name": "salaries", "source": "salaries.npy", "group": "clinical"},
            {"name": "heights", "source": "heights.npy", "group": "clinical"},
            {"name": "ages", "source": "ages.npy", "budget": 4.0},
        ],
        "groups": {"clinical": {"budget": 20.0}},
        "observability": {"trace_ring": 64, "audit_log": "audit.jsonl"},
        "cluster": {"shards": 2},
    }
    config_path = tmp_path / "cluster.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    return config_path, tmp_path / "deploy"


class TestGeneratePlan:
    def test_plan_files_and_ports(self, workspace):
        config_path, deploy = workspace
        plan = generate_plan(config_path, deploy, shards=3)
        assert plan.shards == 3
        # every allocated port is distinct: nothing can shadow anything
        ports = [plan.coordinator_port, plan.router_port, *plan.shard_ports]
        assert len(set(ports)) == len(ports)
        assert [path.name for path in plan.shard_configs] == [
            "shard0.json", "shard1.json", "shard2.json"
        ]
        assert plan.router_plan.exists()
        assert (deploy / "plan.json").exists()

    def test_shard_configs_share_seed_and_wire_coordinator(self, workspace):
        config_path, deploy = workspace
        plan = generate_plan(config_path, deploy)
        documents = [
            json.loads(path.read_text()) for path in plan.shard_configs
        ]
        # bit-for-bit parity requires one seed across every replica
        assert {doc["service"]["seed"] for doc in documents} == {17}
        for index, doc in enumerate(documents):
            assert doc["cluster"]["shard_index"] == index
            assert doc["cluster"]["coordinator"] == (
                f"{plan.host}:{plan.coordinator_port}"
            )
            assert doc["service"]["port"] == plan.shard_ports[index]
            # one writer per audit hash chain
            assert doc["observability"]["audit_log"].endswith(
                f"audit.shard{index}.jsonl"
            )
            # dataset sources were absolutized against the template's dir
            for dataset in doc["datasets"]:
                assert dataset["source"].startswith("/")

    def test_shards_run_the_threaded_door_unless_the_template_names_one(self, workspace):
        config_path, deploy = workspace
        plan = generate_plan(config_path, deploy)
        assert {
            json.loads(path.read_text())["service"]["frontend"]
            for path in plan.shard_configs
        } == {"threaded"}
        document = json.loads(config_path.read_text())
        document["service"]["frontend"] = "async"
        config_path.write_text(json.dumps(document))
        plan = generate_plan(config_path, deploy)
        assert {
            json.loads(path.read_text())["service"]["frontend"]
            for path in plan.shard_configs
        } == {"async"}

    def test_pinned_is_exactly_the_private_budget_datasets(self, workspace):
        config_path, deploy = workspace
        plan = generate_plan(config_path, deploy)
        assert plan.pinned == ["ages"]
        router = json.loads(plan.router_plan.read_text())
        assert router["pinned"] == ["ages"]
        assert len(router["shards"]) == 2
        assert router["trace_ring"] == 64

    def test_missing_seed_fails_before_any_process(self, workspace):
        config_path, deploy = workspace
        document = json.loads(config_path.read_text())
        del document["service"]["seed"]
        config_path.write_text(json.dumps(document))
        with pytest.raises(DomainError, match="seed"):
            generate_plan(config_path, deploy)

    def test_zero_shards_rejected(self, workspace):
        config_path, deploy = workspace
        with pytest.raises(DomainError, match="shard count"):
            generate_plan(config_path, deploy, shards=0)


class TestComposeLifecycle:
    def test_up_query_parity_ps_down(self, workspace):
        config_path, deploy = workspace
        with compose_up(config_path, deploy) as handle:
            report = compose_ps(deploy)
            assert {entry["name"] for entry in report} == {
                "coordinator", "shard0", "shard1", "router"
            }
            assert all(entry["alive"] for entry in report)

            client = ServiceClient(handle.router_url)
            health = client.health()
            assert health["status"] == "ok"
            assert health["shards"]["healthy"] == 2

            # parity vs a single-process service under the same seed
            reference = QueryService(seed=17)
            reference.registry.create_group("clinical", 20.0)
            rng = np.random.default_rng(3)
            for name in ("salaries", "heights", "ages"):
                data = rng.normal(100.0, 10.0, 2_000)
                if name == "ages":
                    reference.register(name, data, 4.0)
                else:
                    reference.register(name, data, None, group="clinical")
            for dataset, kind in (
                ("salaries", "mean"), ("heights", "variance"), ("ages", "iqr")
            ):
                status, doc = client.query(dataset, kind, epsilon=0.4)
                expected = reference.query(dataset, kind, epsilon=0.4)
                assert status == 200, doc
                assert doc["value"] == expected.value, (dataset, kind)

            pids = [entry["pid"] for entry in report]

        # context exit == down: everything reaped, state cleared
        assert not (deploy / "state.json").exists()
        assert compose_ps(deploy) == []
        assert compose_down(deploy) == 0  # idempotent
        import os

        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

        # no process may have crashed along the way
        for log in deploy.glob("*.log"):
            assert "Traceback" not in log.read_text(), log
