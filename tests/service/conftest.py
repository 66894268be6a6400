"""Service-test fixtures: a live background-thread server per test.

The factory boots a real :class:`NocService` on an ephemeral port with a
tmp-dir store and hands back a connected client; every service started
through it is drained at teardown.  Tests default to ``executor="serial"``
— the executor is orthogonal to the HTTP/store/dedup contracts under test
here (run_batch's own suite covers executor equivalence), and serial keeps
the suite fast and fork-free.
"""

from __future__ import annotations

import pytest

from repro.service import NocService, ServiceClient, ServiceConfig


@pytest.fixture
def make_service(tmp_path):
    """Factory: ``make_service(**config_overrides) -> (service, client)``."""
    started: list[NocService] = []
    clients: list[ServiceClient] = []

    def factory(**overrides) -> tuple[NocService, ServiceClient]:
        overrides.setdefault("executor", "serial")
        overrides.setdefault("store_root", str(tmp_path / "store"))
        service = NocService(ServiceConfig(**overrides))
        started.append(service)
        port = service.start()
        clients.append(ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0))
        return service, clients[-1]

    yield factory
    for client in clients:
        client.close()  # its kept connections
    for service in started:
        try:
            service.shutdown(timeout=60)
        except Exception:  # noqa: BLE001 — teardown must reach every server
            pass


@pytest.fixture
def service_pair(make_service):
    """One default service + client (the common case)."""
    return make_service()
