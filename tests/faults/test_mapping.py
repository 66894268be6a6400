"""Every registered mapper places around failed routers.

A failed router stays addressable (ids are geometry) but can host no core.
The matrix goes through the public request, as the CLI and the service do.
"""

from __future__ import annotations

import pytest

from repro.api import FaultSpec, MapRequest, TopologySpec, list_mappers, run

#: On mesh 3x4: the (0, 0) corner PMAP seeds on, an interior router, both.
FAILED_ROUTERS = [(0,), (4,), (0, 4)]


@pytest.mark.parametrize("routers", FAILED_ROUTERS)
@pytest.mark.parametrize("mapper", list_mappers())
def test_mapper_avoids_failed_routers(mapper, routers):
    response = run(
        MapRequest(
            app="pip",
            mapper=mapper,
            topology=TopologySpec.parse("mesh:3x4"),
            faults=FaultSpec(failed_routers=routers),
            price_bandwidth=False,
        )
    )
    assert response.feasible
    assert len(response.placement) == 8
    assert not set(response.placement.values()) & set(routers)
