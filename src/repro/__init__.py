"""repro — reproduction of Murali & De Micheli, *Bandwidth-Constrained
Mapping of Cores onto NoC Architectures* (DATE 2004).

The package implements the NMAP mapping algorithms (single minimum-path and
split-traffic via multi-commodity flow), the PMAP/GMAP/PBB baselines, the
paper's application suite, a wormhole packet-level NoC simulator (the
SystemC/×pipes substitute) and the benchmark harness regenerating every
table and figure of the paper's evaluation.  See README.md for the
surfaces, ARCHITECTURE.md for the system and PERFORMANCE.md for what was
measured.

Quickstart::

    from repro.apps import vopd
    from repro.graphs import NoCTopology
    from repro.mapping import nmap_single_path

    app = vopd()
    mesh = NoCTopology.smallest_mesh_for(app.num_cores, link_bandwidth=1000.0)
    result = nmap_single_path(app, mesh)
    print(result.comm_cost, result.mapping.render())
"""

from repro.errors import (
    BandwidthError,
    DesignError,
    GraphError,
    MappingError,
    ReproError,
    RoutingError,
    SimulationError,
    SolverError,
)

__version__ = "1.0.0"

__all__ = [
    "BandwidthError",
    "DesignError",
    "GraphError",
    "MappingError",
    "ReproError",
    "RoutingError",
    "SimulationError",
    "SolverError",
    "__version__",
]
