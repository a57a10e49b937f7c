"""Loading state written while topologies were spliced incrementally.

Reconfiguration managers once kept an ``IncrementalTopologyBuilder`` that
spliced each epoch's dirty nodes into the previous topology.  It ran at
about the speed of a full build, so
:meth:`~repro.core.reconfiguration.ReconfigurationManager.topology` is now a
memoized :func:`~repro.core.pipeline.build_topology`.  Managers pickled
before that (checkpoints, eviction and migration blobs) still name the
builder; the stub below is what they load into.
"""

from __future__ import annotations

from typing import Dict


class IncrementalTopologyBuilder:
    """What an older pickled manager's builder loads into.

    Everything is discarded except the full-build count, which the
    manager folds into its own.
    """

    full_builds = 0

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.full_builds = state.get("full_builds", 0)
