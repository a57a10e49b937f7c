"""numpy and scipy load only when a baseline triangulates.

CBTC, its optimizations, the reconfiguration protocol and the fleet never
triangulate, so importing the CLI, the service processes or the scenario
runner must not pull in numpy or scipy.  Only ``delaunay_graph`` and the
complete ``euclidean_mst`` import them, inside the call.  The check runs in a
fresh interpreter because this test process has long since imported both.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = """
import json, sys

import repro.cli
import repro.scenarios.runner
import repro.service.server
import repro.service.workers
import repro.service.worlds


def loaded():
    return sorted({name.split(".")[0] for name in sys.modules} & {"numpy", "scipy"})


at_import = loaded()

from repro.baselines import delaunay_graph, euclidean_mst
from repro.net.placement import PlacementConfig, random_uniform_placement

network = random_uniform_placement(PlacementConfig(node_count=10), seed=3)
print(json.dumps({
    "at_import": at_import,
    "delaunay_edges": delaunay_graph(network, respect_max_range=False).number_of_edges(),
    "mst_edges": euclidean_mst(network).number_of_edges(),
    "after_triangulating": loaded(),
}))
"""


def test_only_triangulating_baselines_load_numpy_and_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout)
    assert result["at_import"] == []
    # A planar triangulation of 10 points in general position has between
    # 2n - 3 and 3n - 6 edges; the complete MST spans all 10 nodes.
    assert 17 <= result["delaunay_edges"] <= 24
    assert result["mst_edges"] == 9
    assert result["after_triangulating"] == ["numpy", "scipy"]
