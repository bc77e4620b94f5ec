"""Top-level assembly: build and run a complete simulated Fabric network.

The runner is ``repro.fabric.run.run`` (also exported as ``repro.run``);
it is not re-exported here, where the name would shadow its own module.
"""

from repro.fabric.network import FabricNetwork
from repro.fabric.run import RunResult, Scenario

__all__ = ["FabricNetwork", "RunResult", "Scenario"]
