"""Bootstrap percolation on complete uniform hypergraphs: exact engines,
extremal constructions, and verification tooling."""

from . import constructions, core, engine, verify
from .constructions import *  # noqa: F403
from .core import *  # noqa: F403
from .engine import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *engine.__all__, *constructions.__all__, *verify.__all__, "__version__"]
