"""Simulator and compiler toolkit for LAQCC programs.  Each module
registers its gate factories on import, so the package imports them all
and ``program.loads`` knows every gate the toolkit emits."""
from . import amplifier, clifford, macros, protocols  # noqa: F401
