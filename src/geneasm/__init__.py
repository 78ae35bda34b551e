"""Gene assembly formalism: pointer strings, overlap and reduction graphs.

The package models micronuclear genes as legal pointer strings, builds
their overlap and reduction graphs, compresses reduction graphs to
labelled graphs, reconstructs the compressed reduction graph directly
from a realistic overlap graph, and provides the string/graph pointer
reduction systems with exhaustive search oracles and the closed-form
successfulness classification.

Each public name has one home, the submodule that defines it, and is
reached through it: ``from geneasm import compress`` then
``compress.cps``, or ``import geneasm.compress``.  This file imports
nothing, so ``import geneasm`` loads no submodule and a CLI verb pays
only for the modules it runs.
"""

__version__ = "0.1.0"
