"""plantedlab: planted estimation models, noise operators, Bayes estimators,
polynomial-time solvers, and stability measurements at desk scale.

Import from the submodules (``plantedlab.models``, ``plantedlab.bayes``, ...);
the package root exports only ``__version__``.
"""

__version__ = "0.1.0"
