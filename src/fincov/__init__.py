"""fincov: exhaustive checkers for finite categories, coverages and compactness.

Every definition is decided by enumeration over explicit finite data, so each
theorem of the underlying framework becomes a runnable consistency check.
Modules follow the pipeline:

``fincat``
    explicit finite categories, pullbacks, coequalizers, classification
``morphclass``
    morphism-class calculus, mono-reflectivity and orthogonal
    factorization systems
``variance``
    two-sided strict factorization systems and mixed-variance functors
``coverage``
    diagram types, coverings, coverages and the compactness decision
``protomod``
    the relative protomodularity condition and class transport
``theorems``
    closure/Hopfian/image-closure harnesses with hypothesis checklists
``algebra``
    finite equational theories and algebras on flat operation tables
``algkit``
    homs, congruences, t-uniformity and the algebra ambient
``instances``
    corpus builders (posets, set skeletons, finite spaces, algebra ambients)
``cli``
    command line front door with deterministic JSON reports

``cli`` registers the layers a command may need with ``lazy_layer``, so
a process compiles only the layers its command reaches.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# the kernel implementation, stamped into benchmark results
KERNEL_BACKEND = "python"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]


def lazy_layer(name):
    """The module ``fincov.<name>``, in ``sys.modules`` and bound on this
    package, whose body runs on its first attribute access.

    A module that is already in ``sys.modules`` (imported, or being
    imported) is returned as it is: a second copy would hold a second set
    of classes.  An import statement that names the module (``import
    fincov.<name>``, ``from fincov.<name> import ...``) runs its body
    at once.
    """
    full = f"{__name__}.{name}"
    mod = sys.modules.get(full)
    if mod is None:
        spec = find_spec(full)
        spec.loader = LazyLoader(spec.loader)
        mod = module_from_spec(spec)
        sys.modules[full] = mod
        spec.loader.exec_module(mod)
    globals()[name] = mod
    return mod
