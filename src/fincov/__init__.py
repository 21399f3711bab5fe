"""fincov: exhaustive checkers for finite categories, coverages and compactness.

Every definition is decided by enumeration over explicit finite data, so each
theorem of the underlying framework becomes a runnable consistency check.
Modules follow the pipeline:

``fincat``
    explicit finite categories, pullbacks, coequalizers, classification
``morphclass``
    morphism-class calculus and orthogonal factorization systems
``variance``
    two-sided strict factorization systems and mixed-variance functors
``coverage``
    diagram types, coverings, coverages and the compactness decision
``protomod``
    the relative protomodularity condition and class transport
``theorems``
    closure/Hopfian/mono-reflectivity harnesses with hypothesis checklists
``algkit``
    finite equational theories, algebras, homs and t-uniformity
``instances``
    corpus builders (posets, set skeletons, finite spaces, algebra ambients)
``cli``
    command line front door with deterministic JSON reports
"""

# the kernel implementation, stamped into benchmark results
KERNEL_BACKEND = "python"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
