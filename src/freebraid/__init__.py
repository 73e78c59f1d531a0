"""Root-sequence calculus for simply laced Coxeter groups.

Reduced words, root sequences, commutation classes and their signatures,
inversion triples and the freely braided predicate, with brute-force
oracles and the braid moves' definitions in `freebraid.oracle` for
differential testing, and an `fb` CLI.

The package exports exactly the names its modules list in their ``__all__``.
"""

from . import classes, coxeter, rootseq, triples, typea
from .coxeter import *
from .rootseq import *
from .classes import *
from .triples import *
from .typea import *

__all__ = [*coxeter.__all__, *rootseq.__all__, *classes.__all__, *triples.__all__, *typea.__all__]

__version__ = "0.1.0"
