"""``np``: numpy, imported on the first attribute read.

Only the Monte-Carlo simulators and the k-NN estimator build arrays; the
bounds are scalar closed forms.  Modules write ``from ._numpy import np``
and use ``np`` as usual, so importing the package, ``--version``, ``bounds``
and exact ``mi`` never load numpy.  The first read imports numpy and copies
its namespace into the stand-in, so later reads are plain attribute
lookups.  Nothing is added to ``sys.modules``.  Module-level code must not
read ``np``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np
else:
    class _Numpy:
        def __getattr__(self, name):
            import numpy

            self.__dict__.update(vars(numpy))
            return getattr(numpy, name)

    np = _Numpy()
