"""numpy, imported on first use.

Every module of the package binds ``np`` from here instead of importing
numpy, so that a process which only runs the scalar sampled checks never
loads it.  The first attribute read imports numpy and copies its
namespace into the stand-in; from then on ``np.x`` is a plain attribute
read.  Nothing in the package may read ``np`` at import time.
"""

import types


class _LazyNumpy(types.ModuleType):
    def __getattr__(self, name):
        # only called for names not yet copied: the first read, and any
        # submodule numpy binds after that
        import numpy
        self.__dict__.update(vars(numpy))
        return getattr(numpy, name)


np = _LazyNumpy("numpy")
