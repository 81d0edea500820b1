"""The ``mvmtorus`` command: ``python -m mvmtorus`` and the console script.

Before numpy is first imported, the process limits OpenBLAS to one thread
unless ``OPENBLAS_NUM_THREADS`` is already set.  Every matrix the package
factors or multiplies is p x p or a stack of p-vectors, too small to gain
from BLAS threads, while starting the worker pool adds start-up time and
CPU to every run.  Programs that import the library keep their own setting.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy must not load before the line above)

if __name__ == "__main__":
    sys.exit(main())
