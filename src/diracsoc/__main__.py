"""Entry point for ``python -m diracsoc``; same commands as the ``diracsoc`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
