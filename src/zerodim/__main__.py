"""``python -m zerodim``: the command line workbench."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
