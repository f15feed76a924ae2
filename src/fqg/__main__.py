"""``python -m fqg``: the same command line as the ``fqg`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
