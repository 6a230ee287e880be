"""``python -m orthoposet``: the same command line as the ``orthoposet`` script."""
import sys

from .io_cli import main

if __name__ == "__main__":
    sys.exit(main())
