"""The command line as ``python -m fibspec``, with no installed script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
