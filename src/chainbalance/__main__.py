"""Allow `python -m chainbalance`, the same as the `chainbalance` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
