"""``python -m repro.analysis`` — run the whole analyser over the package."""

import sys

from repro.analysis.reprolint import main

if __name__ == "__main__":
    sys.exit(main())
