"""``PYTHONPATH=src python -m benchmarks.ladder`` — same as ``run.py``."""

from benchmarks.ladder.run import main

raise SystemExit(main())
