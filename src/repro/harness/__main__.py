"""``python -m repro.harness`` entry point."""

import os
import sys

from .cli import main

try:
    status = main()
    # Flush inside the try: a reader that closed the pipe surfaces here.
    sys.stdout.flush()
except BrokenPipeError:
    # The reader went away (``... | head -1``).  Point stdout at devnull
    # so the interpreter's exit-time flush cannot raise again, and exit
    # without a traceback (the recipe of the ``signal`` module docs).
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    sys.exit(1)
sys.exit(status)
