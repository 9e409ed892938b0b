"""``python -m hadlab``: the same command line as the ``hadlab`` script."""

from .cli import main

main()
