"""``python -m mcgehee``: the command line, as the ``mcgehee`` script runs it."""
from .cli import main

main()
