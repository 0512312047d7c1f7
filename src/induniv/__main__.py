"""``python -m induniv`` runs the command-line interface."""

from .cli import main

main()
