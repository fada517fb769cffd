"""``python -m idealfam``: the command line of :mod:`idealfam.cli`."""

from .cli import console_main

console_main()
