"""``python -m puiseux``: the ``puiseux`` command line."""

from .cli import console_main

console_main()
