"""``python -m eprb_lab``: the command-line front end of :mod:`eprb_lab.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
