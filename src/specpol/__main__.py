"""``python -m specpol``: the same command line as the ``specpol`` script."""

from .cli import main

if __name__ == "__main__":
    main()
