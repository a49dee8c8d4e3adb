"""``python -m prulab ...`` runs the ``prulab`` command line."""

from prulab.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
