"""``python -m polyrealize``: the ``poly`` command line, for a checkout without the installed script."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="poly")
