"""``python -m nlintsim``: the nlint-sim command line."""

from .cli_runner import cli_entry

if __name__ == "__main__":
    cli_entry()
