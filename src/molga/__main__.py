"""`python -m molga ...` runs the command line, as the `molga` script does."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
