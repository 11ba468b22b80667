"""Entry point for `python -m skirmish`."""

from .cli import run

if __name__ == "__main__":
    run()
