"""Entry point of python -m sqfpairs: the command-line front end of sqfpairs.cli."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
