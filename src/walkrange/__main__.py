"""``python -m walkrange ...``: the `walkrange` command of `walkrange.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
