import gc
import sys

from .lab import main


def run():
    """main, with the import heap frozen first: no collection, those of
    interpreter exit included, walks its ~22,000 objects again."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
