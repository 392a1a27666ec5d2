import gc
import sys

from .cli import main

code = main()
# CPython's shutdown runs full collections over every object numpy and dicka
# left tracked (README "simulate" has the cost); frozen objects are skipped.
# Reference counting still frees module contents, and atexit handlers and the
# stream flushes still run.  Done here, not in cli.main, which callers run in
# process.
gc.freeze()
sys.exit(code)
