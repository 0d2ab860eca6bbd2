"""Shared set-up of the in-process tests."""

from eprb_lab import cli

# A command binds numpy and the kernel's names in cli once its arguments
# parse.  Tests that call cli's helpers directly (_write_log, _tail_words)
# read those names without running a command first, so bind them here,
# whichever test runs first.  The tests of the unloaded state run in fresh
# interpreters.
cli._load_kernel()
