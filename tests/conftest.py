"""Test-suite settings shared by every module."""

from hypothesis import settings

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline, so tier-1 neither flakes nor
# slows down on a small runner.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("tier1")
