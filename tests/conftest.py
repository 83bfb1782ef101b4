"""Suite-wide test settings."""

from hypothesis import settings

# a failing property prints its @reproduce_failure line, so that the draw a
# CI run fails on can be replayed from the log
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
