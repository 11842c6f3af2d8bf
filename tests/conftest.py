from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow shared machine cannot turn them into timing failures.
settings.register_profile(
    "stiefelmean", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("stiefelmean")
