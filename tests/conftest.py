from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and bounded in time.
settings.register_profile("ccnprobe", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("ccnprobe")
