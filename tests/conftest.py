"""One ``hypothesis`` profile for every property test.

Examples run without a deadline: the time of one example drifts with the
load on the host, and a timing-based failure would say nothing about the
code.
"""

from hypothesis import settings

settings.register_profile("ehrhart", deadline=None)
settings.load_profile("ehrhart")
