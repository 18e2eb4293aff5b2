"""Tier-1 runs the same hypothesis examples every time: a failure is
reproducible and a pass does not depend on the run."""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
