"""Tier-1 runs the same hypothesis examples every time: a failure is
reproducible and a pass does not depend on the run.  It writes no
bytecode, in this process or in the interpreters it starts, so a run
leaves no cache under src/ to skew a later cold-start timing."""
import os
import sys

from hypothesis import settings

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
