"""Test package anchor; shared generators live in helpers.py."""

from hypothesis import settings

# The document fuzz in test_cli.py runs this deeper under
# `pytest --hypothesis-profile=fuzz`; every other test names its own
# max_examples, which a profile does not change.
settings.register_profile("fuzz", max_examples=6000)
