"""Frozen reference implementations that tests compare ``src/`` against."""
