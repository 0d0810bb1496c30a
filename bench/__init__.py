"""The repository benchmark (see ``bench/README.md``); entry point ``bench/run.py``."""
