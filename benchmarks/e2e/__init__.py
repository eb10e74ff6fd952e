"""End-to-end, layer-attributed benchmark of the similarity database.

See README.md in this directory; ``run.py`` is the entry point.
"""
