"""End-to-end benchmark of MExI serving and training (run ``perfbench/run.py``)."""
