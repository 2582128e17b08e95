"""End-to-end benchmark of the scheduling service and cluster (see README.md)."""
