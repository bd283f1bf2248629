"""End-to-end NVX benchmark (see README.md)."""
