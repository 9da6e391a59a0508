"""The repo's benchmark: five workloads over both engines (see README.md)."""
