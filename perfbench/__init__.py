"""End-to-end and per-layer benchmark for qarith; see README.md."""
