"""Performance benchmark for slidegt; see README.md in this directory."""
