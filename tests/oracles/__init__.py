"""Reference implementations kept as executable specifications."""
